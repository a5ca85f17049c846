//! Error type shared by all MONARCH modules.

use crate::TierId;

/// Errors produced by the middleware.
#[derive(Debug)]
pub enum Error {
    /// Underlying storage backend I/O failure.
    Io(std::io::Error),
    /// A logical file name is not present in the metadata container.
    UnknownFile(String),
    /// A tier id is out of range for the configured hierarchy.
    UnknownTier(TierId),
    /// The hierarchy configuration is invalid (e.g. fewer than two tiers,
    /// or a capacity on the source tier).
    InvalidConfig(String),
    /// A read went past the end of the file.
    OutOfRange {
        /// Logical file name the read targeted.
        file: String,
        /// Requested offset.
        offset: u64,
        /// Actual file size in bytes.
        size: u64,
    },
    /// The middleware has been shut down and no longer accepts work.
    ShutDown,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::UnknownFile(name) => write!(f, "unknown file in namespace: {name}"),
            Error::UnknownTier(id) => write!(f, "tier {id} not in hierarchy"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::OutOfRange { file, offset, size } => {
                write!(f, "read at {offset} past end of {file} ({size} bytes)")
            }
            Error::ShutDown => write!(f, "middleware already shut down"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::OutOfRange {
            file: "a".into(),
            offset: 10,
            size: 5,
        };
        assert!(e.to_string().contains("past end"));
        assert!(Error::UnknownFile("x".into()).to_string().contains('x'));
        assert!(Error::UnknownTier(3).to_string().contains('3'));
    }

    #[test]
    fn io_error_source_preserved() {
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
