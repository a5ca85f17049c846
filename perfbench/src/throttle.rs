//! The throttled PFS: a [`StorageDriver`] over a local directory that
//! behaves like a shared parallel file system seen from one node.
//!
//! Every data operation pays a fixed per-op latency, then occupies one
//! bandwidth link shared by all callers — foreground readers and the
//! middleware's copy pool alike — first come, first served. Each transfer
//! is scheduled against the link's shared due time (`next_free`), so the
//! schedule advances by exact transfer times: a sleep that overshoots
//! delays only its own caller, and overshoot never accumulates into the
//! link.

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use monarch_core::driver::PosixDriver;
use monarch_core::{Result, StorageDriver};

/// Link bandwidth, bytes per second.
pub const PFS_RATE_BYTES_PER_S: f64 = 256.0 * 1024.0 * 1024.0;
/// Fixed latency of every PFS operation (data reads and the namespace
/// listing), before its transfer starts.
pub const PFS_OP_LATENCY: Duration = Duration::from_micros(1000);

thread_local! {
    static FOREGROUND: Cell<bool> = const { Cell::new(false) };
}

/// Mark the calling thread as a foreground (training reader) thread, so
/// the bytes it pulls through the link count as foreground bytes; all
/// other threads' bytes count as background (copy) bytes.
pub fn mark_foreground() {
    FOREGROUND.with(|f| f.set(true));
}

/// Whether the calling thread is a foreground reader.
pub fn is_foreground() -> bool {
    FOREGROUND.with(Cell::get)
}

/// The shared bandwidth link and its counters.
pub struct Link {
    rate: f64,
    latency: Duration,
    next_free: Mutex<Instant>,
    fg_bytes: AtomicU64,
    bg_bytes: AtomicU64,
    wait_ns: AtomicU64,
}

/// Link counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounters {
    pub fg_bytes: u64,
    pub bg_bytes: u64,
    pub wait_s: f64,
}

impl LinkCounters {
    pub fn total_bytes(&self) -> u64 {
        self.fg_bytes + self.bg_bytes
    }
}

impl Link {
    pub fn new(rate: f64, latency: Duration) -> Self {
        Self {
            rate,
            latency,
            next_free: Mutex::new(Instant::now()),
            fg_bytes: AtomicU64::new(0),
            bg_bytes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        }
    }

    /// The PFS link with the benchmark's fixed parameters.
    pub fn pfs() -> Arc<Self> {
        Arc::new(Self::new(PFS_RATE_BYTES_PER_S, PFS_OP_LATENCY))
    }

    /// Charge an operation that started at `start` and moved `bytes`:
    /// block until its scheduled completion.
    fn charge(&self, start: Instant, bytes: u64) {
        let transfer = Duration::from_secs_f64(bytes as f64 / self.rate);
        let due = {
            let mut free = self.next_free.lock().expect("link lock poisoned");
            let begin = (*free).max(start + self.latency);
            *free = begin + transfer;
            *free
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
            self.wait_ns
                .fetch_add(now.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let counter = if is_foreground() {
            &self.fg_bytes
        } else {
            &self.bg_bytes
        };
        counter.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn counters(&self) -> LinkCounters {
        LinkCounters {
            fg_bytes: self.fg_bytes.load(Ordering::Relaxed),
            bg_bytes: self.bg_bytes.load(Ordering::Relaxed),
            wait_s: self.wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// A POSIX directory behind the shared link.
pub struct ThrottledDriver {
    inner: PosixDriver,
    link: Arc<Link>,
}

impl ThrottledDriver {
    pub fn new(name: &str, root: &Path, link: Arc<Link>) -> Result<Self> {
        Ok(Self {
            inner: PosixDriver::new(name, root)?,
            link,
        })
    }
}

impl StorageDriver for ThrottledDriver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let start = Instant::now();
        let n = self.inner.read_at(file, offset, buf)?;
        self.link.charge(start, n as u64);
        Ok(n)
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let start = Instant::now();
        let data = self.inner.read_full(file)?;
        self.link.charge(start, data.len() as u64);
        Ok(data)
    }

    // The PFS is the middleware's read-only source tier: writes and
    // removes never reach it, so they pass through unthrottled.
    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.inner.write_full(file, data)
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        let start = Instant::now();
        let out = self.inner.list()?;
        self.link.charge(start, 0);
        Ok(out)
    }
}

/// Throttle self-check: four threads stream whole files through a fresh
/// link with the benchmark's parameters, which keeps the link saturated.
/// Returns measured bytes/s divided by the configured rate; a correct
/// throttle lands just under 1 (one op latency of ramp-up).
pub fn self_check(pfs_dir: &Path, files: &[String]) -> Result<f64> {
    let link = Link::pfs();
    let driver = ThrottledDriver::new("pfs-selfcheck", pfs_dir, Arc::clone(&link))?;
    let start = Instant::now();
    std::thread::scope(|s| -> Result<()> {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let driver = &driver;
                s.spawn(move || -> Result<()> {
                    for f in files.iter().skip(t).step_by(4) {
                        driver.read_full(f)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join().expect("self-check worker panicked")?;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    Ok(link.counters().total_bytes() as f64 / elapsed / link.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_paces_a_shared_stream() {
        // 8 ops of 64 KiB over a 64 MiB/s link with 100 µs latency: the
        // link schedule alone takes 8 ms.
        let link = Link::new(64.0 * 1024.0 * 1024.0, Duration::from_micros(100));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..4 {
                        link.charge(Instant::now(), 64 << 10);
                    }
                });
            }
        });
        let took = start.elapsed();
        assert!(took >= Duration::from_millis(8), "{took:?}");
        assert_eq!(link.counters().bg_bytes, 8 * (64 << 10));
    }
}
