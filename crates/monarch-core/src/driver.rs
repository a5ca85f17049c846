//! Storage drivers: the per-tier I/O abstraction.
//!
//! A driver hides the backend behind a small object-safe trait so tiers can
//! be backed by a real directory ([`PosixDriver`]), RAM ([`MemDriver`]), a
//! fault-scripting test wrapper (the [`testing`] module) or — in the
//! `dlpipe` simulation — a modelled device. Callers address files by their
//! *logical name* (the dataset-relative path), mirroring the paper's
//! `Monarch.read`, which takes a filename; descriptors stay inside the
//! driver (every [`PosixDriver`] of the process shares one bounded cache of
//! open handles and serves reads with one positional `pread`).

use std::fs;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

use parking_lot::RwLock;

use crate::hash::FxHashMap;
use crate::telemetry::LatencyHistogram;
use crate::{Error, Result};

/// Backend I/O abstraction for one storage tier.
pub trait StorageDriver: Send + Sync {
    /// Short backend name (for stats and debugging).
    fn name(&self) -> &str;

    /// Read up to `buf.len()` bytes at `offset`; returns the bytes read
    /// (short reads happen at end-of-file only).
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Read the entire file.
    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let size = self.file_size(file)?;
        let mut buf = vec![0u8; size as usize];
        let n = self.read_at(file, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Create or replace `file` with `data`.
    fn write_full(&self, file: &str, data: &[u8]) -> Result<()>;

    /// Remove `file` (used by eviction-capable ablation policies).
    fn remove(&self, file: &str) -> Result<()>;

    /// Size of `file` in bytes.
    fn file_size(&self, file: &str) -> Result<u64>;

    /// Enumerate `(name, size)` of every file on the backend — the
    /// namespace-population scan run at startup.
    fn list(&self) -> Result<Vec<(String, u64)>>;
}

// ---------------------------------------------------------------------------
// POSIX driver
// ---------------------------------------------------------------------------

/// Most open handles the process-wide cache keeps, however high the
/// descriptor limit.
const HANDLE_BUDGET_MAX: usize = 1024;

/// Soft `RLIMIT_NOFILE` assumed when `/proc/self/limits` cannot be read:
/// the common default.
const ASSUMED_NOFILE: usize = 1024;

/// `EMFILE` / `ENFILE`: the process or the system is out of descriptors.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// Gives every `write_full` temp file a name no other call shares.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Identifies each [`PosixDriver`] in the shared handle cache.
static DRIVER_SEQ: AtomicU64 = AtomicU64::new(0);

/// The handle cache every [`PosixDriver`] of the process shares.
static SHARED_HANDLES: LazyLock<Arc<HandleCache>> =
    LazyLock::new(|| Arc::new(HandleCache::new(handle_budget())));

/// Handles all drivers together may keep open: half the soft descriptor
/// limit (512 under the common default of 1024), so the copy path,
/// sockets and trace files keep the other half.
fn handle_budget() -> usize {
    let soft_nofile = fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            let line = limits
                .lines()
                .find_map(|l| l.strip_prefix("Max open files"))?;
            line.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(ASSUMED_NOFILE);
    (soft_nofile / 2).clamp(1, HANDLE_BUDGET_MAX)
}

#[derive(Default)]
struct Handles {
    by_driver: FxHashMap<u64, FxHashMap<String, Arc<fs::File>>>,
    /// Bumped by every invalidation; a miss inserts only if it is unchanged.
    generation: u64,
}

impl Handles {
    /// Handles summed over every driver.
    fn len(&self) -> usize {
        self.by_driver.values().map(|files| files.len()).sum()
    }
}

/// Open read handles of every [`PosixDriver`] sharing it, keyed by driver
/// and logical name, with one cap over them all.
///
/// A miss notes the generation before opening and inserts only if no
/// invalidation ran meanwhile, so a handle opened before an unlink or
/// rename is served to that one read but never cached.
struct HandleCache {
    inner: RwLock<Handles>,
    cap: usize,
}

impl HandleCache {
    fn new(cap: usize) -> Self {
        Self {
            inner: RwLock::default(),
            cap,
        }
    }

    /// The cached handle for `file`, or on a miss the generation to hand
    /// to [`HandleCache::insert`].
    fn lookup(&self, driver: u64, file: &str) -> std::result::Result<Arc<fs::File>, u64> {
        let handles = self.inner.read();
        handles
            .by_driver
            .get(&driver)
            .and_then(|files| files.get(file))
            .cloned()
            .ok_or(handles.generation)
    }

    /// Cache `handle` unless an invalidation ran since `generation` was
    /// read; returns whether it was cached. At the cap, an arbitrary handle
    /// of the driver holding the most goes, so no tier is starved.
    fn insert(&self, driver: u64, file: &str, handle: &Arc<fs::File>, generation: u64) -> bool {
        let mut guard = self.inner.write();
        let handles = &mut *guard;
        if handles.generation != generation {
            return false;
        }
        if handles.len() >= self.cap {
            let fullest = handles
                .by_driver
                .values_mut()
                .max_by_key(|files| files.len());
            if let Some(files) = fullest {
                let victim = files.keys().next().cloned();
                if let Some(victim) = victim {
                    files.remove(&victim);
                }
            }
        }
        let files = handles.by_driver.entry(driver).or_default();
        files.insert(file.to_owned(), Arc::clone(handle));
        true
    }

    /// Drop `file`'s handle; called after every unlink or rename of it.
    fn invalidate(&self, driver: u64, file: &str) {
        let mut handles = self.inner.write();
        if let Some(files) = handles.by_driver.get_mut(&driver) {
            files.remove(file);
        }
        handles.generation += 1;
    }

    /// Drop a dropped driver's handles.
    fn forget(&self, driver: u64) {
        self.inner.write().by_driver.remove(&driver);
    }

    /// Run `open`; out of descriptors, drop every driver's cached handles
    /// and retry once, so the cache never turns descriptor pressure into
    /// tier errors. Nothing is renamed, so the generation stays.
    fn shed_on_exhaustion<T>(
        &self,
        mut open: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        match open() {
            Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                self.inner.write().by_driver.clear();
                open()
            }
            opened => opened,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.read().len()
    }
}

/// Driver over a real directory tree (the production path: an XFS mount on
/// the node-local SSD, or the Lustre dataset directory).
///
/// Reads are positional (`pread`) on an open handle cached per logical
/// name, in one cache all drivers of the process share. The cache is
/// invalidated by this driver's own `write_full` and `remove`, so tier
/// contents must change only through the driver: an out-of-band unlink or
/// replace is not seen while a handle is cached.
pub struct PosixDriver {
    name: String,
    root: PathBuf,
    id: u64,
    handles: Arc<HandleCache>,
}

impl PosixDriver {
    /// Create a driver rooted at `root`; the directory is created if absent
    /// (local cache tiers start empty).
    pub fn new(name: impl Into<String>, root: impl Into<PathBuf>) -> Result<Self> {
        Self::with_handle_cache(name, root, Arc::clone(&SHARED_HANDLES))
    }

    /// As [`PosixDriver::new`], caching handles in `handles` instead of
    /// the process-wide cache.
    fn with_handle_cache(
        name: impl Into<String>,
        root: impl Into<PathBuf>,
        handles: Arc<HandleCache>,
    ) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            name: name.into(),
            root,
            id: DRIVER_SEQ.fetch_add(1, Ordering::Relaxed),
            handles,
        })
    }

    /// Root directory of this backend.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }

    fn open(&self, file: &str) -> std::io::Result<fs::File> {
        let path = self.resolve(file);
        self.handles.shed_on_exhaustion(|| fs::File::open(&path))
    }

    fn handle(&self, file: &str) -> std::io::Result<Arc<fs::File>> {
        match self.handles.lookup(self.id, file) {
            Ok(handle) => Ok(handle),
            Err(generation) => {
                let handle = Arc::new(self.open(file)?);
                self.handles.insert(self.id, file, &handle, generation);
                Ok(handle)
            }
        }
    }

    #[cfg(test)]
    fn cached_handles(&self) -> usize {
        let handles = self.handles.inner.read();
        handles
            .by_driver
            .get(&self.id)
            .map_or(0, |files| files.len())
    }
}

impl Drop for PosixDriver {
    fn drop(&mut self) {
        self.handles.forget(self.id);
    }
}

/// Write `data` to `tmp`, then rename it over `path`; `tmp` is removed if
/// any step fails, so a failed copy leaves no unaccounted bytes behind.
fn write_then_rename(
    handles: &HandleCache,
    tmp: &Path,
    path: &Path,
    data: &[u8],
) -> std::io::Result<()> {
    let written = handles
        .shed_on_exhaustion(|| fs::File::create(tmp))
        .and_then(|mut f| {
            f.write_all(data)?;
            f.sync_data().ok(); // best-effort: cache tiers are ephemeral
            Ok(())
        });
    let renamed = written.and_then(|()| fs::rename(tmp, path));
    if renamed.is_err() {
        let _ = fs::remove_file(tmp);
    }
    renamed
}

impl StorageDriver for PosixDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let handle = self.handle(file)?;
        let mut filled = 0;
        while filled < buf.len() {
            match handle.read_at(&mut buf[filled..], offset + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(filled)
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let path = self.resolve(file);
        Ok(self.handles.shed_on_exhaustion(|| fs::read(&path))?)
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        let path = self.resolve(file);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Write to a temp name then rename, so concurrent readers never see
        // a half-copied file after the metadata flips to this tier. The temp
        // name extends the full file name and is unique per call, so copies
        // of `x.a` and `x.b`, or two writes of one name, never share it.
        let mut tmp = path.clone().into_os_string();
        tmp.push(format!(
            ".monarch-tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        write_then_rename(&self.handles, Path::new(&tmp), &path, data)?;
        self.handles.invalidate(self.id, file);
        Ok(())
    }

    fn remove(&self, file: &str) -> Result<()> {
        let removed = fs::remove_file(self.resolve(file));
        self.handles.invalidate(self.id, file);
        Ok(removed?)
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        Ok(fs::metadata(self.resolve(file))?.len())
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in self.handles.shed_on_exhaustion(|| fs::read_dir(&dir))? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    stack.push(entry.path());
                } else {
                    let rel = entry
                        .path()
                        .strip_prefix(&self.root)
                        .expect("entry under root")
                        .to_string_lossy()
                        .into_owned();
                    out.push((rel, meta.len()));
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// In-memory driver
// ---------------------------------------------------------------------------

/// RAM-backed driver: unit tests, the RAM tier of the multi-level
/// extension, and a stand-in for tmpfs.
pub struct MemDriver {
    name: String,
    files: RwLock<FxHashMap<String, Arc<Vec<u8>>>>,
}

impl MemDriver {
    /// Empty in-memory backend.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            files: RwLock::new(FxHashMap::default()),
        }
    }

    /// Pre-populate a file (e.g. to stage a dataset on a test "PFS").
    pub fn insert(&self, file: &str, data: Vec<u8>) {
        self.files.write().insert(file.into(), Arc::new(data));
    }

    /// Number of files stored.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Total stored bytes.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.files.read().values().map(|d| d.len() as u64).sum()
    }
}

/// A missing file, reported the way [`PosixDriver`] reports it (an
/// `io::ErrorKind::NotFound`), so the read path's eviction-race handling
/// and health classification treat every backend alike.
fn not_found(file: &str) -> Error {
    Error::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("{file}: no such file"),
    ))
}

impl StorageDriver for MemDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let data = {
            let files = self.files.read();
            files.get(file).cloned().ok_or_else(|| not_found(file))?
        };
        let start = (offset as usize).min(data.len());
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        Ok(n)
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let files = self.files.read();
        files
            .get(file)
            .map(|d| d.as_ref().clone())
            .ok_or_else(|| not_found(file))
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.files
            .write()
            .insert(file.into(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.files
            .write()
            .remove(file)
            .map(|_| ())
            .ok_or_else(|| not_found(file))
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        let files = self.files.read();
        files
            .get(file)
            .map(|d| d.len() as u64)
            .ok_or_else(|| not_found(file))
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        let files = self.files.read();
        let mut out: Vec<_> = files
            .iter()
            .map(|(k, v)| (k.clone(), v.len() as u64))
            .collect();
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Latency instrumentation
// ---------------------------------------------------------------------------

/// Wrapper that stamps every read/write into latency histograms.
///
/// [`crate::Monarch`] wraps each tier's driver with one of these (sharing
/// the registry's per-tier histograms) so real I/O is timed exactly once,
/// at the driver boundary — the middleware and background copies above it
/// need no timing code of their own. Metadata operations (`remove`,
/// `file_size`, `list`) pass through untimed.
pub struct TimedDriver {
    inner: Arc<dyn StorageDriver>,
    reads: Arc<LatencyHistogram>,
    writes: Arc<LatencyHistogram>,
}

impl TimedDriver {
    /// Wrap `inner`, recording read latencies into `reads` and write
    /// latencies into `writes` (nanoseconds).
    #[must_use]
    pub fn new(
        inner: Arc<dyn StorageDriver>,
        reads: Arc<LatencyHistogram>,
        writes: Arc<LatencyHistogram>,
    ) -> Self {
        Self {
            inner,
            reads,
            writes,
        }
    }

    /// The wrapped driver.
    #[must_use]
    pub fn inner(&self) -> &Arc<dyn StorageDriver> {
        &self.inner
    }
}

impl StorageDriver for TimedDriver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let start = Instant::now();
        let out = self.inner.read_at(file, offset, buf);
        self.reads.record_duration(start.elapsed());
        out
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.read_full(file);
        self.reads.record_duration(start.elapsed());
        out
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        let start = Instant::now();
        let out = self.inner.write_full(file, data);
        self.writes.record_duration(start.elapsed());
        out
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.inner.list()
    }
}

// ---------------------------------------------------------------------------
// Test-support drivers
// ---------------------------------------------------------------------------

/// Wrappers that script faults and stalls around a real driver, for the
/// unit, integration and chaos tests: [`testing::FlakyDriver`] fails
/// operations from scripted sequences or an outage switch, and
/// [`testing::GatedDriver`] holds background copies at a gate.
pub mod testing {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use parking_lot::{Condvar, Mutex};

    use super::StorageDriver;
    use crate::{Error, Result};

    /// Shared latch that holds a [`GatedDriver`]'s full-file reads closed until
    /// [`open_gate`] is called.
    pub type Gate = Arc<(Mutex<bool>, Condvar)>;

    /// Open `gate`, releasing every blocked and future `read_full` of the
    /// [`GatedDriver`] it came from.
    pub fn open_gate(gate: &Gate) {
        let (lock, cv) = &**gate;
        *lock.lock() = true;
        cv.notify_all();
    }

    /// Test-support wrapper whose `read_full` blocks until its [`Gate`] opens.
    ///
    /// Background copies fetch the source through `read_full`, so pinning a
    /// worker inside one makes queueing, promotion, and cancellation behaviour
    /// deterministic: jobs pile up behind the blocked copy in a known order.
    /// Foreground `read_at` is deliberately *not* gated — reads keep being
    /// served from the source while the copy pipeline is wedged, exactly the
    /// degraded mode the middleware promises.
    pub struct GatedDriver<D> {
        inner: D,
        gate: Gate,
    }

    impl<D: StorageDriver> GatedDriver<D> {
        /// Wrap `inner` behind a closed gate; returns the driver and the gate
        /// handle used to open it later.
        #[must_use]
        pub fn new(inner: D) -> (Self, Gate) {
            let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
            (
                Self {
                    inner,
                    gate: Arc::clone(&gate),
                },
                gate,
            )
        }
    }

    impl<D: StorageDriver> StorageDriver for GatedDriver<D> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
            self.inner.read_at(file, offset, buf)
        }

        fn read_full(&self, file: &str) -> Result<Vec<u8>> {
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock();
            while !*open {
                cv.wait(&mut open);
            }
            drop(open);
            self.inner.read_full(file)
        }

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
            self.inner.list()
        }
    }

    /// Outcome of one scripted [`FlakyDriver`] operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FlakyOutcome {
        /// Pass through to the inner driver.
        Ok,
        /// Fail with a transient I/O error (`TimedOut` — retried with backoff
        /// by the health machinery).
        Transient,
        /// Fail with a permanent I/O error (`PermissionDenied` — quarantines
        /// the tier).
        Permanent,
        /// Fail with `ENOSPC` (the install path's evict-and-retry trigger).
        Enospc,
    }

    impl FlakyOutcome {
        fn into_error(self, what: &str) -> Error {
            match self {
                FlakyOutcome::Ok => unreachable!("Ok outcomes never build errors"),
                FlakyOutcome::Transient => Error::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("injected transient fault in {what}"),
                )),
                FlakyOutcome::Permanent => Error::Io(std::io::Error::new(
                    std::io::ErrorKind::PermissionDenied,
                    format!("injected permanent fault in {what}"),
                )),
                FlakyOutcome::Enospc => Error::Io(std::io::Error::from_raw_os_error(28)),
            }
        }
    }

    /// Test harness driver that fails operations from *scripted sequences*
    /// and supports a shared outage switch that fails every data operation
    /// while set — the building blocks for retry, quarantine, half-open-probe,
    /// ENOSPC and failed-copy tests.
    ///
    /// Reads (`read_at`/`read_full`) consume the read script; `write_full`
    /// consumes the write script. An exhausted script passes through.
    pub struct FlakyDriver<D> {
        inner: D,
        reads: Mutex<std::collections::VecDeque<FlakyOutcome>>,
        writes: Mutex<std::collections::VecDeque<FlakyOutcome>>,
        outage: Arc<AtomicBool>,
    }

    impl<D: StorageDriver> FlakyDriver<D> {
        /// Wrap `inner` with empty scripts and the outage switch off.
        #[must_use]
        pub fn new(inner: D) -> Self {
            Self {
                inner,
                reads: Mutex::new(std::collections::VecDeque::new()),
                writes: Mutex::new(std::collections::VecDeque::new()),
                outage: Arc::new(AtomicBool::new(false)),
            }
        }

        /// Append outcomes to the read script.
        pub fn script_reads(&self, outcomes: impl IntoIterator<Item = FlakyOutcome>) {
            self.reads.lock().extend(outcomes);
        }

        /// Append outcomes to the write script.
        pub fn script_writes(&self, outcomes: impl IntoIterator<Item = FlakyOutcome>) {
            self.writes.lock().extend(outcomes);
        }

        /// The shared outage switch: while `true`, every data operation fails
        /// with a transient error (a tier-loss window).
        #[must_use]
        pub fn outage_switch(&self) -> Arc<AtomicBool> {
            Arc::clone(&self.outage)
        }

        fn next(
            &self,
            script: &Mutex<std::collections::VecDeque<FlakyOutcome>>,
            what: &str,
        ) -> Result<()> {
            if self.outage.load(Ordering::Acquire) {
                return Err(FlakyOutcome::Transient.into_error(what));
            }
            match script.lock().pop_front() {
                None | Some(FlakyOutcome::Ok) => Ok(()),
                Some(fail) => Err(fail.into_error(what)),
            }
        }
    }

    impl<D: StorageDriver> StorageDriver for FlakyDriver<D> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
            self.next(&self.reads, "read_at")?;
            self.inner.read_at(file, offset, buf)
        }

        fn read_full(&self, file: &str) -> Result<Vec<u8>> {
            self.next(&self.reads, "read_full")?;
            self.inner.read_full(file)
        }

        fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
            self.next(&self.writes, "write_full")?;
            self.inner.write_full(file, data)
        }

        fn remove(&self, file: &str) -> Result<()> {
            self.inner.remove(file)
        }

        fn file_size(&self, file: &str) -> Result<u64> {
            self.inner.file_size(file)
        }

        fn list(&self) -> Result<Vec<(String, u64)>> {
            self.inner.list()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::testing::{FlakyDriver, FlakyOutcome};
    use super::*;

    #[test]
    fn mem_driver_basics() {
        let d = MemDriver::new("m");
        d.insert("a", vec![1, 2, 3, 4, 5]);
        assert_eq!(d.file_size("a").unwrap(), 5);
        let mut buf = [0u8; 3];
        assert_eq!(d.read_at("a", 1, &mut buf).unwrap(), 3);
        assert_eq!(buf, [2, 3, 4]);
        // Read past EOF is a short read.
        assert_eq!(d.read_at("a", 4, &mut buf).unwrap(), 1);
        assert_eq!(d.read_full("a").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(d.list().unwrap(), vec![("a".to_string(), 5)]);
        d.remove("a").unwrap();
        assert!(d.read_full("a").is_err());
    }

    #[test]
    fn posix_driver_roundtrip() {
        let root = std::env::temp_dir().join(format!("monarch-posix-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let d = PosixDriver::new("p", &root).unwrap();
        d.write_full("sub/dir/file.bin", &[9u8; 100]).unwrap();
        assert_eq!(d.file_size("sub/dir/file.bin").unwrap(), 100);
        let mut buf = [0u8; 10];
        assert_eq!(d.read_at("sub/dir/file.bin", 95, &mut buf).unwrap(), 5);
        assert_eq!(d.read_full("sub/dir/file.bin").unwrap().len(), 100);
        let listing = d.list().unwrap();
        assert_eq!(listing, vec![("sub/dir/file.bin".to_string(), 100)]);
        d.remove("sub/dir/file.bin").unwrap();
        assert!(d.file_size("sub/dir/file.bin").is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn posix_write_is_atomic_rename() {
        let root = std::env::temp_dir().join(format!("monarch-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let d = PosixDriver::new("p", &root).unwrap();
        d.write_full("f", b"first").unwrap();
        // Warm the cached handle, then write over it: reads see the new bytes.
        let mut buf = [0u8; 6];
        assert_eq!(d.read_at("f", 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"first");
        d.write_full("f", b"second").unwrap();
        assert_eq!(d.read_full("f").unwrap(), b"second");
        assert_eq!(d.read_at("f", 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"second");
        // No leftover temp files.
        assert_eq!(d.list().unwrap().len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_files_are_not_found_on_every_backend() {
        let root = std::env::temp_dir().join(format!("monarch-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let posix = PosixDriver::new("p", &root).unwrap();
        let mem = MemDriver::new("m");
        for d in [&posix as &dyn StorageDriver, &mem] {
            let mut buf = [0u8; 4];
            // Read the file first, so the POSIX driver holds a warm handle
            // when it is removed.
            d.write_full("gone", b"stale").unwrap();
            assert_eq!(d.read_at("gone", 0, &mut buf).unwrap(), 4);
            d.remove("gone").unwrap();
            let errors = [
                d.read_at("gone", 0, &mut buf).err(),
                d.read_full("gone").err(),
                d.remove("gone").err(),
                d.file_size("gone").err(),
            ];
            for e in errors {
                match e {
                    Some(Error::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{}", d.name());
                    }
                    other => panic!("{}: expected NotFound, got {other:?}", d.name()),
                }
            }
        }
        assert_eq!(posix.cached_handles(), 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn posix_drivers_sharing_a_cache_stay_within_its_cap() {
        let root = std::env::temp_dir().join(format!("monarch-cap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let cache = Arc::new(HandleCache::new(4));
        let pfs = PosixDriver::with_handle_cache("pfs", root.join("pfs"), Arc::clone(&cache));
        let ssd = PosixDriver::with_handle_cache("ssd", root.join("ssd"), Arc::clone(&cache));
        let (pfs, ssd) = (pfs.unwrap(), ssd.unwrap());
        for i in 0..20u8 {
            pfs.write_full(&format!("f{i}"), &[i; 8]).unwrap();
            ssd.write_full(&format!("f{i}"), &[!i; 8]).unwrap();
        }
        let mut buf = [0u8; 8];
        for round in 0..2 {
            for i in 0..20u8 {
                assert_eq!(pfs.read_at(&format!("f{i}"), 0, &mut buf).unwrap(), 8);
                assert_eq!(buf, [i; 8], "round {round}");
                assert_eq!(ssd.read_at(&format!("f{i}"), 0, &mut buf).unwrap(), 8);
                assert_eq!(buf, [!i; 8], "round {round}");
                assert!(cache.len() <= 4, "{} handles", cache.len());
            }
        }
        // Eviction takes from the fuller driver, so neither is starved.
        let (p, s) = (pfs.cached_handles(), ssd.cached_handles());
        assert!(p > 0 && s > 0 && p + s == 4, "{p} + {s} handles");
        drop(pfs);
        assert_eq!(cache.len(), s, "a dropped driver's handles are closed");
        fs::remove_dir_all(&root).unwrap();
    }

    /// Set in the child process of
    /// [`posix_descriptor_exhaustion_sheds_every_drivers_handles`].
    const FD_CHILD: &str = "MONARCH_DRIVER_FD_CHILD";

    /// Runs in a child process with a soft limit of 64 descriptors, so the
    /// tests running beside it keep theirs. One driver fills the shared
    /// cache, the rest of the descriptors are taken, and every kind of
    /// open the other driver makes must still succeed by shedding.
    #[test]
    fn posix_descriptor_exhaustion_sheds_every_drivers_handles() {
        if std::env::var_os(FD_CHILD).is_none() {
            let child = std::process::Command::new("sh")
                .arg("-c")
                .arg(r#"ulimit -n 64 && exec "$0" "$1" --exact --test-threads=1"#)
                .arg(std::env::current_exe().unwrap())
                .arg("driver::tests::posix_descriptor_exhaustion_sheds_every_drivers_handles")
                .env(FD_CHILD, "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&child.stdout);
            assert!(child.status.success(), "child failed:\n{stdout}");
            return;
        }
        assert_eq!(SHARED_HANDLES.cap, 32, "half the soft limit");
        let root = std::env::temp_dir().join(format!("monarch-emfile-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let pfs = PosixDriver::new("pfs", root.join("pfs")).unwrap();
        let ssd = PosixDriver::new("ssd", root.join("ssd")).unwrap();
        for i in 0..40u8 {
            pfs.write_full(&format!("f{i}"), &[i; 8]).unwrap();
        }
        ssd.write_full("x", b"local").unwrap();
        let mut hog = Vec::new();
        // Fill the cache from the PFS driver, then take every free descriptor.
        let exhaust = |hog: &mut Vec<fs::File>| {
            hog.clear();
            let mut buf = [0u8; 8];
            for i in 0..40u8 {
                pfs.read_at(&format!("f{i}"), 0, &mut buf).unwrap();
            }
            assert_eq!(pfs.cached_handles(), 32);
            loop {
                match fs::File::open("/dev/null") {
                    Ok(f) => hog.push(f),
                    Err(e) => break assert_eq!(e.raw_os_error(), Some(EMFILE)),
                }
            }
        };
        let mut buf = [0u8; 5];
        exhaust(&mut hog);
        ssd.write_full("y", b"copied").unwrap();
        assert_eq!(pfs.cached_handles(), 0);
        exhaust(&mut hog);
        assert_eq!(ssd.read_full("y").unwrap(), b"copied");
        exhaust(&mut hog);
        assert_eq!(ssd.list().unwrap().len(), 2);
        exhaust(&mut hog);
        assert_eq!(ssd.read_at("x", 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"local");
        // Pressure the cache cannot relieve still reaches the caller.
        ssd.remove("x").unwrap();
        assert_eq!(SHARED_HANDLES.len(), 0);
        while let Ok(f) = fs::File::open("/dev/null") {
            hog.push(f);
        }
        match ssd.read_at("y", 0, &mut buf) {
            Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(EMFILE)),
            other => panic!("expected EMFILE, got {other:?}"),
        }
        drop(hog);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The miss path run in the bad order: the handle is opened, the file
    /// is removed, and only then does the miss try to cache the handle.
    #[test]
    fn posix_handle_opened_before_remove_is_never_cached() {
        let root = std::env::temp_dir().join(format!("monarch-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let cache = Arc::new(HandleCache::new(16));
        let d = PosixDriver::with_handle_cache("p", &root, Arc::clone(&cache)).unwrap();
        d.write_full("f", b"evicted").unwrap();
        let generation = cache.lookup(d.id, "f").unwrap_err();
        let handle = Arc::new(d.open("f").unwrap());
        d.remove("f").unwrap();
        assert!(!cache.insert(d.id, "f", &handle, generation));
        assert_eq!(d.cached_handles(), 0);
        let mut buf = [0u8; 7];
        match d.read_at("f", 0, &mut buf) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn posix_concurrent_writes_never_share_a_temp_file() {
        let root = std::env::temp_dir().join(format!("monarch-tmpname-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let d = PosixDriver::new("p", &root).unwrap();
        std::thread::scope(|s| {
            for (file, byte) in [("s.a", b'a'), ("s.b", b'b')] {
                let d = &d;
                s.spawn(move || {
                    let data = vec![byte; 4096];
                    let mut buf = vec![0u8; 4096];
                    for _ in 0..200 {
                        d.write_full(file, &data).unwrap();
                        assert_eq!(d.read_full(file).unwrap(), data, "{file}");
                        assert_eq!(d.read_at(file, 0, &mut buf).unwrap(), 4096);
                        assert_eq!(buf, data, "{file}");
                    }
                });
            }
        });
        let names: Vec<_> = d.list().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["s.a", "s.b"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn posix_failed_write_leaves_no_temp_file() {
        let root = std::env::temp_dir().join(format!("monarch-failwrite-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let d = PosixDriver::new("p", &root).unwrap();
        // A non-empty directory where the file should go makes the rename fail.
        d.write_full("x/inner", b"keep").unwrap();
        assert!(d.write_full("x", b"copy").is_err());
        assert_eq!(d.list().unwrap(), vec![("x/inner".to_string(), 4)]);
        let raw: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(raw, ["x"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn flaky_driver_scripts_and_outage() {
        let inner = MemDriver::new("m");
        inner.insert("a", vec![7u8; 4]);
        let d = FlakyDriver::new(inner);
        d.script_reads([
            FlakyOutcome::Transient,
            FlakyOutcome::Ok,
            FlakyOutcome::Permanent,
        ]);
        d.script_writes([FlakyOutcome::Enospc]);
        let mut buf = [0u8; 4];
        // Scripted: transient, then pass, then permanent, then exhausted.
        match d.read_at("a", 0, &mut buf) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected transient error, got {other:?}"),
        }
        assert_eq!(d.read_at("a", 0, &mut buf).unwrap(), 4);
        assert!(d.read_full("a").is_err());
        assert_eq!(d.read_full("a").unwrap().len(), 4);
        match d.write_full("b", &[1]) {
            Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        d.write_full("b", &[1]).unwrap();
        // Outage switch fails every data op until cleared.
        let outage = d.outage_switch();
        outage.store(true, Ordering::Release);
        assert!(d.read_at("a", 0, &mut buf).is_err());
        assert!(d.write_full("c", &[2]).is_err());
        assert!(d.file_size("a").is_ok(), "metadata ops pass through");
        outage.store(false, Ordering::Release);
        assert_eq!(d.read_at("a", 0, &mut buf).unwrap(), 4);
    }

    #[test]
    fn timed_driver_records_latencies() {
        let mem = MemDriver::new("m");
        mem.insert("a", vec![1u8; 64]);
        let reads = Arc::new(LatencyHistogram::new());
        let writes = Arc::new(LatencyHistogram::new());
        let d = TimedDriver::new(Arc::new(mem), Arc::clone(&reads), Arc::clone(&writes));
        let mut buf = [0u8; 16];
        assert_eq!(d.read_at("a", 0, &mut buf).unwrap(), 16);
        assert_eq!(d.read_full("a").unwrap().len(), 64);
        d.write_full("b", &[2u8; 32]).unwrap();
        // Failed operations are timed too.
        assert!(d.read_full("missing").is_err());
        assert_eq!(reads.count(), 3);
        assert_eq!(writes.count(), 1);
        assert_eq!(d.name(), "m");
        // Untimed passthroughs still work.
        assert_eq!(d.file_size("b").unwrap(), 32);
        assert_eq!(d.list().unwrap().len(), 2);
        d.remove("b").unwrap();
    }
}
