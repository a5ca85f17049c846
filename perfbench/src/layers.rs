//! Per-layer timing from outside the middleware.
//!
//! [`TimingDriver`] wraps each tier's driver before the hierarchy is
//! built, so it sits below the middleware (and below its own telemetry
//! wrapper): time inside it is device time, everything else inside
//! `Monarch::read` is middleware self time. Spans and per-op aggregates go
//! to a per-thread log that is merged into a global list when the thread
//! exits (or on [`collect`] for the calling thread), so recording takes no
//! shared lock on the I/O path.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use monarch_core::{Result, StorageDriver};

use crate::util::LatHist;

/// Tier labels, in the index order the logs use.
pub const TIERS: [&str; 3] = ["ram", "ssd", "pfs"];

/// Driver operation classes.
#[derive(Clone, Copy)]
pub enum Op {
    Read = 0,
    Write = 1,
    Remove = 2,
    Meta = 3,
}

const SPAN_NAMES: [[&str; 4]; 3] = [
    [
        "driver.ram.read",
        "driver.ram.write",
        "driver.ram.remove",
        "driver.ram.meta",
    ],
    [
        "driver.ssd.read",
        "driver.ssd.write",
        "driver.ssd.remove",
        "driver.ssd.meta",
    ],
    [
        "driver.pfs.read",
        "driver.pfs.write",
        "driver.pfs.remove",
        "driver.pfs.meta",
    ],
];

/// Span name of a foreground read.
pub const READ_SPAN: &str = "Monarch::read";

/// Spans kept per thread for the Chrome trace and the self-time table;
/// aggregates keep counting past it.
const SPAN_CAP: usize = 5_000;
/// Spans written to the Chrome trace, shared evenly across threads.
const TRACE_FILE_SPANS: usize = 100_000;

/// One recorded interval. `aux` carries the driver time a read
/// accumulated online (read spans only).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub aux: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Count, bytes and busy time of one op class on one tier.
#[derive(Clone, Copy, Default)]
pub struct OpAgg {
    pub ops: u64,
    /// Ops issued by foreground reader threads.
    pub fg_ops: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

/// Everything one thread recorded.
#[derive(Default)]
pub struct ThreadLog {
    pub tid: u64,
    pub name: String,
    pub spans: Vec<Span>,
    pub ops: [[OpAgg; 4]; 3],
    pub read_lat: [LatHist; 3],
}

impl ThreadLog {
    fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.ops.iter().flatten().all(|a| a.ops == 0)
    }
}

/// Thread-local holder whose destructor hands the log to [`FINISHED`].
struct LogSlot(RefCell<ThreadLog>);

impl Drop for LogSlot {
    fn drop(&mut self) {
        let log = std::mem::take(self.0.get_mut());
        if !log.is_empty() {
            if let Ok(mut done) = FINISHED.lock() {
                done.push(log);
            }
        }
    }
}

static FINISHED: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static T0: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOG: LogSlot = LogSlot(RefCell::new(ThreadLog {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        name: std::thread::current().name().unwrap_or("worker").to_string(),
        ..ThreadLog::default()
    }));
    static READ_DRIVER_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process's trace origin.
pub fn ns(at: Instant) -> u64 {
    let t0 = *T0.get_or_init(Instant::now);
    at.saturating_duration_since(t0).as_nanos() as u64
}

/// Record a span on the calling thread.
pub fn span(name: &'static str, start: Instant, end: Instant, aux: u64) {
    LOG.with(|slot| {
        let mut log = slot.0.borrow_mut();
        if log.spans.len() < SPAN_CAP {
            log.spans.push(Span {
                name,
                start_ns: ns(start),
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
                aux,
            });
        }
    });
}

/// Start a foreground read: zero the calling thread's in-read driver time.
pub fn read_begin() {
    READ_DRIVER_NS.with(|c| c.set(0));
}

/// Driver time the calling thread spent since [`read_begin`].
pub fn read_driver_ns() -> u64 {
    READ_DRIVER_NS.with(Cell::get)
}

fn record_op(tier: usize, op: Op, bytes: u64, start: Instant, end: Instant) {
    let d = end.saturating_duration_since(start).as_nanos() as u64;
    READ_DRIVER_NS.with(|c| c.set(c.get() + d));
    LOG.with(|slot| {
        let mut log = slot.0.borrow_mut();
        let agg = &mut log.ops[tier][op as usize];
        agg.ops += 1;
        agg.fg_ops += u64::from(crate::throttle::is_foreground());
        agg.bytes += bytes;
        agg.busy_ns += d;
        if matches!(op, Op::Read) {
            log.read_lat[tier].record(d);
        }
        if log.spans.len() < SPAN_CAP {
            log.spans.push(Span {
                name: SPAN_NAMES[tier][op as usize],
                start_ns: ns(start),
                dur_ns: d,
                aux: 0,
            });
        }
    });
}

/// Hand the calling thread's log to the finished list now (a scoped
/// thread's exit is not ordered before its scope ends).
pub fn flush_thread() {
    let mine = LOG.with(|slot| {
        let mut log = slot.0.borrow_mut();
        let keep = ThreadLog {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: log.name.clone(),
            ..ThreadLog::default()
        };
        std::mem::replace(&mut *log, keep)
    });
    if !mine.is_empty() {
        FINISHED.lock().expect("trace log lock poisoned").push(mine);
    }
}

/// Take every finished thread's log plus the calling thread's.
pub fn collect() -> Vec<ThreadLog> {
    flush_thread();
    std::mem::take(&mut *FINISHED.lock().expect("trace log lock poisoned"))
}

/// Per-shard residency bookkeeping for the copy-path metrics: first
/// foreground read → first local install, and whether each installed copy
/// was read locally before it was removed.
pub struct Residency {
    first_read_ns: Vec<AtomicU64>,
    resident_ns: Vec<AtomicU64>,
    /// 0 = no local copy, 1 = installed and unread, 2 = read locally.
    state: Vec<AtomicU8>,
    installs: AtomicU64,
    useful: AtomicU64,
}

impl Residency {
    pub fn new(shards: usize) -> Self {
        Self {
            first_read_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            resident_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            state: (0..shards).map(|_| AtomicU8::new(0)).collect(),
            installs: AtomicU64::new(0),
            useful: AtomicU64::new(0),
        }
    }

    /// A foreground reader is about to read `shard`.
    pub fn note_read(&self, shard: usize, at: Instant) {
        let _ = self.first_read_ns[shard].compare_exchange(
            0,
            ns(at).max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    fn installed(&self, shard: usize, at: Instant) {
        self.installs.fetch_add(1, Ordering::Relaxed);
        self.state[shard].store(1, Ordering::Relaxed);
        if self.first_read_ns[shard].load(Ordering::Relaxed) != 0 {
            let _ = self.resident_ns[shard].compare_exchange(
                0,
                ns(at).max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    fn read_locally(&self, shard: usize) {
        if self.state[shard]
            .compare_exchange(1, 2, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.useful.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn removed(&self, shard: usize) {
        self.state[shard].store(0, Ordering::Relaxed);
    }

    /// First read → resident, ms, for every shard that got both.
    pub fn time_to_resident_ms(&self) -> Vec<f64> {
        self.first_read_ns
            .iter()
            .zip(&self.resident_ns)
            .filter_map(|(r, w)| {
                let (r, w) = (r.load(Ordering::Relaxed), w.load(Ordering::Relaxed));
                (r != 0 && w >= r).then(|| (w - r) as f64 / 1e6)
            })
            .collect()
    }

    /// `(installs, installs read locally before removal)`.
    pub fn copies(&self) -> (u64, u64) {
        (
            self.installs.load(Ordering::Relaxed),
            self.useful.load(Ordering::Relaxed),
        )
    }
}

/// Shard index of a dataset file name (`train-00042.tfrecord` → 42).
fn shard_index(file: &str) -> Option<usize> {
    file.strip_prefix("train-")?
        .strip_suffix(".tfrecord")?
        .parse()
        .ok()
}

/// A tier driver that times every call into it.
pub struct TimingDriver {
    inner: Arc<dyn StorageDriver>,
    tier: usize,
    residency: Option<Arc<Residency>>,
}

impl TimingDriver {
    /// Wrap `inner` as tier `tier` (an index into [`TIERS`]). Local tiers
    /// pass the residency tracker; the PFS passes `None`.
    pub fn wrap(
        inner: Arc<dyn StorageDriver>,
        tier: usize,
        residency: Option<Arc<Residency>>,
    ) -> Arc<dyn StorageDriver> {
        Arc::new(Self {
            inner,
            tier,
            residency,
        })
    }

    fn track(&self, file: &str, f: impl FnOnce(&Residency, usize)) {
        if let (Some(r), Some(i)) = (&self.residency, shard_index(file)) {
            f(r, i);
        }
    }
}

impl StorageDriver for TimingDriver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let start = Instant::now();
        let r = self.inner.read_at(file, offset, buf);
        let end = Instant::now();
        let n = r.as_ref().map_or(0, |n| *n as u64);
        record_op(self.tier, Op::Read, n, start, end);
        if r.is_ok() {
            self.track(file, Residency::read_locally);
        }
        r
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let start = Instant::now();
        let r = self.inner.read_full(file);
        let end = Instant::now();
        let n = r.as_ref().map_or(0, |d| d.len() as u64);
        record_op(self.tier, Op::Read, n, start, end);
        if r.is_ok() {
            self.track(file, Residency::read_locally);
        }
        r
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        let start = Instant::now();
        let r = self.inner.write_full(file, data);
        let end = Instant::now();
        record_op(self.tier, Op::Write, data.len() as u64, start, end);
        if r.is_ok() {
            self.track(file, |res, i| res.installed(i, end));
        }
        r
    }

    fn remove(&self, file: &str) -> Result<()> {
        let start = Instant::now();
        let r = self.inner.remove(file);
        record_op(self.tier, Op::Remove, 0, start, Instant::now());
        if r.is_ok() {
            self.track(file, Residency::removed);
        }
        r
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        let start = Instant::now();
        let r = self.inner.file_size(file);
        record_op(self.tier, Op::Meta, 0, start, Instant::now());
        r
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        let start = Instant::now();
        let r = self.inner.list();
        record_op(self.tier, Op::Meta, 0, start, Instant::now());
        r
    }
}

/// Totals over a set of thread logs.
pub struct Summary {
    pub ops: [[OpAgg; 4]; 3],
    pub read_p50_us: [f64; 3],
    /// Largest per-thread |online − interval| driver time inside reads, as
    /// a share of that thread's read wall time.
    pub self_sum_error: f64,
    /// Driver spans on reader threads that fall outside every read span.
    pub orphan_driver_spans: u64,
}

impl Summary {
    pub fn of(logs: &mut [ThreadLog]) -> Self {
        let mut ops = [[OpAgg::default(); 4]; 3];
        let mut lat: [LatHist; 3] = Default::default();
        let mut self_sum_error = 0.0f64;
        let mut orphan_driver_spans = 0;
        for log in logs.iter_mut() {
            for (tier, row) in log.ops.iter().enumerate() {
                for (op, agg) in row.iter().enumerate() {
                    ops[tier][op].ops += agg.ops;
                    ops[tier][op].fg_ops += agg.fg_ops;
                    ops[tier][op].bytes += agg.bytes;
                    ops[tier][op].busy_ns += agg.busy_ns;
                }
                lat[tier].merge(&log.read_lat[tier]);
            }
            let (err, orphans) = reader_consistency(&mut log.spans);
            self_sum_error = self_sum_error.max(err);
            orphan_driver_spans += orphans;
        }
        let read_p50_us = [0, 1, 2].map(|t| lat[t].quantile(0.5) / 1e3);
        Self {
            ops,
            read_p50_us,
            self_sum_error,
            orphan_driver_spans,
        }
    }
}

/// On a reader thread, check that the driver time each read accumulated
/// online matches the union of the driver spans nested inside it, so
/// that middleware self time plus driver time sums to read wall time.
/// Returns `(|Σ online − Σ nested| / Σ read wall, driver spans outside
/// any read)`; threads without read spans return `(0, 0)`. Spans after
/// the last kept read are ignored: the span cap can cut a read between
/// its driver spans and its read span.
fn reader_consistency(spans: &mut [Span]) -> (f64, u64) {
    let Some(kept_until) = spans
        .iter()
        .filter(|s| s.name == READ_SPAN)
        .map(Span::end_ns)
        .max()
    else {
        return (0.0, 0);
    };
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
    let (mut wall, mut online, mut nested, mut orphans) = (0u64, 0u64, 0u64, 0u64);
    let mut cur: Option<Span> = None;
    let mut covered_to = 0u64;
    for s in spans.iter() {
        if s.name == READ_SPAN {
            wall += s.dur_ns;
            online += s.aux;
            cur = Some(*s);
            covered_to = s.start_ns;
        } else if s.name.starts_with("driver.") && s.start_ns < kept_until {
            match cur {
                Some(r) if s.start_ns >= r.start_ns && s.end_ns() <= r.end_ns() => {
                    let from = s.start_ns.max(covered_to);
                    nested += s.end_ns().saturating_sub(from);
                    covered_to = covered_to.max(s.end_ns());
                }
                _ => orphans += 1,
            }
        }
    }
    if wall == 0 {
        return (0.0, orphans);
    }
    (online.abs_diff(nested) as f64 / wall as f64, orphans)
}

/// Write the Chrome-trace JSON and the per-layer self-time table.
pub fn write_outputs(dir: &Path, logs: &[ThreadLog]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut trace = std::io::BufWriter::new(std::fs::File::create(dir.join("trace.json"))?);
    trace.write_all(b"{\"traceEvents\":[\n")?;
    let per_log = TRACE_FILE_SPANS / logs.len().max(1);
    let mut first = true;
    for log in logs {
        let sep = if first { "" } else { ",\n" };
        first = false;
        write!(
            trace,
            "{sep}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            log.tid,
            log.name.replace('"', "'")
        )?;
        for s in log.spans.iter().take(per_log) {
            write!(
                trace,
                ",\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                log.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
    }
    trace.write_all(b"\n]}\n")?;
    // Sync both files so their write-back does not land in a later run.
    trace.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    let mut table = std::fs::File::create(dir.join("selftime.txt"))?;
    table.write_all(self_time_table(logs).as_bytes())?;
    table.sync_all()
}

/// Per-layer calls, wall and self time over the kept spans: a span's self
/// time is its duration minus the part its nested spans cover.
pub fn self_time_table(logs: &[ThreadLog]) -> String {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for log in logs {
        let mut spans = log.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // Stack of (span, child time) for the open ancestors.
        let mut stack: Vec<(Span, u64)> = Vec::new();
        let close = |stack: &mut Vec<(Span, u64)>, rows: &mut Vec<_>| {
            let (s, child) = stack.pop().expect("non-empty stack");
            if let Some(parent) = stack.last_mut() {
                parent.1 += s.dur_ns;
            }
            let self_ns = s.dur_ns.saturating_sub(child);
            match rows
                .iter_mut()
                .find(|r: &&mut (&str, u64, u64, u64)| r.0 == s.name)
            {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns;
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.dur_ns, self_ns)),
            }
        };
        for s in spans {
            while stack
                .last()
                .is_some_and(|(top, _)| s.start_ns >= top.end_ns())
            {
                close(&mut stack, &mut rows);
            }
            stack.push((s, 0));
        }
        while !stack.is_empty() {
            close(&mut stack, &mut rows);
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# per-layer self time over the kept spans (at most {SPAN_CAP} per thread)"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>12}",
        "layer", "calls", "wall_ms", "self_ms"
    );
    for (name, calls, wall, self_ns) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12.3} {:>12.3}",
            name,
            calls,
            wall as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, dur: u64, aux: u64) -> Span {
        Span {
            name,
            start_ns: start,
            dur_ns: dur,
            aux,
        }
    }

    #[test]
    fn nested_driver_time_matches_online_time() {
        let mut spans = vec![
            sp(READ_SPAN, 0, 100, 60),
            sp("driver.ssd.read", 20, 60, 0),
            sp(READ_SPAN, 200, 50, 10),
            sp("driver.pfs.read", 210, 10, 0),
        ];
        let (err, orphans) = reader_consistency(&mut spans);
        assert_eq!(orphans, 0);
        assert!(err < 1e-12);
        let mut stray = vec![
            sp(READ_SPAN, 0, 10, 0),
            sp("driver.ssd.read", 12, 2, 0),
            sp(READ_SPAN, 20, 10, 0),
        ];
        assert_eq!(reader_consistency(&mut stray).1, 1);
        // A read cut by the span cap after its driver span is not an orphan.
        let mut cut = vec![sp(READ_SPAN, 0, 10, 0), sp("driver.ssd.read", 20, 5, 0)];
        assert_eq!(reader_consistency(&mut cut).1, 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let log = ThreadLog {
            spans: vec![sp(READ_SPAN, 0, 100, 0), sp("driver.ssd.read", 10, 70, 0)],
            ..ThreadLog::default()
        };
        let table = self_time_table(&[log]);
        let read_row = table.lines().find(|l| l.starts_with(READ_SPAN)).unwrap();
        assert!(read_row.trim_end().ends_with("0.000"), "{read_row}");
    }

    #[test]
    fn shard_names_parse() {
        assert_eq!(shard_index("train-00042.tfrecord"), Some(42));
        assert_eq!(shard_index("other"), None);
    }
}
