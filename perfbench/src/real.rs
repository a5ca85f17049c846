//! The real-path legs: a `Monarch` over a POSIX (and RAM) cache in front
//! of the throttled PFS, driven by closed-loop reader threads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use monarch_core::config::{PolicyKind, TelemetryConfig};
use monarch_core::driver::{MemDriver, PosixDriver};
use monarch_core::stats::StatsSnapshot;
use monarch_core::{Monarch, MonarchBuilder, Result, StorageDriver, StorageHierarchy};

use crate::dataset::Dataset;
use crate::layers::{self, Residency, TimingDriver};
use crate::throttle::{mark_foreground, Link, LinkCounters, ThrottledDriver};
use crate::util::{nanos, LatHist, Rng};

/// Chunk size of an epoch read (TensorFlow's ~256 KiB `pread`s).
pub const CHUNK: usize = 256 << 10;
/// Size of a hot-workload read.
pub const SMALL_READ: usize = 4 << 10;
/// Closed-loop reader threads.
pub const READERS: usize = 2;

/// Tier layout of a workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One POSIX SSD tier twice the dataset size; first_fit, no eviction.
    RoomySsd,
    /// RAM tier and POSIX SSD tier, each ¼ of the dataset; lru eviction.
    PartialLru,
}

/// The working directory of one run: the PFS dataset and fresh cache
/// directories for every instance.
pub struct Bed {
    root: PathBuf,
    pub pfs_dir: PathBuf,
    pub ds: Dataset,
    next_dir: AtomicUsize,
}

impl Bed {
    pub fn new(root: &Path, samples: u64, shard_bytes: u64, seed: u64) -> std::io::Result<Self> {
        let pfs_dir = root.join("pfs");
        let ds = Dataset::generate(&pfs_dir, samples, shard_bytes, seed)?;
        Ok(Self {
            root: root.to_path_buf(),
            pfs_dir,
            ds,
            next_dir: AtomicUsize::new(0),
        })
    }

    fn fresh_dir(&self) -> PathBuf {
        let i = self.next_dir.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("ssd-{i}"))
    }
}

/// One assembled middleware instance.
pub struct Instance {
    pub m: Monarch,
    pub link: Arc<Link>,
    /// Present on traced instances.
    pub residency: Option<Arc<Residency>>,
    ssd_dir: PathBuf,
    pub setup_s: f64,
    pub init_s: f64,
    pub init_files: u64,
    pub prestage_s: f64,
}

/// What an instance left behind at teardown.
pub struct Teardown {
    pub stats: StatsSnapshot,
    pub link: LinkCounters,
    pub queue_wait_p50_ms: f64,
    pub max_error_ewma: f64,
}

impl Instance {
    /// `MonarchBuilder::build` + `init` (+ `prestage` and
    /// `wait_placement_idle` when `prestage`), timed as set-up.
    pub fn build(
        bed: &Bed,
        shape: Shape,
        prestage: bool,
        traced: bool,
        telemetry: TelemetryConfig,
    ) -> Result<Self> {
        let start = Instant::now();
        let link = Link::pfs();
        let residency = traced.then(|| Arc::new(Residency::new(bed.ds.shards())));
        let wrap = |d: Arc<dyn StorageDriver>, tier: usize| -> Arc<dyn StorageDriver> {
            if traced {
                TimingDriver::wrap(d, tier, (tier < 2).then(|| residency.clone()).flatten())
            } else {
                d
            }
        };
        let ssd_dir = bed.fresh_dir();
        let ssd: Arc<dyn StorageDriver> = Arc::new(PosixDriver::new("ssd", &ssd_dir)?);
        let pfs: Arc<dyn StorageDriver> = Arc::new(ThrottledDriver::new(
            "pfs",
            &bed.pfs_dir,
            Arc::clone(&link),
        )?);
        let d = bed.ds.total_bytes;
        let (mut levels, policy) = match shape {
            Shape::RoomySsd => (
                vec![("ssd".to_string(), wrap(ssd, 1), Some(2 * d))],
                PolicyKind::FirstFit,
            ),
            Shape::PartialLru => (
                vec![
                    (
                        "ram".to_string(),
                        wrap(Arc::new(MemDriver::new("ram")), 0),
                        Some(d / 4),
                    ),
                    ("ssd".to_string(), wrap(ssd, 1), Some(d / 4)),
                ],
                PolicyKind::LruEvict,
            ),
        };
        levels.push(("pfs".to_string(), wrap(pfs, 2), None));
        let m = MonarchBuilder::new()
            .hierarchy(StorageHierarchy::new(levels)?)
            .policy(policy)
            .telemetry(telemetry)
            .build()?;
        let t_init = Instant::now();
        let report = m.init()?;
        let t_init_end = Instant::now();
        if traced {
            layers::span("Monarch::init", t_init, t_init_end, 0);
        }
        let mut prestage_s = 0.0;
        if prestage {
            let t = Instant::now();
            m.prestage();
            m.wait_placement_idle();
            let end = Instant::now();
            if traced {
                layers::span("Monarch::prestage", t, end, 0);
            }
            prestage_s = (end - t).as_secs_f64();
        }
        Ok(Self {
            m,
            link,
            residency,
            ssd_dir,
            setup_s: start.elapsed().as_secs_f64(),
            init_s: (t_init_end - t_init).as_secs_f64(),
            init_files: report.files,
            prestage_s,
        })
    }

    /// Copies scheduled but not yet finished, failed, skipped or requeued.
    pub fn copy_backlog(&self) -> u64 {
        let s = self.m.stats();
        s.copies_scheduled.saturating_sub(
            s.copies_completed
                + s.copies_failed
                + s.placement_skipped
                + s.copy_requeues
                + s.copies_deadline_expired,
        )
    }

    /// Median ns per `MetadataContainer::lookup_for_read`, over batches of
    /// 64 lookups sweeping the namespace.
    pub fn lookup_sweep(&self, names: &[String], budget: Duration) -> f64 {
        let md = self.m.metadata();
        let start = Instant::now();
        let mut per_lookup = Vec::new();
        let mut i = 0usize;
        while per_lookup.len() < 100 || start.elapsed() < budget {
            let t = Instant::now();
            for _ in 0..64 {
                let info = md
                    .lookup_for_read(&names[i % names.len()])
                    .expect("every dataset file is in the namespace");
                std::hint::black_box(info);
                i += 1;
            }
            let end = Instant::now();
            layers::span("MetadataContainer::lookup_for_read", t, end, 0);
            per_lookup.push((end - t).as_nanos() as f64 / 64.0);
        }
        crate::util::median(&per_lookup)
    }

    /// Shut down, remove the cache directory, and report the counters.
    pub fn teardown(self) -> Teardown {
        let telemetry = self.m.telemetry_snapshot();
        let max_error_ewma = self
            .m
            .hierarchy()
            .health()
            .snapshot()
            .tiers
            .iter()
            .map(|t| t.error_ewma)
            .fold(0.0, f64::max);
        let stats = self.m.shutdown();
        let _ = std::fs::remove_dir_all(&self.ssd_dir);
        Teardown {
            stats,
            link: self.link.counters(),
            queue_wait_p50_ms: telemetry.queue_wait.p50_nanos as f64 / 1e6,
            max_error_ewma,
        }
    }
}

/// One reader thread's record of a phase.
#[derive(Default)]
pub struct ReadLog {
    /// `Monarch::read` wall times.
    pub lat: LatHist,
    /// Read wall minus in-driver time (traced instances only).
    pub self_t: LatHist,
    pub attempted: u64,
    pub errors: u64,
    pub misverified: u64,
    pub bytes: u64,
    pub verify_ns: u64,
    pub wall_ns: u64,
    /// Hot reads: the instant each pass of this thread ended.
    pass_ends: Vec<Instant>,
}

impl ReadLog {
    pub fn merge(logs: Vec<ReadLog>) -> ReadLog {
        let mut all = ReadLog::default();
        for l in logs {
            all.lat.merge(&l.lat);
            all.self_t.merge(&l.self_t);
            all.attempted += l.attempted;
            all.errors += l.errors;
            all.misverified += l.misverified;
            all.bytes += l.bytes;
            all.verify_ns += l.verify_ns;
            all.wall_ns += l.wall_ns;
        }
        all
    }
}

/// Issue one timed `Monarch::read`; traced instances also record the read
/// span and its self time.
fn timed_read(
    inst: &Instance,
    file: &str,
    offset: u64,
    buf: &mut [u8],
    log: &mut ReadLog,
) -> (Result<usize>, Instant) {
    let traced = inst.residency.is_some();
    if traced {
        layers::read_begin();
    }
    let t0 = Instant::now();
    let r = inst.m.read(file, offset, buf);
    let t1 = Instant::now();
    let wall = nanos(t1 - t0);
    log.attempted += 1;
    log.lat.record(wall);
    if traced {
        let drv = layers::read_driver_ns();
        layers::span(layers::READ_SPAN, t0, t1, drv);
        log.self_t.record(wall.saturating_sub(drv));
    }
    (r, t1)
}

/// One epoch: `readers` threads stream the shards of `order` in
/// [`CHUNK`] reads, then decode and verify each shard. Returns the epoch
/// wall time and the merged read log.
pub fn epoch(inst: &Instance, ds: &Dataset, order: &[usize], readers: usize) -> (f64, ReadLog) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<ReadLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    mark_foreground();
                    let t_start = Instant::now();
                    let mut log = ReadLog::default();
                    let mut buf = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&shard) = order.get(i) else { break };
                        read_shard(inst, ds, shard, &mut buf, &mut log);
                    }
                    log.wall_ns = t_start.elapsed().as_nanos() as u64;
                    layers::flush_thread();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    (start.elapsed().as_secs_f64(), ReadLog::merge(logs))
}

fn read_shard(inst: &Instance, ds: &Dataset, shard: usize, buf: &mut Vec<u8>, log: &mut ReadLog) {
    let size = ds.sizes[shard] as usize;
    buf.resize(size, 0);
    if let Some(r) = &inst.residency {
        r.note_read(shard, Instant::now());
    }
    let name = &ds.names[shard];
    let mut off = 0;
    while off < size {
        let end = (off + CHUNK).min(size);
        let (r, _) = timed_read(inst, name, off as u64, &mut buf[off..end], log);
        match r {
            Ok(n) if n == end - off => off = end,
            Ok(n) => {
                eprintln!("short read: {name} @{off}: {n} of {} bytes", end - off);
                log.misverified += 1;
                return;
            }
            Err(e) => {
                eprintln!("read error: {name} @{off}: {e}");
                log.errors += 1;
                return;
            }
        }
    }
    log.bytes += size as u64;
    let t = Instant::now();
    if !ds.verify_shard(shard, buf) {
        eprintln!("shard {name} failed verification");
        log.misverified += size.div_ceil(CHUNK) as u64;
    }
    log.verify_ns += t.elapsed().as_nanos() as u64;
}

/// When a hot-read phase stops.
pub enum Until {
    /// After this many passes (each pass = dataset bytes in small reads).
    Passes(usize),
    /// At this instant (the pass in progress is dropped from pass times).
    Deadline(Instant),
}

/// Hot phase: `readers` threads issue uniform-random [`SMALL_READ`] reads
/// (random shard, random aligned offset) and compare each against the
/// dataset copy in memory. Returns the phase wall time, the merged log,
/// and the duration of every pass both threads completed.
pub fn hot_reads(
    inst: &Instance,
    ds: &Dataset,
    mem: &[Vec<u8>],
    readers: usize,
    until: &Until,
    seed: u64,
) -> (f64, ReadLog, Vec<f64>) {
    let per_pass = (ds.total_bytes as usize / SMALL_READ).div_ceil(readers);
    let start = Instant::now();
    let logs: Vec<ReadLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|t| {
                s.spawn(move || {
                    mark_foreground();
                    let mut rng = Rng::new(seed ^ ((t as u64 + 1) << 40));
                    let mut log = ReadLog::default();
                    let mut buf = vec![0u8; SMALL_READ];
                    let n = ds.shards() as u64;
                    let t_start = Instant::now();
                    'run: loop {
                        for _ in 0..per_pass {
                            let shard = rng.below(n) as usize;
                            let blocks = (ds.sizes[shard] as usize / SMALL_READ).max(1);
                            let off = rng.below(blocks as u64) as usize * SMALL_READ;
                            let want = SMALL_READ.min(ds.sizes[shard] as usize - off);
                            let (r, t1) = timed_read(
                                inst,
                                &ds.names[shard],
                                off as u64,
                                &mut buf[..want],
                                &mut log,
                            );
                            match r {
                                Ok(got)
                                    if got == want
                                        && buf[..want] == mem[shard][off..off + want] =>
                                {
                                    log.bytes += want as u64;
                                }
                                Ok(_) => {
                                    eprintln!(
                                        "hot read of {} @{off} mis-verified",
                                        ds.names[shard]
                                    );
                                    log.misverified += 1;
                                }
                                Err(e) => {
                                    eprintln!("hot read error: {} @{off}: {e}", ds.names[shard]);
                                    log.errors += 1;
                                }
                            }
                            if let Until::Deadline(d) = until {
                                if t1 >= *d {
                                    break 'run;
                                }
                            }
                        }
                        log.pass_ends.push(Instant::now());
                        if let Until::Passes(p) = until {
                            if log.pass_ends.len() >= *p {
                                break;
                            }
                        }
                    }
                    log.wall_ns = t_start.elapsed().as_nanos() as u64;
                    layers::flush_thread();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let passes = logs.iter().map(|l| l.pass_ends.len()).min().unwrap_or(0);
    let mut prev = start;
    let pass_s = (0..passes)
        .map(|p| {
            let end = logs
                .iter()
                .map(|l| l.pass_ends[p])
                .max()
                .expect("readers > 0");
            let d = (end - prev).as_secs_f64();
            prev = end;
            d
        })
        .collect();
    (wall, ReadLog::merge(logs), pass_s)
}

/// The seeded shard order of epoch `epoch` of cycle `cycle`.
pub fn shuffled(shards: usize, seed: u64, cycle: usize, epoch: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards).collect();
    Rng::new(seed ^ ((cycle as u64) << 32) ^ ((epoch as u64) << 16)).shuffle(&mut order);
    order
}
