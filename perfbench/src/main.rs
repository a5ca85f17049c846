//! End-to-end and per-layer benchmark of the MONARCH middleware.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload has a real leg (a `Monarch` over real directories in
//! front of a throttled PFS, driven through its public API by two
//! closed-loop reader threads) and a simulator leg (`dlpipe::sim` on the
//! same scenario). With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it wraps every tier driver with timing, records spans
//! around the calls into each layer, and prints the per-layer metrics.
//! The last stdout line is the JSON result. See `README.md`.

mod dataset;
mod layers;
mod real;
mod sim;
mod throttle;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use monarch_core::config::TelemetryConfig;

use crate::layers::Residency;
use crate::real::{Bed, Instance, ReadLog, Shape, Teardown, Until, READERS};
use crate::sim::SimOut;
use crate::util::{median, quantile, LatHist, Metrics};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotSmallReads,
    ColdEpoch,
    PartialCacheLru,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::HotSmallReads, Self::ColdEpoch, Self::PartialCacheLru];

    fn name(self) -> &'static str {
        match self {
            Self::HotSmallReads => "hot_small_reads",
            Self::ColdEpoch => "cold_epoch",
            Self::PartialCacheLru => "partial_cache_lru",
        }
    }

    /// Dataset geometry: `(samples, shard_bytes)`.
    fn dataset(self) -> (u64, u64) {
        match self {
            // ≈63 MiB in ≈320 shards of ≤256 KiB.
            Self::HotSmallReads => (576, 256 << 10),
            // ≈126 MiB in ≈290 shards of ≤512 KiB.
            Self::ColdEpoch | Self::PartialCacheLru => (1152, 512 << 10),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Share of the measuring time given to the simulator leg.
const SIM_SHARE: f64 = 0.2;
/// Set-up-only instances built before each epoch cycle (set-up takes a few
/// ms there, so it gets extra samples spread over the run).
const SETUPS_PER_CYCLE: usize = 2;
/// Hot workload: instances set up (each followed by one timed pass).
const HOT_SETUPS: usize = 5;
/// Hot workload: length of one steady-phase slice between simulator steps.
const HOT_SLICE: Duration = Duration::from_secs(1);
/// Hot workload: slices between two extra set-ups.
const HOT_SETUP_EVERY: u64 = 4;

/// Outcome of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Removes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let home = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = WorkDir(home.join("work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    let out_dir = home
        .join("out")
        .join(format!("{}-seed{}", args.workload.name(), args.seed));
    match run(&args, &work.0, &out_dir) {
        Ok(o) => {
            println!(
                "{}",
                util::result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Interleaves simulator repetitions with the real leg, so both sample the
/// same stretch of machine time; the simulator gets [`SIM_SHARE`] of it.
struct Pacer {
    sim: sim::Leg,
    start: Instant,
    real_budget: Duration,
    sim_time: Duration,
}

impl Pacer {
    fn new(w: Workload, seed: u64, seconds: f64) -> Self {
        Self {
            sim: sim::Leg::new(w, seed),
            start: Instant::now(),
            real_budget: Duration::from_secs_f64(seconds * (1.0 - SIM_SHARE)),
            sim_time: Duration::ZERO,
        }
    }

    fn real_elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.sim_time)
    }

    /// Real-leg time left in the run.
    fn real_left(&self) -> Duration {
        self.real_budget.saturating_sub(self.real_elapsed())
    }

    /// Run simulator repetitions until the simulator has had its share of
    /// the time so far.
    fn step(&mut self) {
        let target = self.real_elapsed().mul_f64(SIM_SHARE / (1.0 - SIM_SHARE));
        while self.sim_time < target {
            self.sim_time += self.sim.rep();
        }
    }

    fn finish(mut self) -> SimOut {
        self.step();
        self.sim.finish()
    }
}

fn run(args: &Args, work: &Path, out_dir: &Path) -> AnyResult<Outcome> {
    let (samples, shard_bytes) = args.workload.dataset();
    let t_gen = Instant::now();
    let bed = Bed::new(work, samples, shard_bytes, args.seed)?;
    eprintln!(
        "{}: seed {} dataset {:.1} MiB in {} shards (generated in {:.2}s); available_parallelism {}",
        args.workload.name(),
        args.seed,
        bed.ds.total_bytes as f64 / 1048576.0,
        bed.ds.shards(),
        t_gen.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let check_files: Vec<String> = bed.ds.names.iter().take(48).cloned().collect();
    let selfcheck = throttle::self_check(&bed.pfs_dir, &check_files)?;
    let throttle_ok = (0.5..=1.05).contains(&selfcheck);
    if !throttle_ok {
        eprintln!("throttle self-check failed: measured/configured rate = {selfcheck:.3}");
    }

    let mut pacer = Pacer::new(args.workload, args.seed, args.seconds);
    let real = match args.workload {
        Workload::HotSmallReads if args.trace => hot_traced(&bed, args.seed, &mut pacer)?,
        Workload::HotSmallReads => hot(&bed, args.seed, &mut pacer)?,
        Workload::ColdEpoch => epochs(&bed, Shape::RoomySsd, 2, args, &mut pacer)?,
        Workload::PartialCacheLru => epochs(&bed, Shape::PartialLru, 4, args, &mut pacer)?,
    };
    let sim = pacer.finish();
    eprintln!(
        "sim leg: {} runs, fastest {:.4}s, virtual {:.3}s, deterministic {}",
        sim.reps, sim.wall_s, sim.virtual_total_s, sim.deterministic
    );

    let Real { mut metrics, log } = real;
    let failed = log.errors + log.misverified;
    let mut correct = log.misverified == 0 && throttle_ok && sim.deterministic;
    if !sim.deterministic {
        eprintln!("simulator outputs differed between runs with the same seed");
    }
    if args.trace {
        metrics.put("driver.pfs.selfcheck_rate_ratio", selfcheck, "ratio");
        metrics.put("sim.virtual_total_s", sim.virtual_total_s, "s");
        metrics.put("sim.pfs_bytes", sim.pfs_bytes as f64, "bytes");
        metrics.put(
            "sim.virtual_s_per_wall_s",
            sim.virtual_total_s / sim.wall_s,
            "ratio",
        );
        metrics.put(
            "health.failed_read_frac",
            failed as f64 / log.attempted.max(1) as f64,
            "ratio",
        );
        let mut logs = layers::collect();
        layers::write_outputs(out_dir, &logs)?;
        let summary = layers::Summary::of(&mut logs);
        put_driver_metrics(&mut metrics, &summary);
        metrics.put(
            "trace.self_sum_error_share",
            summary.self_sum_error,
            "ratio",
        );
        eprintln!(
            "trace: wrote {} (self-time sum error {:.5}, orphan driver spans {})",
            out_dir.display(),
            summary.self_sum_error,
            summary.orphan_driver_spans
        );
        if summary.self_sum_error > 0.01 || summary.orphan_driver_spans > 0 {
            eprintln!("traced run: middleware self + driver time does not sum to read wall time");
            correct = false;
        }
    } else {
        metrics.put("sim_wall_s", sim.wall_s, "s");
        metrics.put("peak_rss_mib", util::peak_rss_mib()?, "MiB");
    }
    Ok(Outcome {
        correct,
        attempted: log.attempted,
        failed,
        metrics,
    })
}

/// What a real leg hands back: its metrics and every read it issued.
struct Real {
    metrics: Metrics,
    log: ReadLog,
}

/// Middleware self-time metrics of a traced phase.
fn put_self_time(m: &mut Metrics, log: &ReadLog) {
    m.put(
        "middleware.read_self_p50_us",
        log.self_t.quantile(0.5) / 1e3,
        "us",
    );
    m.put(
        "middleware.read_self_share",
        log.self_t.sum_ns() as f64 / log.lat.sum_ns().max(1) as f64,
        "ratio",
    );
}

/// `hot_small_reads`, untraced. One instance serves [`HOT_SLICE`]s of
/// random reads until the run's real-leg time is used; every
/// [`HOT_SETUP_EVERY`] slices another instance is set up, given its first
/// pass and torn down, so the [`HOT_SETUPS`] set-up samples spread over
/// the run. Throughput and latency are medians over slices, which keeps
/// a short slow stretch of the host from moving them.
fn hot(bed: &Bed, seed: u64, pacer: &mut Pacer) -> AnyResult<Real> {
    let mem = load_dataset(bed)?;
    let mut logs = Vec::new();
    let mut su = HotSetups::default();
    let inst = su.add(bed, &mem, seed, &mut logs)?;
    let (mut rates, mut p50s, mut p99s, mut warm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut slice = 0u64;
    while slice == 0 || pacer.real_left() > Duration::ZERO {
        let until = Until::Deadline(Instant::now() + HOT_SLICE.min(pacer.real_left()));
        let s = seed ^ (slice + 1) << 40;
        let (wall, log, passes) = real::hot_reads(&inst, &bed.ds, &mem, READERS, &until, s);
        rates.push(log.attempted as f64 / wall);
        p50s.push(log.lat.quantile(0.5) / 1e3);
        p99s.push(log.lat.quantile(0.99) / 1e3);
        warm.extend(passes);
        logs.push(log);
        slice += 1;
        if slice.is_multiple_of(HOT_SETUP_EVERY) && su.setup_s.len() < HOT_SETUPS {
            su.add(bed, &mem, seed, &mut logs)?.teardown();
        }
        pacer.step();
    }
    while su.setup_s.len() < HOT_SETUPS {
        su.add(bed, &mem, seed, &mut logs)?.teardown();
    }
    inst.teardown();
    let log = ReadLog::merge(logs);
    let mut m = Metrics::default();
    m.put("setup_s", median(&su.setup_s), "s");
    m.put("reads_per_s", median(&rates), "1/s");
    m.put("read_p50_us", median(&p50s), "us");
    m.put("read_p99_us", median(&p99s), "us");
    m.put("cold_epoch_s", median(&su.first_pass_s), "s");
    m.put("warm_epoch_s", median(&warm), "s");
    m.put(
        "pfs_bytes_per_user_byte",
        su.pfs_bytes as f64 / su.first_pass_bytes.max(1) as f64,
        "ratio",
    );
    eprintln!(
        "hot: {} setups, {slice} slices, {} warm passes, {} reads; median slice {:.0} reads/s, p50 {:.2}us, p99 {:.2}us",
        su.setup_s.len(),
        warm.len(),
        log.attempted,
        median(&rates),
        median(&p50s),
        median(&p99s),
    );
    Ok(Real { metrics: m, log })
}

/// Set-up samples of the hot workload.
#[derive(Default)]
struct HotSetups {
    setup_s: Vec<f64>,
    first_pass_s: Vec<f64>,
    /// Link bytes of every set-up instance (its prestage).
    pfs_bytes: u64,
    /// Bytes the first passes delivered.
    first_pass_bytes: u64,
}

impl HotSetups {
    /// Set up one prestaged instance and time its first pass.
    fn add(
        &mut self,
        bed: &Bed,
        mem: &[Vec<u8>],
        seed: u64,
        logs: &mut Vec<ReadLog>,
    ) -> AnyResult<Instance> {
        let inst = Instance::build(
            bed,
            Shape::RoomySsd,
            true,
            false,
            TelemetryConfig::default(),
        )?;
        self.setup_s.push(inst.setup_s);
        let s = seed ^ (self.setup_s.len() as u64) << 32;
        let (_, log, pass) = real::hot_reads(&inst, &bed.ds, mem, READERS, &Until::Passes(1), s);
        self.pfs_bytes += inst.link.counters().total_bytes();
        self.first_pass_bytes += log.bytes;
        self.first_pass_s.extend(pass);
        logs.push(log);
        Ok(inst)
    }
}

/// The dataset's bytes, for checking hot reads.
fn load_dataset(bed: &Bed) -> std::io::Result<Vec<Vec<u8>>> {
    bed.ds
        .names
        .iter()
        .map(|n| std::fs::read(bed.pfs_dir.join(n)))
        .collect()
}

/// `hot_small_reads`, traced: three prestaged instances — default
/// telemetry (A), telemetry disabled (B), default telemetry with timed
/// drivers (C) — serve rotations of four slices: A and B at two readers
/// give the telemetry cost, C at two and at one reader gives the
/// middleware self time and its 2-vs-1 ratio, and C against A gives the
/// tracing overhead.
fn hot_traced(bed: &Bed, seed: u64, pacer: &mut Pacer) -> AnyResult<Real> {
    let mem = load_dataset(bed)?;
    let a = Instance::build(
        bed,
        Shape::RoomySsd,
        true,
        false,
        TelemetryConfig::default(),
    )?;
    let b = Instance::build(
        bed,
        Shape::RoomySsd,
        true,
        false,
        TelemetryConfig::disabled(),
    )?;
    let c = Instance::build(bed, Shape::RoomySsd, true, true, TelemetryConfig::default())?;
    let backlog = c.copy_backlog();
    let mut logs: [Vec<ReadLog>; 4] = Default::default();
    let mut rotation = 0u64;
    while rotation == 0 || pacer.real_left() > Duration::ZERO {
        let slice = (HOT_SLICE / 2).min(pacer.real_left() / 4);
        for (k, (inst, readers)) in [(&a, READERS), (&b, READERS), (&c, READERS), (&c, 1)]
            .into_iter()
            .enumerate()
        {
            let until = Until::Deadline(Instant::now() + slice);
            let s = seed ^ (rotation * 4 + k as u64 + 1) << 40;
            let (_, log, _) = real::hot_reads(inst, &bed.ds, &mem, readers, &until, s);
            logs[k].push(log);
        }
        pacer.step();
        rotation += 1;
    }
    let [la, lb, lc2, lc1] = logs.map(ReadLog::merge);
    let p50_a = la.lat.quantile(0.5);
    let p50_b = lb.lat.quantile(0.5);
    let p50_c = lc2.lat.quantile(0.5);
    let self2 = lc2.self_t.quantile(0.5);
    let self1 = lc1.self_t.quantile(0.5);
    let mut m = Metrics::default();
    put_self_time(&mut m, &lc2);
    m.put(
        "middleware.read_self_2v1_ratio",
        self2 / self1.max(1.0),
        "ratio",
    );
    m.put(
        "metadata.lookup_p50_ns",
        c.lookup_sweep(&bed.ds.names, Duration::from_millis(100)),
        "ns",
    );
    m.put("telemetry.read_overhead_us", (p50_a - p50_b) / 1e3, "us");
    m.put(
        "trace.overhead_share",
        p50_c / p50_a.max(1.0) - 1.0,
        "ratio",
    );
    m.put("middleware.init_s", c.init_s, "s");
    m.put("middleware.init_files", c.init_files as f64, "count");
    m.put("transfer.prestage_s", c.prestage_s, "s");
    m.put("transfer.backlog_at_epoch_end", backlog as f64, "count");
    eprintln!(
        "hot traced: {rotation} rotations; p50 default {p50_a:.0}ns, telemetry off {p50_b:.0}ns, \
         traced {p50_c:.0}ns; self p50 2 readers {self2:.0}ns, 1 reader {self1:.0}ns"
    );
    let residency = c.residency.clone().expect("traced instance");
    let tc = c.teardown();
    a.teardown();
    b.teardown();
    let log = ReadLog::merge(vec![la, lb, lc2, lc1]);
    m.put(
        "harness.verify_share",
        memcmp_cost_ns(&mem) * log.attempted as f64 / (log.wall_ns as f64).max(1.0),
        "ratio",
    );
    put_instance_metrics(&mut m, &[tc], &[residency]);
    Ok(Real { metrics: m, log })
}

/// Cost of one hot-read check (a 4 KiB compare against memory), ns.
fn memcmp_cost_ns(mem: &[Vec<u8>]) -> f64 {
    let a = &mem[0][..real::SMALL_READ.min(mem[0].len())];
    let b = a.to_vec();
    let reps = 100_000;
    let t = Instant::now();
    let mut same = 0u32;
    for _ in 0..reps {
        same += u32::from(std::hint::black_box(a) == std::hint::black_box(&b[..]));
    }
    assert_eq!(same, reps);
    t.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// `cold_epoch` and `partial_cache_lru`: cycles of set-up, `epochs`
/// shuffled epochs back to back, and teardown, until the run's real-leg
/// time is used. A traced run alternates untraced and traced cycles.
fn epochs(
    bed: &Bed,
    shape: Shape,
    epochs: usize,
    args: &Args,
    pacer: &mut Pacer,
) -> AnyResult<Real> {
    // On cold_epoch epoch 1 reads the PFS and epoch 2 is all local hits,
    // so pooling both would put the median between the two latency modes;
    // its read latencies are those of the warm epoch (the cold one is
    // timed whole by cold_epoch_s). partial_cache_lru pools all epochs.
    let latency_from = if shape == Shape::RoomySsd { 1 } else { 0 };
    let mut latency_reads = 0;
    let mut setups = Vec::new();
    let (mut first, mut warm) = (Vec::new(), Vec::new());
    let (mut cycle_walls_plain, mut cycle_walls_traced) = (Vec::new(), Vec::new());
    let (mut plain, mut traced_log) = (ReadLog::default(), ReadLog::default());
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut teardowns, mut residencies, mut backlogs, mut lookups, mut inits) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut pfs_bytes, mut user_bytes, mut epoch_wall, mut reads) = (0u64, 0u64, 0.0, 0u64);
    let min_cycles = if args.trace { 2 } else { 1 };
    let mut cycle = 0usize;
    let mut last_cycle = Duration::ZERO;
    while cycle < min_cycles || pacer.real_left() > last_cycle {
        let t_cycle = Instant::now();
        for _ in 0..SETUPS_PER_CYCLE {
            let inst = Instance::build(bed, shape, false, false, TelemetryConfig::default())?;
            setups.push(inst.setup_s);
            inst.teardown();
        }
        let traced = args.trace && cycle % 2 == 1;
        let inst = Instance::build(bed, shape, false, traced, TelemetryConfig::default())?;
        if !traced {
            setups.push(inst.setup_s);
        }
        let mut walls = Vec::with_capacity(epochs);
        let mut latency = LatHist::default();
        for e in 0..epochs {
            let order = real::shuffled(bed.ds.shards(), args.seed, cycle, e);
            let (wall, log) = real::epoch(&inst, &bed.ds, &order, READERS);
            if e == 0 && traced {
                backlogs.push(inst.copy_backlog() as f64);
            }
            walls.push(wall);
            user_bytes += log.bytes;
            reads += log.attempted;
            if e >= latency_from {
                latency.merge(&log.lat);
            }
            let into = if traced { &mut traced_log } else { &mut plain };
            *into = ReadLog::merge(vec![std::mem::take(into), log]);
        }
        epoch_wall += walls.iter().sum::<f64>();
        first.push(walls[0]);
        warm.push(walls[1..].iter().sum::<f64>() / (epochs - 1) as f64);
        let total: f64 = walls.iter().sum();
        if traced {
            cycle_walls_traced.push(total);
            lookups.push(inst.lookup_sweep(&bed.ds.names, Duration::from_millis(50)));
            inits.push((inst.init_s, inst.init_files));
            residencies.push(inst.residency.clone().expect("traced instance"));
        } else {
            cycle_walls_plain.push(total);
            latency_reads = latency.count();
            p50s.push(latency.quantile(0.5) / 1e3);
            p99s.push(latency.quantile(0.99) / 1e3);
        }
        let td = inst.teardown();
        pfs_bytes += td.link.total_bytes();
        if traced {
            teardowns.push(td);
        }
        eprintln!(
            "cycle {cycle}{}: epochs {:?}, read p50 {:.0}us p99 {:.0}us",
            if traced { " (traced)" } else { "" },
            walls
                .iter()
                .map(|w| (w * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            latency.quantile(0.5) / 1e3,
            latency.quantile(0.99) / 1e3,
        );
        last_cycle = t_cycle.elapsed();
        pacer.step();
        cycle += 1;
    }
    let mut m = Metrics::default();
    if args.trace {
        put_self_time(&mut m, &traced_log);
        m.put("middleware.read_self_2v1_ratio", 0.0, "ratio");
        m.put("metadata.lookup_p50_ns", median(&lookups), "ns");
        m.put("telemetry.read_overhead_us", 0.0, "us");
        m.put(
            "trace.overhead_share",
            median(&cycle_walls_traced) / median(&cycle_walls_plain) - 1.0,
            "ratio",
        );
        let init_s: Vec<f64> = inits.iter().map(|i| i.0).collect();
        m.put("middleware.init_s", median(&init_s), "s");
        m.put(
            "middleware.init_files",
            inits.first().map_or(0, |i| i.1) as f64,
            "count",
        );
        m.put("transfer.prestage_s", 0.0, "s");
        m.put("transfer.backlog_at_epoch_end", median(&backlogs), "count");
        m.put(
            "harness.verify_share",
            traced_log.verify_ns as f64 / (traced_log.wall_ns as f64).max(1.0),
            "ratio",
        );
        put_instance_metrics(&mut m, &teardowns, &residencies);
    } else {
        m.put("setup_s", median(&setups), "s");
        m.put("reads_per_s", reads as f64 / epoch_wall, "1/s");
        m.put("read_p50_us", median(&p50s), "us");
        m.put("read_p99_us", median(&p99s), "us");
        m.put("cold_epoch_s", median(&first), "s");
        m.put("warm_epoch_s", median(&warm), "s");
        m.put(
            "pfs_bytes_per_user_byte",
            pfs_bytes as f64 / user_bytes.max(1) as f64,
            "ratio",
        );
        eprintln!(
            "{} setups, {cycle} cycles; cold {:.3}s (IQR {:.3}-{:.3}), warm {:.3}s; \
             per-cycle read p50 {:.0}us, p99 {:.0}us over {} reads each",
            setups.len(),
            median(&first),
            quantile(&first, 0.25),
            quantile(&first, 0.75),
            median(&warm),
            median(&p50s),
            median(&p99s),
            latency_reads,
        );
    }
    Ok(Real {
        metrics: m,
        log: ReadLog::merge(vec![plain, traced_log]),
    })
}

/// Copy-path, policy and health metrics of the traced instances.
fn put_instance_metrics(m: &mut Metrics, tds: &[Teardown], residencies: &[Arc<Residency>]) {
    let sum = |f: &dyn Fn(&Teardown) -> u64| tds.iter().map(f).sum::<u64>() as f64;
    m.put(
        "transfer.copies_completed",
        sum(&|t| t.stats.copies_completed),
        "count",
    );
    m.put(
        "transfer.copies_failed",
        sum(&|t| t.stats.copies_failed),
        "count",
    );
    m.put(
        "transfer.placement_skipped",
        sum(&|t| t.stats.placement_skipped),
        "count",
    );
    let mut ttr = Vec::new();
    let (mut installs, mut useful) = (0u64, 0u64);
    for r in residencies {
        ttr.extend(r.time_to_resident_ms());
        let (i, u) = r.copies();
        installs += i;
        useful += u;
    }
    m.put(
        "transfer.time_to_resident_p50_ms",
        quantile(&ttr, 0.5),
        "ms",
    );
    m.put(
        "transfer.time_to_resident_p99_ms",
        quantile(&ttr, 0.99),
        "ms",
    );
    m.put(
        "transfer.useful_copy_ratio",
        useful as f64 / installs.max(1) as f64,
        "ratio",
    );
    m.put(
        "pool.demand_queue_wait_p50_ms",
        median(&tds.iter().map(|t| t.queue_wait_p50_ms).collect::<Vec<_>>()),
        "ms",
    );
    m.put("policy.evictions", sum(&|t| t.stats.evictions), "count");
    m.put(
        "policy.admission_rejects",
        sum(&|t| t.stats.policy_denials),
        "count",
    );
    m.put(
        "health.read_retries",
        sum(&|t| t.stats.read_retries),
        "count",
    );
    m.put(
        "health.degraded_reads",
        sum(&|t| t.stats.degraded_reads),
        "count",
    );
    m.put(
        "health.quarantines",
        sum(&|t| t.stats.tier_quarantines),
        "count",
    );
    m.put(
        "health.max_error_ewma",
        tds.iter().map(|t| t.max_error_ewma).fold(0.0, f64::max),
        "ratio",
    );
    m.put("driver.pfs.fg_bytes", sum(&|t| t.link.fg_bytes), "bytes");
    m.put("driver.pfs.bg_bytes", sum(&|t| t.link.bg_bytes), "bytes");
    m.put(
        "driver.pfs.throttle_wait_s",
        tds.iter().map(|t| t.link.wait_s).sum(),
        "s",
    );
}

/// Per-tier driver counters from the timing wrappers.
fn put_driver_metrics(m: &mut Metrics, s: &layers::Summary) {
    use layers::Op;
    for (t, tier) in layers::TIERS.iter().enumerate() {
        let ops = &s.ops[t];
        let r = ops[Op::Read as usize];
        let w = ops[Op::Write as usize];
        m.put(format!("driver.{tier}.read_ops"), r.ops as f64, "count");
        m.put(format!("driver.{tier}.read_bytes"), r.bytes as f64, "bytes");
        m.put(
            format!("driver.{tier}.read_busy_s"),
            r.busy_ns as f64 / 1e9,
            "s",
        );
        m.put(format!("driver.{tier}.read_p50_us"), s.read_p50_us[t], "us");
        m.put(format!("driver.{tier}.write_ops"), w.ops as f64, "count");
        m.put(
            format!("driver.{tier}.write_bytes"),
            w.bytes as f64,
            "bytes",
        );
        m.put(
            format!("driver.{tier}.write_busy_s"),
            w.busy_ns as f64 / 1e9,
            "s",
        );
        m.put(
            format!("driver.{tier}.remove_ops"),
            ops[Op::Remove as usize].ops as f64,
            "count",
        );
    }
    let fg = |t: usize| s.ops[t][Op::Read as usize].fg_ops as f64;
    m.put(
        "policy.fast_hit_ratio",
        (fg(0) + fg(1)) / (fg(0) + fg(1) + fg(2)).max(1.0),
        "ratio",
    );
}
