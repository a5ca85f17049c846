//! The simulator leg of each workload: `dlpipe::sim` on that workload's
//! scenario at a larger virtual scale, repeated with one seed. Its
//! virtual outputs must repeat bit for bit; its wall time is the metric.
//! Repetitions are spread over the whole run (see `Pacer` in `main.rs`),
//! so they sample the same machine conditions as the real leg.

use std::time::{Duration, Instant};

use dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::report::RunReport;
use dlpipe::sim::SimTrainer;
use monarch_core::config::PolicyKind;

use crate::Workload;

/// Virtual dataset: 512 shards of 256 records of ≈100 KB (≈13 GB).
const SIM_SAMPLES: u64 = 512 * 256;
const SIM_RECORDS_PER_SHARD: u64 = 256;
const SIM_SAMPLE_BYTES: u64 = 100_000;
/// Fewest repetitions, so the determinism check always compares runs.
const MIN_REPS: usize = 3;

/// The scenario simulated for `w`.
fn scenario(w: Workload, geom: &DatasetGeom) -> (MonarchSimConfig, EnvConfig, usize) {
    match w {
        // Prestaged dataset, then two epochs served locally.
        Workload::HotSmallReads => (
            MonarchSimConfig {
                prestage: true,
                ..MonarchSimConfig::paper_default()
            },
            EnvConfig::default(),
            2,
        ),
        // The paper default: cold epoch, then a warm one.
        Workload::ColdEpoch => (MonarchSimConfig::paper_default(), EnvConfig::default(), 2),
        // Congested PFS, fast tier at 50% of the dataset, lru, 3 epochs.
        Workload::PartialCacheLru => (
            MonarchSimConfig {
                policy: PolicyKind::LruEvict,
                ..MonarchSimConfig::with_ssd_capacity(geom.total_bytes() / 2)
            },
            EnvConfig::congested_pfs(),
            3,
        ),
    }
}

/// What the sim leg measured.
pub struct SimOut {
    pub reps: usize,
    /// Wall time of the fastest repetition: every repetition does the same
    /// deterministic work, so the fastest is the one the shared host
    /// disturbed least.
    pub wall_s: f64,
    pub virtual_total_s: f64,
    pub pfs_bytes: u64,
    /// Every repetition produced the same virtual outputs.
    pub deterministic: bool,
}

/// The virtual outputs that must repeat exactly.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut f = vec![
        r.total_seconds().to_bits(),
        r.prestage_seconds.to_bits(),
        r.pfs_ops(),
    ];
    for e in &r.epochs {
        f.push(e.seconds.to_bits());
        f.extend(e.devices.iter().map(|d| d.bytes_read()));
    }
    if let Some(t) = &r.telemetry {
        let s = &t.stats;
        f.extend([
            s.copies_completed,
            s.evictions,
            s.placement_skipped,
            s.local_reads(),
        ]);
    }
    f
}

/// The simulator leg: one scenario, run again and again with one seed.
pub struct Leg {
    geom: DatasetGeom,
    cfg: MonarchSimConfig,
    env: EnvConfig,
    epochs: usize,
    seed: u64,
    walls: Vec<f64>,
    first: Option<(Vec<u64>, f64, u64)>,
    deterministic: bool,
}

impl Leg {
    pub fn new(w: Workload, seed: u64) -> Self {
        let geom = DatasetGeom::synth(
            "perfbench",
            SIM_SAMPLES,
            SIM_SAMPLE_BYTES,
            0.25,
            SIM_RECORDS_PER_SHARD,
            seed,
        );
        let (cfg, env, epochs) = scenario(w, &geom);
        Self {
            geom,
            cfg,
            env,
            epochs,
            seed,
            walls: Vec::new(),
            first: None,
            deterministic: true,
        }
    }

    /// One timed simulator run; returns its wall time.
    pub fn rep(&mut self) -> Duration {
        let t = Instant::now();
        let report = SimTrainer::new(
            Setup::Monarch(self.cfg.clone()),
            self.geom.clone(),
            ModelProfile::lenet(),
            PipelineConfig::default().with_seed(self.seed),
            self.env.clone(),
        )
        .run(self.epochs);
        let wall = t.elapsed();
        self.walls.push(wall.as_secs_f64());
        let fp = fingerprint(&report);
        match &self.first {
            None => {
                let pfs = report
                    .epochs
                    .iter()
                    .map(|e| e.devices[report.pfs_device].bytes_read())
                    .sum();
                self.first = Some((fp, report.total_seconds(), pfs));
            }
            Some((f, _, _)) => self.deterministic &= *f == fp,
        }
        wall
    }

    /// Summary; runs the leg until it has at least [`MIN_REPS`] runs.
    pub fn finish(mut self) -> SimOut {
        while self.walls.len() < MIN_REPS {
            self.rep();
        }
        let (_, virtual_total_s, pfs_bytes) = self.first.expect("at least one sim run");
        SimOut {
            reps: self.walls.len(),
            wall_s: self.walls.iter().copied().fold(f64::INFINITY, f64::min),
            virtual_total_s,
            pfs_bytes,
            deterministic: self.deterministic,
        }
    }
}
