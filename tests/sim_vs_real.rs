//! Cross-substrate validation: the discrete-event simulator and the real
//! thread-based trainer must agree on the *mechanical* quantities that do
//! not depend on timing — chunk-read counts, byte totals, placement
//! outcomes — when driven by the same dataset geometry.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::Monarch;
use monarch::dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use monarch::dlpipe::geometry::{DatasetGeom, ShardGeom};
use monarch::dlpipe::models::ModelProfile;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::dlpipe::sim::SimTrainer;
use monarch::tfrecord::synth::{generate, DatasetSpec};
use monarch::tfrecord::ShardIndex;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-xval-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn tiny_model() -> ModelProfile {
    ModelProfile {
        name: "tiny".into(),
        per_sample_step: 10e-6,
        gpu_fraction: 0.7,
        cpu_per_sample: 10e-6,
        batch_size: 64,
    }
}

/// Measure the on-disk dataset into a simulator geometry.
fn geometry_of(dir: &PathBuf) -> DatasetGeom {
    let mut shards: Vec<(String, ShardGeom)> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| {
            let bytes = e.metadata().unwrap().len();
            let idx = ShardIndex::build(std::io::BufReader::new(fs::File::open(e.path()).unwrap()))
                .unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                ShardGeom {
                    bytes,
                    records: idx.len() as u64,
                },
            )
        })
        .collect();
    shards.sort_by(|a, b| a.0.cmp(&b.0));
    DatasetGeom::from_shards("measured", shards.into_iter().map(|(_, s)| s).collect())
}

#[test]
fn chunk_read_counts_agree_between_sim_and_real() {
    let root = tmp("counts");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 128, 51);
    generate(&spec, &data).unwrap();
    let geom = geometry_of(&data);
    let chunk = 16u64 << 10;

    // Real: vanilla pass over the directory.
    let real = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        PipelineConfig {
            readers: 4,
            chunk_bytes: chunk,
            prefetch_batches: 2,
            seed: 9,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
    )
    .unwrap()
    .run_epoch(0)
    .unwrap();

    // Sim: vanilla-lustre over the measured geometry.
    let sim = SimTrainer::new(
        Setup::VanillaLustre,
        geom.clone(),
        tiny_model(),
        PipelineConfig {
            readers: 4,
            chunk_bytes: chunk,
            prefetch_batches: 2,
            seed: 9,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
        EnvConfig::default(),
    )
    .run(1);

    assert_eq!(real.chunk_reads, geom.chunk_reads_per_epoch(chunk));
    assert_eq!(
        sim.epochs[0].devices[sim.pfs_device].reads(),
        real.chunk_reads,
        "sim and real must issue identical chunk counts"
    );
    assert_eq!(
        sim.epochs[0].devices[sim.pfs_device].bytes_read(),
        real.bytes
    );
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn monarch_placement_outcomes_agree_between_sim_and_real() {
    let root = tmp("placement");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 128, 77);
    let ds = generate(&spec, &data).unwrap();
    let geom = geometry_of(&data);
    // Half-fit quota.
    let quota = ds.total_bytes / 2;

    // Real middleware, three epochs.
    let cfg = MonarchConfig::builder()
        .tier(
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(quota),
        )
        .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
        .pool_threads(4)
        .build();
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    let trainer = RealTrainer::new(
        RealBackend::Monarch(Arc::clone(&m)),
        &data,
        PipelineConfig {
            readers: 4,
            chunk_bytes: 16 << 10,
            prefetch_batches: 2,
            seed: 4,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    for e in 0..3 {
        trainer.run_epoch(e).unwrap();
        m.wait_placement_idle();
    }
    let real_placed = m.stats().copies_completed;
    let real_skipped = m.stats().placement_skipped;
    let real_used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();

    // Simulated middleware over the measured geometry, same quota.
    let sim = SimTrainer::new(
        Setup::Monarch(MonarchSimConfig::with_ssd_capacity(quota)),
        geom.clone(),
        tiny_model(),
        PipelineConfig {
            readers: 4,
            chunk_bytes: 16 << 10,
            prefetch_batches: 2,
            seed: 4,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
        EnvConfig::default(),
    )
    .run(3);
    let sim_placed_bytes: u64 = sim
        .epochs
        .iter()
        .map(|e| e.devices[0].bytes_written())
        .sum();

    // Placement outcomes: both fill the quota to within one shard (the
    // shuffle order differs, so the exact shard set may differ).
    let max_shard = geom.shards.iter().map(|s| s.bytes).max().unwrap();
    assert!(
        real_used + max_shard >= quota,
        "real middleware left quota unfilled: {real_used} of {quota}"
    );
    assert!(
        sim_placed_bytes + max_shard >= quota && sim_placed_bytes <= quota,
        "sim placement out of range: {sim_placed_bytes} of {quota}"
    );
    assert!(real_placed > 0 && real_skipped > 0);
    fs::remove_dir_all(&root).unwrap();
}

/// `(family, label keys)` of every gauge in a snapshot.
fn gauge_families(
    gauges: &[monarch::core::GaugeSnapshot],
) -> std::collections::BTreeSet<(String, Vec<String>)> {
    gauges
        .iter()
        .map(|g| {
            let mut keys: Vec<String> = g.labels.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            (g.name.clone(), keys)
        })
        .collect()
}

#[test]
fn sim_and_real_export_the_same_gauge_families() {
    use monarch::core::driver::MemDriver;
    use monarch::core::prefetch::{AccessPlan, PrefetchConfig};
    use monarch::core::{MonarchBuilder, StorageDriver, StorageHierarchy};

    // Real: one capped SSD over a PFS, prefetch on, one planned read.
    let pfs = MemDriver::new("pfs");
    for i in 0..4 {
        pfs.insert(&format!("f{i}"), vec![i as u8; 256]);
    }
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(1 << 20),
        ),
        ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .prefetch(PrefetchConfig {
            lookahead: 2,
            max_inflight_bytes: 0,
        })
        .build()
        .unwrap();
    m.init().unwrap();
    m.submit_plan(&AccessPlan::new(vec!["f0".into(), "f1".into()]));
    let mut buf = [0u8; 64];
    m.read("f0", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let real_gauges = m.telemetry_snapshot().gauges;
    let real = gauge_families(&real_gauges);

    // Sim: the same layout (one capped SSD over the PFS), prefetch on.
    let geom = DatasetGeom::miniature("gauges", 4096, 7);
    let report = SimTrainer::new(
        Setup::Monarch(MonarchSimConfig::with_prefetch(4)),
        geom,
        tiny_model(),
        PipelineConfig::default().with_seed(3),
        EnvConfig::default(),
    )
    .run(1);
    let sim_gauges = report.telemetry.expect("sim telemetry").gauges;
    let sim = gauge_families(&sim_gauges);

    assert!(real.contains(&("monarch_prefetch_inflight_copies".into(), vec![])));
    assert_eq!(sim, real, "sim and real gauge families differ");
    // Tier names differ between the two layouts; the lanes do not.
    let lanes = |gauges: &[monarch::core::GaugeSnapshot]| -> Vec<String> {
        let lane = gauges
            .iter()
            .flat_map(|g| &g.labels)
            .filter(|(k, _)| k == "lane");
        lane.map(|(_, v)| v.clone()).collect()
    };
    assert_eq!(lanes(&sim_gauges), lanes(&real_gauges));
}
