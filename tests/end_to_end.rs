//! Cross-crate integration: a real TFRecord dataset on disk, streamed by
//! the real pipeline through the real middleware — epoch by epoch — with
//! byte-level verification against the generator.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use monarch::core::config::{MonarchConfig, PolicyKind, TierConfig};
use monarch::core::Monarch;
use monarch::dlpipe::config::PipelineConfig;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::tfrecord::synth::{generate, parse_sample_header, DatasetSpec};
use monarch::tfrecord::RecordReader;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        readers: 4,
        chunk_bytes: 16 << 10,
        prefetch_batches: 2,
        seed: 5,
        trace_interval_secs: None,
        ..PipelineConfig::default()
    }
}

/// Read every record of every shard through MONARCH and verify each
/// sample's embedded id/label header.
#[test]
fn records_decode_correctly_through_monarch() {
    let root = tmp("decode");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 128, 77);
    let ds = generate(&spec, &data).unwrap();

    let cfg = MonarchConfig::builder()
        .tier(
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
        )
        .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
        .pool_threads(4)
        .build();
    let m = Monarch::new(cfg).unwrap();
    m.init().unwrap();

    for pass in 0..2 {
        let mut ids = Vec::new();
        for shard in &ds.shards {
            let name = shard.file_name().unwrap().to_string_lossy();
            let bytes = m.read_full(&name).unwrap();
            let mut r = RecordReader::new(std::io::Cursor::new(&bytes));
            while let Some(rec) = r.next_record_ref().unwrap() {
                let (id, label) = parse_sample_header(rec).unwrap();
                assert_eq!(label, id % 1000);
                ids.push(id);
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..128).collect::<Vec<u64>>(), "pass {pass}");
        m.wait_placement_idle();
    }
    // Second pass came from the SSD tier.
    let stats = m.stats();
    assert!(stats.copies_completed > 0);
    assert!(stats.tiers[0].reads > 0);
    fs::remove_dir_all(&root).unwrap();
}

/// The three real setups deliver identical data (fingerprint equality) and
/// MONARCH's PFS traffic drops after the first epoch.
#[test]
fn setups_agree_and_pfs_traffic_drops() {
    let root = tmp("agree");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 192, 13);
    let ds = generate(&spec, &data).unwrap();

    let direct = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap();
    let baseline = direct.run_epoch(0).unwrap();

    let cfg = MonarchConfig::builder()
        .tier(
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
        )
        .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
        .pool_threads(6)
        .build();
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    let monarch_t =
        RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();

    // Epoch 1 triggers placement; drain it before epochs 2-3 so the
    // local-tier handoff is deterministic (on a loaded machine three tiny
    // epochs can otherwise outrun the copy pool entirely).
    let mut epochs = vec![monarch_t.run_epoch(0).unwrap()];
    m.wait_placement_idle();
    epochs.extend(monarch_t.run(2).unwrap());
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.fingerprint, baseline.fingerprint, "epoch {i} fingerprint");
        assert_eq!(e.bytes, baseline.bytes, "epoch {i} bytes");
    }
    m.wait_placement_idle();
    let stats = m.stats();
    // Across 3 epochs the local tier must dominate: at most one epoch's
    // worth of chunks (plus background fetches) hit the PFS.
    assert!(
        stats.tiers[0].reads > stats.tiers[1].reads,
        "local should dominate over 3 epochs: {stats:?}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// Partial fit on disk: quota is respected, no evictions, skipped files
/// stay on the PFS, and every byte is still correct.
#[test]
fn partial_fit_respects_quota_without_eviction() {
    let root = tmp("partial");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 256, 29);
    let ds = generate(&spec, &data).unwrap();
    let quota = ds.total_bytes * 2 / 5;

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
    let t = RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();

    let baseline = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap()
    .run_epoch(0)
    .unwrap();

    for epoch in 0..3 {
        let e = t.run_epoch(epoch).unwrap();
        assert_eq!(e.fingerprint, baseline.fingerprint, "epoch {epoch}");
        m.wait_placement_idle();
        let used = m
            .hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used();
        assert!(used <= quota, "quota exceeded: {used} > {quota}");
    }
    let stats = m.stats();
    assert_eq!(stats.evictions, 0);
    assert!(
        stats.placement_skipped > 0,
        "some files must be left behind"
    );
    assert!(stats.copies_completed > 0, "some files must be placed");
    // On-disk usage of the cache dir also respects the quota.
    let cache_bytes: u64 = fs::read_dir(root.join("ssd"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum();
    assert!(
        cache_bytes <= quota,
        "on-disk {cache_bytes} > quota {quota}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// LRU-eviction ablation policy on a real hierarchy: middleware keeps
/// serving correct bytes while files churn in and out of the cache tier.
#[test]
fn lru_ablation_serves_correct_bytes_under_churn() {
    let root = tmp("lru");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 96, 31);
    let ds = generate(&spec, &data).unwrap();

    let cfg = MonarchConfig::builder()
        .tier(
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes / 3),
        )
        .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
        .pool_threads(2)
        .policy(PolicyKind::LruEvict)
        .build();
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    let t = RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();

    let baseline = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap()
    .run_epoch(0)
    .unwrap();

    for epoch in 0..3 {
        let e = t.run_epoch(epoch).unwrap();
        assert_eq!(e.fingerprint, baseline.fingerprint, "epoch {epoch}");
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert!(
        stats.evictions > 0,
        "LRU under pressure must evict: {stats:?}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// Ephemerality (§III-A metadata container): a fresh middleware instance
/// over the same directories starts from a clean namespace — nothing from
/// the previous job leaks, and pre-existing cache-tier files are simply
/// overwritten on the next placement.
#[test]
fn namespace_is_ephemeral_across_instances() {
    let root = tmp("ephemeral");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(512 << 10, 48, 41);
    let ds = generate(&spec, &data).unwrap();
    let mk = || {
        let cfg = MonarchConfig::builder()
            .tier(
                TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                    .with_capacity(ds.total_bytes),
            )
            .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
            .pool_threads(2)
            .build();
        let m = Monarch::new(cfg).unwrap();
        m.init().unwrap();
        m
    };

    let m1 = mk();
    let name = ds.shards[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .to_string();
    let bytes1 = m1.read_full(&name).unwrap();
    m1.wait_placement_idle();
    assert_eq!(m1.metadata().get(&name).unwrap().tier, 0);
    drop(m1.shutdown());

    // Second job: namespace starts over; the file is "on the PFS" again.
    let m2 = mk();
    let info = m2.metadata().get(&name).unwrap();
    assert_eq!(info.tier, 1, "fresh instance must not remember placements");
    assert_eq!(info.reads, 0);
    let bytes2 = m2.read_full(&name).unwrap();
    assert_eq!(bytes1, bytes2);
    // Drain the placement that read scheduled before deleting its target.
    drop(m2.shutdown());
    fs::remove_dir_all(&root).unwrap();
}
