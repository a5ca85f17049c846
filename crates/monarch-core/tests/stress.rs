//! Concurrency stress tests: many reader threads hammering the middleware
//! while placements, failures and (for the ablation policy) evictions run
//! underneath. These are the conditions the paper's "all MONARCH modules
//! are thread-safe" claim has to survive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use monarch_core::config::PolicyKind;
use monarch_core::driver::testing::{FlakyDriver, FlakyOutcome};
use monarch_core::driver::{MemDriver, StorageDriver};
use monarch_core::hierarchy::StorageHierarchy;
use monarch_core::HealthConfig;
use monarch_core::MonarchBuilder;

/// Stage `n` files of `size` bytes with deterministic contents.
fn stage(n: usize, size: usize) -> MemDriver {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        let data: Vec<u8> = (0..size).map(|j| ((i * 31 + j) % 251) as u8).collect();
        pfs.insert(&format!("f{i:04}"), data);
    }
    pfs
}

fn hierarchy(pfs: MemDriver, cap: u64) -> StorageHierarchy {
    StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(cap),
        ),
        ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
    ])
    .unwrap()
}

/// Every byte served concurrently is correct, across 8 threads × 3 passes
/// over a partially-fitting dataset.
#[test]
fn concurrent_reads_are_always_correct() {
    const FILES: usize = 40;
    const SIZE: usize = 4096;
    let pfs = stage(FILES, SIZE);
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy(pfs, (FILES as u64 * SIZE as u64) / 2))
            .policy(PolicyKind::FirstFit)
            .pool_threads(4)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    let errors = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..8 {
            let m = Arc::clone(&m);
            let errors = Arc::clone(&errors);
            s.spawn(move || {
                let mut buf = vec![0u8; 1024];
                for pass in 0..3 {
                    for i in 0..FILES {
                        let name = format!("f{i:04}");
                        let offset = ((t * 97 + pass * 13 + i) % (SIZE - 100)) as u64;
                        let n = m.read(&name, offset, &mut buf).unwrap();
                        for (j, &b) in buf[..n].iter().enumerate() {
                            let expect = ((i * 31 + offset as usize + j) % 251) as u8;
                            if b != expect {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "byte corruption under concurrency"
    );
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(
        stats.copies_scheduled,
        stats.copies_completed + stats.placement_skipped
    );
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert!(used <= (FILES as u64 * SIZE as u64) / 2);
}

/// Random write failures during placement never corrupt served data or
/// leak quota; retries eventually converge.
#[test]
fn fault_storm_leaves_state_consistent() {
    const FILES: usize = 24;
    const SIZE: usize = 2048;
    let pfs = stage(FILES, SIZE);
    // Fifteen scripted write failures. The breaker gets no in-place
    // retries and never trips, so each failure ends its copy and a later
    // touch retries it, instead of the SSD being quarantined mid-storm.
    let faulty = FlakyDriver::new(MemDriver::new("ssd"));
    faulty.script_writes([FlakyOutcome::Transient; 15]);
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(faulty) as Arc<dyn StorageDriver>,
            Some(u64::MAX / 2),
        ),
        ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
    ])
    .unwrap();
    hierarchy.health().set_config(HealthConfig {
        retry_max_attempts: 0,
        consecutive_failure_limit: u32::MAX,
        quarantine_threshold: 2.0,
        ..HealthConfig::default()
    });
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy)
            .policy(PolicyKind::FirstFit)
            .pool_threads(3)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    // Several passes so failed placements get retried on later touches.
    for _ in 0..4 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut buf = vec![0u8; SIZE];
                    for i in 0..FILES {
                        let name = format!("f{i:04}");
                        let n = m.read(&name, 0, &mut buf).unwrap();
                        assert_eq!(n, SIZE);
                        assert_eq!(buf[0], ((i * 31) % 251) as u8);
                    }
                });
            }
        });
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert!(
        stats.copies_failed > 0,
        "the fault budget should have fired"
    );
    assert_eq!(
        stats.copies_completed, FILES as u64,
        "every file placed eventually"
    );
    // Quota equals exactly the resident bytes (no leaked reservations).
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert_eq!(used, (FILES * SIZE) as u64);
}

/// LRU churn under concurrency: quota invariant and data correctness hold
/// while files move in and out of the cache tier.
#[test]
fn lru_churn_under_concurrency() {
    const FILES: usize = 30;
    const SIZE: usize = 3000;
    let cap = (FILES as u64 * SIZE as u64) / 4;
    let pfs = stage(FILES, SIZE);
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy(pfs, cap))
            .policy(PolicyKind::LruEvict)
            .pool_threads(3)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    std::thread::scope(|s| {
        for t in 0..6 {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let mut buf = vec![0u8; SIZE];
                for round in 0..5 {
                    for i in 0..FILES {
                        // Skewed access: threads favour different files so
                        // the LRU order churns.
                        let i = (i + t * 5 + round) % FILES;
                        let name = format!("f{i:04}");
                        let n = m.read(&name, 0, &mut buf).unwrap();
                        assert_eq!(n, SIZE);
                        let expect = ((i * 31) % 251) as u8;
                        assert_eq!(buf[0], expect, "file {name} served wrong bytes");
                    }
                }
            });
        }
    });
    m.wait_placement_idle();
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert!(used <= cap, "quota exceeded under churn: {used} > {cap}");
    let stats = m.stats();
    assert!(stats.evictions > 0, "pressure should force evictions");
}

/// prestage racing with concurrent readers: exactly one copy per file.
#[test]
fn prestage_races_with_readers() {
    const FILES: usize = 32;
    const SIZE: usize = 1024;
    let pfs = stage(FILES, SIZE);
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy(pfs, u64::MAX / 2))
            .policy(PolicyKind::FirstFit)
            .pool_threads(4)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    std::thread::scope(|s| {
        {
            let m = Arc::clone(&m);
            s.spawn(move || {
                m.prestage();
            });
        }
        for _ in 0..4 {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let mut buf = vec![0u8; 256];
                for i in 0..FILES {
                    m.read(&format!("f{i:04}"), 0, &mut buf).unwrap();
                }
            });
        }
    });
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(
        stats.copies_scheduled, FILES as u64,
        "dedup: one copy per file despite the race"
    );
    assert_eq!(stats.copies_completed, FILES as u64);
}
