//! Tests for the [`Monarch`](super::Monarch) facade, kept out of
//! `middleware.rs` so the facade itself stays within the size gate.

use super::*;
use crate::config::{AdmissionKind, PolicyKind};
use crate::config::{TelemetryConfig, TierConfig};
use crate::driver::testing::{FlakyDriver, FlakyOutcome};
use crate::driver::{MemDriver, StorageDriver};
use crate::health::HealthConfig;
use crate::policy::{AdmitAll, NoEviction, PlacementScorer, PolicyEngine};

fn two_tier(
    local: Arc<dyn StorageDriver>,
    cap: u64,
    pfs: Arc<dyn StorageDriver>,
) -> StorageHierarchy {
    StorageHierarchy::new(vec![
        ("ssd".into(), local, Some(cap)),
        ("pfs".into(), pfs, None),
    ])
    .unwrap()
}

/// Monarch over two in-memory tiers with `n` files of `size` bytes
/// staged on the "PFS".
fn mem_monarch(local_cap: u64, n: usize, size: usize) -> Monarch {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        pfs.insert(&format!("f{i:03}"), vec![i as u8; size]);
    }
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), local_cap, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    m
}

#[test]
fn builder_requires_a_hierarchy() {
    assert!(matches!(
        MonarchBuilder::new().build(),
        Err(Error::InvalidConfig(_))
    ));
}

#[test]
fn init_scans_namespace() {
    let m = mem_monarch(1 << 20, 5, 100);
    assert_eq!(m.metadata().len(), 5);
    assert_eq!(m.metadata().total_bytes(), 500);
    assert_eq!(m.file_size("f000").unwrap(), 100);
}

#[test]
fn first_read_from_pfs_then_local() {
    let m = mem_monarch(1 << 20, 1, 1000);
    let mut buf = vec![0u8; 100];
    // Partial first read: served by the PFS.
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    m.wait_placement_idle();
    // Placement done: second read must hit the local tier.
    assert_eq!(m.read("f000", 100, &mut buf).unwrap(), 100);
    let stats = m.stats();
    assert_eq!(stats.tiers[0].reads, 1, "second read should be local");
    // PFS saw: the first partial read + the background full fetch.
    assert_eq!(stats.tiers[1].reads, 2);
    assert_eq!(stats.copies_completed, 1);
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
}

#[test]
fn prestage_places_everything_before_any_read() {
    let m = mem_monarch(1 << 20, 5, 200);
    let scheduled = m.prestage();
    assert_eq!(scheduled, 5);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 5);
    // Every file already local: the very first framework read hits
    // tier 0 and the PFS sees only the staging fetches.
    let mut buf = [0u8; 64];
    m.read("f000", 0, &mut buf).unwrap();
    let stats = m.stats();
    assert_eq!(stats.tiers[0].reads, 1);
    assert_eq!(stats.tiers[1].reads, 5, "one staging fetch per file");
    // Idempotent: nothing left to schedule.
    assert_eq!(m.prestage(), 0);
}

#[test]
fn prestage_respects_quota() {
    let m = mem_monarch(450, 4, 200); // room for two files
    m.prestage();
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    assert_eq!(stats.placement_skipped, 2);
    assert_eq!(m.metadata().residency_histogram(2), vec![2, 2]);
}

#[test]
fn without_full_fetch_partial_reads_do_not_place() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![3u8; 1000]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .full_file_fetch(false)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 100];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_scheduled, 0, "partial read must not fetch");
    // A whole-file read still places (inline data, no re-fetch).
    let mut full = vec![0u8; 1000];
    m.read("f", 0, &mut full).unwrap();
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 1);
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
}

#[test]
fn full_read_skips_background_refetch() {
    let m = mem_monarch(1 << 20, 1, 256);
    let mut buf = vec![0u8; 256];
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 256);
    m.wait_placement_idle();
    let stats = m.stats();
    // Only the triggering read touched the PFS (inline data reused).
    assert_eq!(stats.tiers[1].reads, 1);
    assert_eq!(stats.copies_completed, 1);
    assert_eq!(stats.tiers[0].bytes_written, 256);
}

#[test]
fn bytes_are_correct_across_tiers() {
    let m = mem_monarch(1 << 20, 3, 512);
    for i in 0..3 {
        let name = format!("f{i:03}");
        let data = m.read_full(&name).unwrap();
        assert_eq!(data, vec![i as u8; 512]);
    }
    m.wait_placement_idle();
    for i in 0..3 {
        let name = format!("f{i:03}");
        let data = m.read_full(&name).unwrap();
        assert_eq!(data, vec![i as u8; 512], "post-placement bytes must match");
    }
}

#[test]
fn capacity_limits_placement() {
    // Room for 2 of the 4 files only.
    let m = mem_monarch(1200, 4, 500);
    for i in 0..4 {
        let mut buf = [0u8; 16];
        m.read(&format!("f{i:03}"), 0, &mut buf).unwrap();
    }
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    assert_eq!(stats.placement_skipped, 2);
    let hist = m.metadata().residency_histogram(2);
    assert_eq!(hist, vec![2, 2]);
    // Quota reflects exactly the two placed files.
    assert_eq!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used(),
        1000
    );
}

#[test]
fn no_eviction_under_first_fit() {
    let m = mem_monarch(600, 3, 500);
    for i in 0..3 {
        let mut buf = [0u8; 16];
        m.read(&format!("f{i:03}"), 0, &mut buf).unwrap();
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.copies_completed, 1);
}

#[test]
fn reads_past_eof_return_zero() {
    let m = mem_monarch(1 << 20, 1, 100);
    let mut buf = [0u8; 10];
    assert_eq!(m.read("f000", 100, &mut buf).unwrap(), 0);
    assert_eq!(m.read("f000", 1000, &mut buf).unwrap(), 0);
}

#[test]
fn unknown_file_is_an_error() {
    let m = mem_monarch(1 << 20, 1, 100);
    let mut buf = [0u8; 10];
    assert!(matches!(
        m.read("missing", 0, &mut buf),
        Err(Error::UnknownFile(_))
    ));
}

#[test]
fn failed_copy_releases_quota_and_reverts_state() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![7u8; 400]);
    // One scripted write failure. The breaker gets no in-place retries
    // and never trips, so the failure ends the copy (the scenario under
    // test) instead of being retried away or quarantining the SSD.
    let ssd = FlakyDriver::new(MemDriver::new("ssd"));
    ssd.script_writes([FlakyOutcome::Transient]);
    let hierarchy = two_tier(Arc::new(ssd), 1000, Arc::new(pfs));
    hierarchy.health().set_config(HealthConfig {
        retry_max_attempts: 0,
        consecutive_failure_limit: u32::MAX,
        quarantine_threshold: 2.0,
        ..HealthConfig::default()
    });
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 16];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_failed, 1);
    assert_eq!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used(),
        0
    );
    let info = m.metadata().get("f").unwrap();
    assert_eq!(
        info.tier, 1,
        "file must stay on the PFS after a failed copy"
    );
    assert_eq!(info.state, PlacementState::Unplaced);
    // A later read retries and succeeds (fault script exhausted).
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 1);
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
}

#[test]
fn concurrent_readers_single_copy() {
    let m = Arc::new(mem_monarch(1 << 20, 1, 4096));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 256];
                for off in (0..4096).step_by(256) {
                    assert_eq!(m.read("f000", off, &mut buf).unwrap(), 256);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(
        stats.copies_scheduled, 1,
        "dedup: one copy despite 8 readers"
    );
    assert_eq!(stats.copies_completed, 1);
}

#[test]
fn shutdown_rejects_new_reads() {
    let m = mem_monarch(1 << 20, 1, 100);
    let stats = m.shutdown();
    assert_eq!(stats.copies_failed, 0);
}

#[test]
fn evict_frees_the_local_tier_through_the_facade() {
    let m = mem_monarch(1 << 20, 1, 300);
    let mut buf = [0u8; 300];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
    assert!(m.evict("f000").unwrap());
    assert_eq!(m.metadata().get("f000").unwrap().tier, 1);
    assert_eq!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used(),
        0
    );
    assert_eq!(m.stats().evictions, 1);
    // Still readable (from the PFS), and the read re-places it.
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
}

#[test]
fn constructs_from_config_with_mem_backends() {
    let cfg = MonarchConfig::builder()
        .tier(TierConfig::mem("ram").with_capacity(1 << 20))
        .tier(TierConfig::mem("pfs"))
        .pool_threads(2)
        .build();
    let m = Monarch::new(cfg).unwrap();
    assert_eq!(m.pool_threads(), 2);
    assert_eq!(m.hierarchy().levels(), 2);
}

#[test]
fn journal_captures_copy_lifecycle_under_concurrency() {
    // Acceptance: the journal records the full copy lifecycle
    // (scheduled → started → completed) for every file while 8 reader
    // threads hammer the read path concurrently.
    let n_files = 8;
    let m = Arc::new(mem_monarch(1 << 20, n_files, 4096));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 512];
                for i in 0..n_files {
                    let name = format!("f{:03}", (i + t) % n_files);
                    for off in (0..4096).step_by(512) {
                        assert_eq!(m.read(&name, off, &mut buf).unwrap(), 512);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, n_files as u64);
    // All files are local now: this pass is guaranteed to time tier-0
    // reads.
    for i in 0..n_files {
        m.read_full(&format!("f{i:03}")).unwrap();
    }

    let events = m.telemetry().journal().events();
    // Sequence numbers strictly increase across the buffered events.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    for i in 0..n_files {
        let name = format!("f{i:03}");
        let of = |tag: &str| {
            events
                .iter()
                .find(|e| e.kind.tag() == tag && e.kind.file() == name)
                .unwrap_or_else(|| panic!("{tag} event for {name}"))
                .seq
        };
        let (sched, started, decided, done) = (
            of("copy_scheduled"),
            of("copy_started"),
            of("placement_decided"),
            of("copy_completed"),
        );
        assert!(sched < started && started < decided && decided < done);
    }
    // Exactly one lifecycle per file despite 8 racing readers.
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind.tag() == "copy_completed")
            .count(),
        n_files
    );

    // Histograms saw the traffic: local + PFS reads, copy durations,
    // queue waits.
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.copy_duration.count, n_files as u64);
    assert_eq!(snap.queue_wait.count, n_files as u64);
    assert!(snap.read_latency[0].count > 0, "local reads timed");
    assert!(snap.read_latency[1].count > 0, "PFS reads timed");
    assert!(
        snap.write_latency[0].count == n_files as u64,
        "one install write per file"
    );
    assert!(snap.read_latency[1].p99_nanos >= snap.read_latency[1].p50_nanos);

    // Both exposition formats render the same registry.
    let text = m.metrics_text();
    assert!(text.contains(&format!("monarch_copies_completed_total {n_files}")));
    assert!(text.contains("monarch_read_latency_seconds_bucket{tier=\"ssd\",le=\"+Inf\"}"));
    let json_lines = m.events_json();
    assert_eq!(json_lines.lines().count(), events.len());
}

#[test]
fn telemetry_disabled_records_nothing() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![1u8; 1024]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .telemetry(TelemetryConfig::disabled())
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 128];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 1, "placement still works");
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.read_latency[0].count + snap.read_latency[1].count, 0);
    assert_eq!(snap.queue_wait.count, 0);
    assert_eq!(snap.copy_duration.count, 0);
    assert_eq!(snap.events_recorded, 0);
    assert_eq!(m.events_json(), "");
    // Counters still render (they are stats-driven, not histogram-driven).
    assert!(m
        .metrics_text()
        .contains("monarch_copies_completed_total 1"));
}

#[test]
fn journal_disablable_separately_from_histograms() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![1u8; 256]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .telemetry(TelemetryConfig {
            journal: false,
            ..TelemetryConfig::default()
        })
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 256];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.events_recorded, 0, "journal off");
    assert!(snap.read_latency[1].count > 0, "histograms still on");
}

#[test]
fn panicking_copy_task_is_journaled_and_reverted() {
    /// A scorer whose `choose` panics — models a buggy policy plugin.
    struct PanickingScorer;
    impl PlacementScorer for PanickingScorer {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn choose(
            &self,
            _hierarchy: &StorageHierarchy,
            file: &str,
            _size: u64,
        ) -> Result<Option<crate::hierarchy::TierId>> {
            panic!("policy exploded for {file}");
        }
    }
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![1u8; 512]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let engine = PolicyEngine::new(
        Arc::new(AdmitAll),
        Arc::new(NoEviction),
        Arc::new(PanickingScorer),
    );
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy_engine(Arc::new(engine))
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 64];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    // The panic handler reported which file's copy died and reverted
    // the metadata so a later read can retry.
    assert_eq!(m.stats().copies_failed, 1);
    let events = m.telemetry().journal().events();
    let failed = events
        .iter()
        .find(|e| e.kind.tag() == "copy_failed")
        .expect("copy_failed journaled");
    assert_eq!(failed.kind.file(), "f");
    assert!(m.events_json().contains("panicked"));
    let info = m.metadata().get("f").unwrap();
    assert_eq!(info.state, PlacementState::Unplaced, "copy state reverted");
    assert_eq!(info.tier, 1, "file stays on the PFS");
}

#[test]
fn disabled_prefetch_makes_plans_a_no_op() {
    // The builder defaults to prefetching disabled (lookahead 0) —
    // submitting a plan must change nothing relative to reactive mode.
    let m = mem_monarch(1 << 20, 3, 128);
    let plan = AccessPlan::new((0..3).map(|i| format!("f{i:03}")).collect());
    assert_eq!(m.submit_plan(&plan), 0);
    assert_eq!(m.cancel_prefetch_plan(), 0);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_scheduled, 0);
    assert_eq!(stats.prefetches_scheduled, 0);
    assert_eq!(m.telemetry().journal().events().len(), 0);
}

#[test]
fn lru_policy_evicts_through_middleware() {
    let pfs = MemDriver::new("pfs");
    for i in 0..3 {
        pfs.insert(&format!("f{i}"), vec![i as u8; 400]);
    }
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 900, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy(PolicyKind::LruEvict)
        .admission(AdmissionKind::AdmitAll)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 16];
    for i in 0..3 {
        m.read(&format!("f{i}"), 0, &mut buf).unwrap();
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert!(stats.evictions >= 1, "third file must evict an earlier one");
    // Quota never oversubscribed.
    assert!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used()
            <= 900
    );
    // All three files still readable with correct bytes.
    for i in 0..3 {
        assert_eq!(m.read_full(&format!("f{i}")).unwrap(), vec![i as u8; 400]);
    }
}

#[test]
fn stall_buckets_sum_to_read_wall_time() {
    // Structural, not wall-clock: each read's four phases are cut from one
    // clock chain and sum to its wall time, so the stall buckets hold
    // exactly the summed read wall time, and the ledger's microsecond
    // sums match them up to per-read truncation.
    const FILES: usize = 8;
    const SIZE: usize = 64 << 10;
    let m = mem_monarch(64 << 20, FILES, SIZE);

    // One read's chain: its phases sum to the time from entry to finish.
    let mut clock = ReadClock::start(true);
    let entry = clock.0.expect("an armed clock keeps its marks")[0];
    for mark in [ReadClock::LOOKUP, ReadClock::RESOLVE, ReadClock::PREAD] {
        std::thread::sleep(Duration::from_micros(50));
        clock.mark(mark);
    }
    let before = Instant::now();
    let (start_us, phases) = clock.finish(m.telemetry());
    let after = Instant::now();
    let sum: u64 = phases.iter().sum();
    assert!(phases[..3].iter().all(|&p| p >= 50_000), "{phases:?}");
    assert!(
        (before - entry).as_nanos() as u64 <= sum && sum <= (after - entry).as_nanos() as u64,
        "phases {phases:?} do not sum to the read's wall time"
    );
    assert_eq!(start_us, m.telemetry().micros_at(entry));
    assert_eq!(
        ReadClock::start(false).finish(m.telemetry()),
        (0, [0; 4]),
        "an unarmed clock reads nothing"
    );

    let mut buf = vec![0u8; SIZE];
    for round in 0..3 {
        for i in 0..FILES {
            let n = m.read(&format!("f{i:03}"), 0, &mut buf).unwrap();
            assert_eq!(n, SIZE, "round {round}");
        }
    }
    m.wait_placement_idle();
    let snap = m.telemetry_snapshot();
    let stall = snap.stall_profile;
    let ledger = snap
        .observe
        .expect("profiler on by default")
        .profiler
        .ledger;
    let reads = (3 * FILES) as u64;
    for bucket in [
        stall.lock_wait,
        stall.queue_wait,
        stall.driver_pread,
        stall.copy_wait,
    ] {
        assert_eq!(bucket.count, reads, "every read feeds every bucket");
    }
    assert_eq!(ledger.reads, reads, "the same record feeds the ledger");
    let bucket_ns = stall.lock_wait.sum_nanos
        + stall.queue_wait.sum_nanos
        + stall.driver_pread.sum_nanos
        + stall.copy_wait.sum_nanos;
    // Each read's wall time is truncated to whole microseconds once.
    let wall_ns = ledger.read_wall_us * 1_000;
    assert!(
        wall_ns <= bucket_ns && bucket_ns < wall_ns + reads * 1_000,
        "buckets {bucket_ns}ns vs ledger wall {wall_ns}ns over {reads} reads"
    );
    // The ledger's parts partition its wall time, each part truncated once.
    let parts = ledger.lock_queue_us
        + ledger.fast_pread_us
        + ledger.pfs_cold_pread_us
        + ledger.lane_sat_pread_us
        + ledger.prefetch_lag_pread_us
        + ledger.copy_wait_us;
    assert!(
        parts <= ledger.read_wall_us && ledger.read_wall_us < parts + 3 * reads,
        "ledger parts {parts}us vs wall {}us",
        ledger.read_wall_us
    );
}

#[test]
fn reads_in_flight_gauge_is_balanced() {
    // The open-handle gauge must return to zero across successful reads,
    // EOF early-returns, and error paths alike (the guard decrements on
    // every exit).
    let m = mem_monarch(1 << 20, 2, 128);
    let gauge = m.telemetry().gauges().gauge(
        "monarch_reads_in_flight",
        "Read operations currently executing inside Monarch::read.",
        &[],
    );
    let mut buf = [0u8; 64];
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(
        m.read("f001", 4096, &mut buf).unwrap(),
        0,
        "EOF early return"
    );
    assert!(m.read("missing", 0, &mut buf).is_err());
    m.wait_placement_idle();
    assert_eq!(
        gauge.get(),
        0,
        "gauge balanced after success, EOF and error"
    );
}

/// Monarch over a [`FlakyDriver`]-wrapped local tier, with `n` files of
/// `size` bytes staged on the "PFS". The returned driver handle scripts
/// faults after placement settles.
fn flaky_monarch(cap: u64, n: usize, size: usize) -> (Monarch, Arc<FlakyDriver<MemDriver>>) {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        pfs.insert(&format!("f{i:03}"), vec![i as u8; size]);
    }
    let flaky = Arc::new(FlakyDriver::new(MemDriver::new("ssd")));
    let hierarchy = two_tier(
        Arc::clone(&flaky) as Arc<dyn StorageDriver>,
        cap,
        Arc::new(pfs),
    );
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    (m, flaky)
}

#[test]
fn transient_read_fault_retries_in_place_and_succeeds() {
    let (m, flaky) = flaky_monarch(1 << 20, 1, 1000);
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);

    flaky.script_reads([FlakyOutcome::Transient, FlakyOutcome::Ok]);
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    assert_eq!(buf, vec![0u8; 100]);
    let s = m.stats();
    assert_eq!(s.read_retries, 1, "one backoff retry");
    assert_eq!(s.degraded_reads, 0, "retry succeeded locally");
    assert_eq!(s.tier_quarantines, 0);
    // One fault leaves the tier suspect (still serving locally); further
    // successes decay the EWMA back under the closing threshold.
    let h = m.hierarchy().health().snapshot();
    assert_eq!(h.tiers[0].state, "suspect");
    assert_eq!(h.tiers[0].errors_total, 1);
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(m.hierarchy().health().snapshot().tiers[0].state, "closed");
    m.shutdown();
}

#[test]
fn permanent_read_fault_quarantines_and_serves_from_source() {
    let (m, flaky) = flaky_monarch(1 << 20, 1, 1000);
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();

    // A permanent error is not retried: the tier quarantines immediately
    // and the read degrades to the PFS source instead of failing.
    flaky.script_reads([FlakyOutcome::Permanent]);
    assert_eq!(m.read("f000", 50, &mut buf).unwrap(), 100);
    assert_eq!(buf, vec![0u8; 100]);
    let s = m.stats();
    assert_eq!(s.tier_quarantines, 1);
    assert_eq!(s.degraded_reads, 1);
    assert_eq!(s.read_retries, 0, "permanent faults skip the retry loop");
    let h = m.hierarchy().health().snapshot();
    assert!(h.degraded);
    assert_eq!(h.tiers[0].state, "quarantined");

    // While the probe cooldown holds, further reads keep degrading (no
    // local attempts, so the exhausted script is never consulted).
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    assert_eq!(m.stats().degraded_reads, 2);
    m.shutdown();
}

#[test]
fn half_open_probe_readmits_a_recovered_tier() {
    let (m, flaky) = flaky_monarch(1 << 20, 1, 1000);
    m.hierarchy().health().set_config(HealthConfig {
        probe_cooldown_us: 1_000,
        ..HealthConfig::default()
    });
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();

    flaky.script_reads([FlakyOutcome::Permanent]);
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(
        m.hierarchy().health().snapshot().tiers[0].state,
        "quarantined"
    );

    // After the cooldown the next read wins the half-open probe slot; the
    // device answers (script exhausted) and the tier is re-admitted.
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    let s = m.stats();
    assert_eq!(s.tier_recoveries, 1);
    let h = m.hierarchy().health().snapshot();
    assert!(!h.degraded);
    assert_eq!(h.tiers[0].state, "closed");
    assert_eq!(h.tiers[0].recoveries, 1);

    // Back to normal local service: no further degraded reads.
    let degraded = s.degraded_reads;
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(m.stats().degraded_reads, degraded);
    assert_eq!(m.stats().tiers[0].reads, s.tiers[0].reads + 1);
    m.shutdown();
}

#[test]
fn enospc_install_evicts_a_victim_and_retries_once() {
    let (m, flaky) = flaky_monarch(1 << 20, 2, 1000);
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);

    // The quota has room but the device reports ENOSPC once: the install
    // evicts the resident victim and retries, landing the new file.
    flaky.script_writes([FlakyOutcome::Enospc]);
    m.read("f001", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let s = m.stats();
    assert_eq!(s.enospc_evictions, 1);
    assert_eq!(s.copies_failed, 0);
    assert_eq!(m.metadata().get("f001").unwrap().tier, 0, "install landed");
    assert_eq!(
        m.metadata().get("f000").unwrap().tier,
        1,
        "victim re-resolved to the PFS"
    );
    // Capacity pressure never counts against tier health.
    let h = m.hierarchy().health().snapshot();
    assert_eq!(h.tiers[0].state, "closed");
    assert_eq!(h.tiers[0].errors_total, 0);
    m.shutdown();
}

/// A local-tier driver whose next `read_at`, once armed, first evicts the
/// file through the facade: the lookup → pread eviction race, forced.
struct EvictingDriver {
    inner: MemDriver,
    monarch: std::sync::OnceLock<std::sync::Weak<Monarch>>,
    armed: AtomicBool,
}

impl StorageDriver for EvictingDriver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if self.armed.swap(false, Ordering::AcqRel) {
            let m = self.monarch.get().and_then(std::sync::Weak::upgrade);
            assert!(m.expect("monarch attached").evict(file).unwrap());
        }
        self.inner.read_at(file, offset, buf)
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

#[test]
fn eviction_race_rereads_the_source_without_charging_tier_health() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f000", vec![7u8; 256]);
    let local = Arc::new(EvictingDriver {
        inner: MemDriver::new("ram"),
        monarch: std::sync::OnceLock::new(),
        armed: AtomicBool::new(false),
    });
    let hierarchy = two_tier(
        Arc::clone(&local) as Arc<dyn StorageDriver>,
        1 << 20,
        Arc::new(pfs),
    );
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy)
            .pool_threads(1)
            .build()
            .unwrap(),
    );
    m.init().unwrap();
    assert!(local.monarch.set(Arc::downgrade(&m)).is_ok());
    let mut buf = vec![0u8; 256];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);

    // The file leaves the RAM tier between this read's lookup and pread.
    local.armed.store(true, Ordering::Release);
    buf.fill(0);
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 256);
    assert!(
        buf.iter().all(|&b| b == 7),
        "the raced read returns the PFS bytes"
    );
    let s = m.stats();
    assert_eq!(s.evictions, 1);
    assert_eq!(s.read_retries, 0, "a race is not a device retry");
    assert_eq!((s.tiers[0].reads, s.tiers[1].reads), (0, 2));
    let h = m.hierarchy().health().snapshot();
    assert_eq!(h.tiers[0].error_ewma, 0.0, "a race is not a device error");
    assert_eq!(h.tiers[0].errors_total, 0);
    m.wait_placement_idle();
}
