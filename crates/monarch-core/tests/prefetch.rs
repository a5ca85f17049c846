//! Integration tests for clairvoyant prefetching through the `Monarch`
//! facade: plan staging, lookahead bounds, demand-promotion dedup, plan
//! cancellation, and waste accounting. Queueing behaviour is made
//! deterministic with the public [`GatedDriver`], which pins background
//! source fetches until the test opens the gate.

use std::sync::Arc;
use std::time::Duration;

use monarch_core::driver::testing::{open_gate, Gate, GatedDriver};
use monarch_core::driver::MemDriver;
use monarch_core::hierarchy::StorageHierarchy;
use monarch_core::metadata::PlacementState;
use monarch_core::{
    AccessPlan, Monarch, MonarchBuilder, PrefetchConfig, StorageDriver, TelemetryConfig,
};

/// Monarch with clairvoyant prefetching over two in-memory tiers with
/// `n` files of `size` bytes staged on the "PFS".
fn prefetch_monarch(local_cap: u64, n: usize, size: usize, cfg: PrefetchConfig) -> Monarch {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        pfs.insert(&format!("f{i:03}"), vec![i as u8; size]);
    }
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(local_cap),
        ),
        ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(2)
        .prefetch(cfg)
        .build()
        .unwrap();
    m.init().unwrap();
    m
}

fn plan_of(n: usize) -> AccessPlan {
    AccessPlan::new((0..n).map(|i| format!("f{i:03}")).collect())
}

#[test]
fn full_plan_prefetch_stages_everything_before_first_read() {
    let m = prefetch_monarch(
        1 << 20,
        6,
        512,
        PrefetchConfig {
            lookahead: 16,
            max_inflight_bytes: 0,
        },
    );
    assert_eq!(m.submit_plan(&plan_of(6)), 6);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.prefetches_scheduled, 6);
    assert_eq!(stats.copies_completed, 6);
    // Epoch 1: every foreground read is a fast-tier hit.
    for i in 0..6 {
        let name = format!("f{i:03}");
        assert_eq!(m.read_full(&name).unwrap(), vec![i as u8; 512]);
    }
    let stats = m.stats();
    assert_eq!(stats.tiers[0].reads, 6, "all epoch-1 reads local");
    assert_eq!(stats.tiers[1].reads, 6, "PFS saw only the staging fetches");
    assert_eq!(stats.prefetch_hits, 6);
    let events = m.telemetry().journal().events();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind.tag() == "prefetch_scheduled")
            .count(),
        6
    );
    // Everything was read: a clean shutdown reports no waste.
    let stats = m.shutdown();
    assert_eq!(stats.prefetch_wasted, 0);
    assert_eq!(stats.pool_join_failures, 0);
}

#[test]
fn lookahead_bounds_how_far_prefetch_runs_ahead() {
    let m = prefetch_monarch(
        1 << 20,
        8,
        256,
        PrefetchConfig {
            lookahead: 2,
            max_inflight_bytes: 0,
        },
    );
    assert_eq!(m.submit_plan(&plan_of(8)), 8);
    m.wait_placement_idle();
    // Cursor 0 + lookahead 2: only the first two entries may be staged.
    assert_eq!(m.stats().copies_completed, 2);
    // Each foreground read advances the cursor and releases one more.
    m.read_full("f000").unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 3);
    m.read_full("f001").unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 4);
}

/// One worker, gated PFS: after `submit_plan` the first plan entry is
/// pinned inside the worker and the second is still queued on the
/// prefetch lane.
fn gated_prefetch_monarch(lookahead: usize) -> (Monarch, Gate) {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f000", vec![0u8; 512]);
    pfs.insert("f001", vec![1u8; 512]);
    let (gated, gate) = GatedDriver::new(pfs);
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(1 << 20),
        ),
        (
            "pfs".into(),
            Arc::new(gated) as Arc<dyn StorageDriver>,
            None,
        ),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .telemetry(TelemetryConfig::default())
        .prefetch(PrefetchConfig {
            lookahead,
            max_inflight_bytes: 0,
        })
        .build()
        .unwrap();
    m.init().unwrap();
    (m, gate)
}

#[test]
fn demand_read_promotes_queued_prefetch_instead_of_duplicating() {
    // Regression (dedup guard): a demand read for a file whose prefetch
    // copy is still queued must upgrade that job's lane, not schedule a
    // second copy of the same file.
    let (m, gate) = gated_prefetch_monarch(2);
    assert_eq!(m.submit_plan(&plan_of(2)), 2);
    assert_eq!(m.stats().prefetches_scheduled, 2);
    // Foreground read of the *queued* entry (f001): the metadata CAS is
    // held by the queued prefetch job, so the demand path cannot
    // duplicate it — instead the job jumps to the demand lane.
    let mut buf = [0u8; 64];
    m.read("f001", 0, &mut buf).unwrap();
    let stats = m.stats();
    assert_eq!(stats.prefetch_promoted, 1, "queued job upgraded");
    assert_eq!(stats.copies_scheduled, 2, "no duplicate copy for f001");
    open_gate(&gate);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    // f001's first read raced the copy (PFS-served): not a hit. f000
    // is local by now, so its first read is one.
    assert_eq!(stats.prefetch_hits, 0);
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(m.stats().prefetch_hits, 1);
    let events = m.telemetry().journal().events();
    let promoted: Vec<_> = events
        .iter()
        .filter(|e| e.kind.tag() == "prefetch_promoted")
        .collect();
    assert_eq!(promoted.len(), 1);
    assert_eq!(promoted[0].kind.file(), "f001");
}

#[test]
fn cancel_withdraws_queued_prefetches_and_reverts_metadata() {
    let (m, gate) = gated_prefetch_monarch(2);
    assert_eq!(m.submit_plan(&plan_of(2)), 2);
    // Wait until the worker has dequeued f000 (its copy_started event
    // fires just before the gated source fetch): from then on exactly
    // one job — f001 — is still queued and cancelable.
    let f000_started = || {
        m.telemetry()
            .journal()
            .events()
            .iter()
            .any(|e| e.kind.tag() == "copy_started" && e.kind.file() == "f000")
    };
    for _ in 0..10_000 {
        if f000_started() {
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    assert!(f000_started(), "worker never picked up the first prefetch");
    assert_eq!(m.cancel_prefetch_plan(), 1);
    let stats = m.stats();
    assert_eq!(stats.prefetch_canceled, 1);
    open_gate(&gate);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 1, "only the running copy finished");
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
    let info = m.metadata().get("f001").unwrap();
    assert_eq!(
        info.state,
        PlacementState::Unplaced,
        "canceled copy reverted"
    );
    assert_eq!(info.tier, 1);
    let events = m.telemetry().journal().events();
    let canceled: Vec<_> = events
        .iter()
        .filter(|e| e.kind.tag() == "prefetch_canceled")
        .collect();
    assert_eq!(canceled.len(), 1);
    assert_eq!(canceled[0].kind.file(), "f001");
    // A second cancel is a no-op: the window is gone.
    assert_eq!(m.cancel_prefetch_plan(), 0);
}

#[test]
fn unread_prefetched_files_count_as_wasted_at_plan_close() {
    let m = prefetch_monarch(
        1 << 20,
        4,
        256,
        PrefetchConfig {
            lookahead: 8,
            max_inflight_bytes: 0,
        },
    );
    assert_eq!(m.submit_plan(&plan_of(4)), 4);
    m.wait_placement_idle();
    // Only the first file is ever read.
    m.read_full("f000").unwrap();
    let stats = m.shutdown();
    assert_eq!(stats.prefetch_hits, 1);
    assert_eq!(stats.prefetch_wasted, 3, "staged but never read");
}
