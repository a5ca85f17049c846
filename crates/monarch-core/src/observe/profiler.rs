//! The per-file access profiler: the longitudinal half of the telemetry
//! plane.
//!
//! Histograms and gauges answer "how is the system doing *right now*";
//! the [`AccessProfiler`] answers "what did the *workload* do": per file,
//! how often was it read, with what inter-access rhythm, from which tiers,
//! and did the prefetcher earn its keep on it. Records are sharded (16
//! ways, FxHash) so concurrent readers almost never contend, and bounded
//! (`max_files`) so a pathological namespace cannot grow the profiler
//! without limit — accesses past the bound are still tallied globally in
//! `untracked_reads`, they just lose per-file attribution.
//!
//! Alongside the per-file map the profiler keeps the **time-lost ledger**:
//! monotonic microsecond sums of read wall time split by [`ReadClass`].
//! The ledger is what the epoch report rolls up into the pfs-bound /
//! copy-lane-saturated / prefetch-lag / lock-or-queue / compute-bound
//! attribution (see [`crate::observe::report`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::hash::FxBuildHasher;
use crate::hierarchy::TierId;
use crate::telemetry::ReadOutcome;

/// Shard count for the per-file map. A power of two so the shard pick is
/// a mask, matching the metadata container's sharding.
pub const SHARDS: usize = 16;

/// EWMA smoothing factor for the inter-access interval. 0.2 weights the
/// last ~5 gaps — reactive enough for epoch-boundary rhythm changes,
/// smooth enough that one straggler read does not swing the estimate.
const EWMA_ALPHA: f64 = 0.2;

/// How a profiled read was served, from the storage system's point of
/// view. `Fast` is the only healthy class; the other three name *why* the
/// read went to the PFS, which is exactly the split the time-lost ledger
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ReadClass {
    /// Served from a local (fast) tier.
    Fast,
    /// Served from the PFS with no staging copy in sight — a cold miss.
    PfsCold,
    /// Served from the PFS while a copy of the file was already in
    /// flight: the copy lanes are behind the read front.
    LaneSaturated,
    /// Served from the PFS although the access plan covers the file: the
    /// prefetcher knew, but did not get there in time.
    PrefetchLag,
    /// Served node-to-node from a peer's fast tier: cheaper than the PFS
    /// but still a network hop, so its wall time is attributed separately
    /// from both `Fast` and `PfsCold`.
    PeerBound,
    /// The file was resident on a local tier, but that tier is failing or
    /// quarantined, so the bytes came from a lower tier (ultimately the
    /// PFS). Attributed separately so fault-induced slowdown is not
    /// mistaken for cold misses.
    DegradedFallback,
}

impl ReadClass {
    /// The one rule naming how a read was served. `resident` is the tier
    /// the metadata had the file on when the read looked it up, `served`
    /// the tier whose driver delivered the bytes (`None`: a peer node
    /// did), `source` the PFS tier. A read served off the source tier is
    /// classified by *why* the file was still there: the plan knew about
    /// it (prefetch lagged), a copy was in flight (lanes saturated), or
    /// placement never happened (cold PFS traffic). A read that should
    /// have been fast but was rerouted around a failing tier is its own
    /// class — the cost of degraded operation.
    #[must_use]
    pub fn classify(
        resident: TierId,
        served: Option<TierId>,
        source: TierId,
        planned: bool,
        copying: bool,
    ) -> Self {
        match served {
            None => Self::PeerBound,
            Some(tier) if tier != resident => Self::DegradedFallback,
            Some(tier) if tier != source => Self::Fast,
            Some(_) if planned => Self::PrefetchLag,
            Some(_) if copying => Self::LaneSaturated,
            Some(_) => Self::PfsCold,
        }
    }
}

/// One file's longitudinal record. Timestamps are registry-clock
/// microseconds (virtual micros in the simulator).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FileProfile {
    /// Foreground reads observed.
    pub accesses: u64,
    /// Timestamp of the first access (0 until one arrives).
    pub first_us: u64,
    /// Timestamp of the most recent access.
    pub last_us: u64,
    /// Exponentially weighted moving average of the inter-access gap —
    /// the "observed per-file access interval" ROADMAP item 3's learned
    /// placement wants as a feature. 0 until a second access arrives.
    pub ewma_gap_us: f64,
    /// Bytes served to the foreground per tier (index = tier id).
    pub bytes_by_tier: Vec<u64>,
    /// Reads of this file that the prefetcher staged in time.
    pub prefetch_hits: u64,
    /// Reads of this file served from the PFS (any non-`Fast` class).
    pub demand_misses: u64,
    /// Bytes the prefetcher staged for this file (0 = never prefetched).
    pub prefetched_bytes: u64,
    /// Registry-clock instant of the latest prefetch staging.
    pub staged_us: u64,
    /// Foreground reads that arrived *after* a prefetch staging — 0 with
    /// `prefetched_bytes > 0` is the signature of wasted prefetch work.
    pub reads_after_prefetch: u64,
}

impl FileProfile {
    fn new(tiers: usize) -> Self {
        Self {
            bytes_by_tier: vec![0; tiers],
            ..Self::default()
        }
    }

    fn touch(&mut self, tier: TierId, bytes: u64, class: ReadClass, prefetch_hit: bool, t_us: u64) {
        self.accesses += 1;
        if self.accesses == 1 {
            self.first_us = t_us;
        } else {
            let gap = t_us.saturating_sub(self.last_us) as f64;
            self.ewma_gap_us = if self.accesses == 2 {
                gap
            } else {
                EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * self.ewma_gap_us
            };
        }
        self.last_us = t_us;
        if let Some(b) = self.bytes_by_tier.get_mut(tier) {
            *b += bytes;
        }
        if class != ReadClass::Fast {
            self.demand_misses += 1;
        }
        if prefetch_hit {
            self.prefetch_hits += 1;
        }
        if self.prefetched_bytes > 0 {
            self.reads_after_prefetch += 1;
        }
    }
}

/// Monotonic microsecond sums behind the time-lost ledger. All atomics:
/// the read path adds with relaxed ordering and never locks.
#[derive(Debug, Default)]
pub struct LedgerAccum {
    reads: AtomicU64,
    read_wall_us: AtomicU64,
    fast_pread_us: AtomicU64,
    pfs_cold_pread_us: AtomicU64,
    lane_sat_pread_us: AtomicU64,
    prefetch_lag_pread_us: AtomicU64,
    peer_bound_pread_us: AtomicU64,
    degraded_pread_us: AtomicU64,
    lock_queue_us: AtomicU64,
    copy_wait_us: AtomicU64,
}

impl LedgerAccum {
    fn add(&self, r: &ReadOutcome<'_>) {
        // Sub-microsecond terms (the simulator's instantaneous lookups)
        // add nothing, so they skip the atomic.
        let add = |sum: &AtomicU64, ns: u64| {
            if ns >= 1_000 {
                sum.fetch_add(ns / 1_000, Ordering::Relaxed);
            }
        };
        let [lock, queue, pread, copy] = r.phases_ns;
        self.reads.fetch_add(1, Ordering::Relaxed);
        add(&self.read_wall_us, r.wall_ns());
        add(&self.lock_queue_us, lock + queue);
        add(&self.copy_wait_us, copy);
        let bucket = match r.class {
            ReadClass::Fast => &self.fast_pread_us,
            ReadClass::PfsCold => &self.pfs_cold_pread_us,
            ReadClass::LaneSaturated => &self.lane_sat_pread_us,
            ReadClass::PrefetchLag => &self.prefetch_lag_pread_us,
            ReadClass::PeerBound => &self.peer_bound_pread_us,
            ReadClass::DegradedFallback => &self.degraded_pread_us,
        };
        add(bucket, pread);
    }

    /// Point-in-time copy of the sums.
    #[must_use]
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            read_wall_us: self.read_wall_us.load(Ordering::Relaxed),
            fast_pread_us: self.fast_pread_us.load(Ordering::Relaxed),
            pfs_cold_pread_us: self.pfs_cold_pread_us.load(Ordering::Relaxed),
            lane_sat_pread_us: self.lane_sat_pread_us.load(Ordering::Relaxed),
            prefetch_lag_pread_us: self.prefetch_lag_pread_us.load(Ordering::Relaxed),
            peer_bound_pread_us: self.peer_bound_pread_us.load(Ordering::Relaxed),
            degraded_pread_us: self.degraded_pread_us.load(Ordering::Relaxed),
            lock_queue_us: self.lock_queue_us.load(Ordering::Relaxed),
            copy_wait_us: self.copy_wait_us.load(Ordering::Relaxed),
        }
    }
}

/// Serializable ledger sums — the `ledger` section of the observe
/// snapshot. All monotonic, so per-epoch attribution is a
/// [`LedgerSnapshot::delta`] between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerSnapshot {
    /// Profiled reads.
    pub reads: u64,
    /// Total read wall time (entry to exit), µs.
    pub read_wall_us: u64,
    /// Pread time on local tiers, µs.
    pub fast_pread_us: u64,
    /// Pread time on the PFS with no copy in sight, µs.
    pub pfs_cold_pread_us: u64,
    /// Pread time on the PFS while a copy was in flight, µs.
    pub lane_sat_pread_us: u64,
    /// Pread time on the PFS for plan-covered files, µs.
    pub prefetch_lag_pread_us: u64,
    /// Fetch time for reads served node-to-node from a peer's tier, µs.
    #[serde(default)]
    pub peer_bound_pread_us: u64,
    /// Pread time of degraded-fallback reads (resident tier failing,
    /// served down-hierarchy), µs.
    #[serde(default)]
    pub degraded_pread_us: u64,
    /// Lock/lookup and pre-pread bookkeeping time, µs.
    pub lock_queue_us: u64,
    /// Post-pread copy-machinery time (and simulated park waits), µs.
    pub copy_wait_us: u64,
}

impl LedgerSnapshot {
    /// The sums accumulated since `prev` (saturating — a fresh registry
    /// against an older snapshot yields zeros, not wraparound).
    #[must_use]
    pub fn delta(&self, prev: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            reads: self.reads.saturating_sub(prev.reads),
            read_wall_us: self.read_wall_us.saturating_sub(prev.read_wall_us),
            fast_pread_us: self.fast_pread_us.saturating_sub(prev.fast_pread_us),
            pfs_cold_pread_us: self
                .pfs_cold_pread_us
                .saturating_sub(prev.pfs_cold_pread_us),
            lane_sat_pread_us: self
                .lane_sat_pread_us
                .saturating_sub(prev.lane_sat_pread_us),
            prefetch_lag_pread_us: self
                .prefetch_lag_pread_us
                .saturating_sub(prev.prefetch_lag_pread_us),
            peer_bound_pread_us: self
                .peer_bound_pread_us
                .saturating_sub(prev.peer_bound_pread_us),
            degraded_pread_us: self
                .degraded_pread_us
                .saturating_sub(prev.degraded_pread_us),
            lock_queue_us: self.lock_queue_us.saturating_sub(prev.lock_queue_us),
            copy_wait_us: self.copy_wait_us.saturating_sub(prev.copy_wait_us),
        }
    }
}

/// Sharded, bounded per-file access records plus the time-lost ledger.
pub struct AccessProfiler {
    enabled: bool,
    tiers: usize,
    max_files: usize,
    shards: Vec<Mutex<HashMap<String, FileProfile, FxBuildHasher>>>,
    tracked: AtomicU64,
    untracked_reads: AtomicU64,
    ledger: LedgerAccum,
}

impl std::fmt::Debug for AccessProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessProfiler")
            .field("enabled", &self.enabled)
            .field("tracked", &self.tracked.load(Ordering::Relaxed))
            .field("max_files", &self.max_files)
            .finish()
    }
}

impl AccessProfiler {
    /// A profiler over `tiers` tier ids, tracking at most `max_files`
    /// distinct names. Disabled profilers take one branch per call and
    /// record nothing.
    #[must_use]
    pub fn new(enabled: bool, tiers: usize, max_files: usize) -> Self {
        Self {
            enabled,
            tiers,
            max_files,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            tracked: AtomicU64::new(0),
            untracked_reads: AtomicU64::new(0),
            ledger: LedgerAccum::default(),
        }
    }

    /// Whether the profiler records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn shard_of(&self, file: &str) -> usize {
        use std::hash::{BuildHasher, Hasher};
        let mut h = FxBuildHasher::default().build_hasher();
        h.write(file.as_bytes());
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Record one foreground read: ledger sums always, the per-file
    /// record (bytes under the serving tier, stamped at completion) if
    /// the file is tracked or the bound still has room.
    pub fn record_read(&self, r: &ReadOutcome<'_>) {
        if !self.enabled {
            return;
        }
        self.ledger.add(r);
        let tier = r.served.unwrap_or(r.resident);
        let end_us = r.start_us + r.wall_ns() / 1_000;
        let tracked = self.update(r.file, |p| {
            p.touch(tier, r.bytes, r.class, r.prefetch_hit, end_us);
        });
        if !tracked {
            self.untracked_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record that the prefetcher finished staging `bytes` of `file` onto
    /// a local tier. Fed from the transfer engine's prefetch-lane copy
    /// completion; a profile whose `prefetched_bytes` stays unmatched by
    /// any later read is wasted prefetch work.
    pub fn record_prefetch_staged(&self, file: &str, bytes: u64, t_us: u64) {
        if self.enabled {
            self.update(file, |p| {
                p.prefetched_bytes += bytes;
                p.staged_us = t_us;
            });
        }
    }

    /// Apply `f` to `file`'s record, creating it while the bound has room.
    /// Returns `false` when the file is past the bound (untracked). The
    /// bound is checked against a cross-shard counter, so it is
    /// approximate under contention (within SHARDS of max) — never
    /// unbounded.
    fn update(&self, file: &str, f: impl FnOnce(&mut FileProfile)) -> bool {
        let mut shard = self.shards[self.shard_of(file)].lock();
        if let Some(p) = shard.get_mut(file) {
            f(p);
            return true;
        }
        if self.tracked.load(Ordering::Relaxed) >= self.max_files as u64 {
            return false;
        }
        self.tracked.fetch_add(1, Ordering::Relaxed);
        let mut p = FileProfile::new(self.tiers);
        f(&mut p);
        shard.insert(file.to_string(), p);
        true
    }

    /// One file's profile, cloned out of its shard — the policy engine's
    /// [`crate::policy::FeatureSource`] path. `None` for files the
    /// profiler never saw (or a disabled profiler).
    #[must_use]
    pub fn profile(&self, file: &str) -> Option<FileProfile> {
        if !self.enabled {
            return None;
        }
        self.shards[self.shard_of(file)].lock().get(file).cloned()
    }

    /// The live ledger sums.
    #[must_use]
    pub fn ledger(&self) -> LedgerSnapshot {
        self.ledger.snapshot()
    }

    /// `(tracked, untracked_reads)` without merging the shards — cheap
    /// enough for every Prometheus scrape.
    #[must_use]
    pub fn snapshot_counts(&self) -> (u64, u64) {
        (
            self.tracked.load(Ordering::Relaxed),
            self.untracked_reads.load(Ordering::Relaxed),
        )
    }

    /// Merge every shard into one serializable snapshot. Files are sorted
    /// by access count (descending), then name, so the head of the list
    /// is the hot set.
    #[must_use]
    pub fn snapshot(&self) -> ProfilerSnapshot {
        let mut files: Vec<FileProfileSnapshot> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            files.extend(guard.iter().map(|(name, p)| FileProfileSnapshot {
                file: name.clone(),
                profile: p.clone(),
            }));
        }
        files.sort_by(|a, b| {
            b.profile
                .accesses
                .cmp(&a.profile.accesses)
                .then_with(|| a.file.cmp(&b.file))
        });
        ProfilerSnapshot {
            tracked: self.tracked.load(Ordering::Relaxed),
            untracked_reads: self.untracked_reads.load(Ordering::Relaxed),
            ledger: self.ledger.snapshot(),
            files,
        }
    }
}

/// One named profile inside a [`ProfilerSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FileProfileSnapshot {
    /// Logical file name.
    pub file: String,
    /// The record.
    #[serde(flatten)]
    pub profile: FileProfile,
}

/// Serializable profiler state — the `profiler` section of the observe
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfilerSnapshot {
    /// Distinct files tracked.
    pub tracked: u64,
    /// Reads of files past the tracking bound (global tally only).
    pub untracked_reads: u64,
    /// The time-lost ledger sums.
    pub ledger: LedgerSnapshot,
    /// Per-file records, hottest first.
    pub files: Vec<FileProfileSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read of `file` served by `tier`, completing at `end_us` after
    /// `wall_us`, `pread_us` of it inside the driver.
    fn rd(
        file: &str,
        tier: TierId,
        bytes: u64,
        class: ReadClass,
        prefetch_hit: bool,
        (wall_us, pread_us): (u64, u64),
        end_us: u64,
    ) -> ReadOutcome<'_> {
        ReadOutcome {
            file,
            resident: tier,
            served: Some(tier),
            bytes,
            class,
            prefetch_hit,
            start_us: end_us.saturating_sub(wall_us),
            phases_ns: [0, 0, pread_us * 1_000, (wall_us - pread_us) * 1_000],
            span: None,
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = AccessProfiler::new(false, 2, 16);
        p.record_read(&rd("a", 0, 10, ReadClass::Fast, false, (5, 5), 100));
        p.record_prefetch_staged("a", 10, 100);
        let s = p.snapshot();
        assert_eq!(s.tracked, 0);
        assert_eq!(s.ledger.reads, 0);
        assert!(s.files.is_empty());
    }

    #[test]
    fn ewma_tracks_gaps_and_stays_in_range() {
        let p = AccessProfiler::new(true, 2, 16);
        // Gaps: 100, 200, 50.
        for t_us in [1_000u64, 1_100, 1_300, 1_350] {
            p.record_read(&rd("f", 0, 1, ReadClass::Fast, false, (1, 1), t_us));
        }
        let s = p.snapshot();
        let f = &s.files[0];
        assert_eq!(f.profile.accesses, 4);
        assert_eq!(f.profile.first_us, 1_000);
        assert_eq!(f.profile.last_us, 1_350);
        assert!(
            f.profile.ewma_gap_us >= 50.0 && f.profile.ewma_gap_us <= 200.0,
            "ewma {} outside [min,max] gap",
            f.profile.ewma_gap_us
        );
    }

    #[test]
    fn bound_spills_to_untracked_and_ledger_keeps_counting() {
        let p = AccessProfiler::new(true, 1, 2);
        for i in 0..5 {
            p.record_read(&rd(
                &format!("f{i}"),
                0,
                1,
                ReadClass::PfsCold,
                false,
                (10, 10),
                i * 100,
            ));
        }
        let s = p.snapshot();
        assert_eq!(s.tracked, 2);
        assert_eq!(s.untracked_reads, 3);
        assert_eq!(s.ledger.reads, 5);
        assert_eq!(s.ledger.pfs_cold_pread_us, 50);
        assert_eq!(s.ledger.read_wall_us, 50);
    }

    #[test]
    fn classes_route_to_their_ledger_bucket_and_miss_tallies() {
        let p = AccessProfiler::new(true, 2, 16);
        p.record_read(&rd("f", 1, 4, ReadClass::PfsCold, false, (10, 7), 0));
        p.record_read(&rd("f", 1, 4, ReadClass::LaneSaturated, false, (10, 6), 10));
        p.record_read(&rd("f", 1, 4, ReadClass::PrefetchLag, false, (10, 5), 20));
        p.record_read(&rd("f", 0, 4, ReadClass::Fast, true, (10, 4), 30));
        let s = p.snapshot();
        assert_eq!(s.ledger.pfs_cold_pread_us, 7);
        assert_eq!(s.ledger.lane_sat_pread_us, 6);
        assert_eq!(s.ledger.prefetch_lag_pread_us, 5);
        assert_eq!(s.ledger.fast_pread_us, 4);
        let f = &s.files[0].profile;
        assert_eq!(f.demand_misses, 3);
        assert_eq!(f.prefetch_hits, 1);
        assert_eq!(f.bytes_by_tier, vec![4, 12]);
    }

    #[test]
    fn wasted_prefetch_signature() {
        let p = AccessProfiler::new(true, 2, 16);
        p.record_prefetch_staged("wasted", 1_024, 500);
        p.record_prefetch_staged("used", 2_048, 600);
        p.record_read(&rd("used", 0, 100, ReadClass::Fast, true, (1, 1), 700));
        let s = p.snapshot();
        let find = |name: &str| {
            s.files
                .iter()
                .find(|f| f.file == name)
                .map(|f| f.profile.clone())
                .unwrap()
        };
        let wasted = find("wasted");
        assert_eq!(wasted.prefetched_bytes, 1_024);
        assert_eq!(wasted.reads_after_prefetch, 0);
        let used = find("used");
        assert_eq!(used.prefetched_bytes, 2_048);
        assert_eq!(used.reads_after_prefetch, 1);
    }

    #[test]
    fn ledger_delta_is_saturating() {
        let a = LedgerSnapshot {
            reads: 10,
            read_wall_us: 100,
            ..LedgerSnapshot::default()
        };
        let b = LedgerSnapshot {
            reads: 15,
            read_wall_us: 180,
            ..LedgerSnapshot::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.reads, 5);
        assert_eq!(d.read_wall_us, 80);
        let z = a.delta(&b);
        assert_eq!(z.reads, 0);
        assert_eq!(z.read_wall_us, 0);
    }
}
