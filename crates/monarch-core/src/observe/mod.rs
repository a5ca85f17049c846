//! The workload observatory: longitudinal, per-file observability.
//!
//! PR 6's gauges and stall profiler explain *this instant*; this module
//! explains *this epoch*. Three layers, each feeding the next:
//!
//! 1. [`AccessProfiler`] (`profiler`) — sharded, bounded per-file records
//!    (access count, first/last tick, EWMA inter-access gap, bytes per
//!    tier, prefetch hit/miss tallies) plus the monotonic time-lost
//!    ledger, fed each read's outcome by
//!    [`crate::telemetry::TelemetryRegistry::record_read`];
//! 2. [`ResidencyTimeline`] (`timeline`) — a bounded event log of tier
//!    transitions (admitted/promoted/evicted/canceled with cause),
//!    reconstructable into "where did file X live between t0 and t1",
//!    fed by [`crate::transfer::CopySite::transition`];
//! 3. [`ObserveReport`] (`report`) — the per-epoch roll-up: wall time
//!    attributed to pfs-bound / copy-lane-saturated / prefetch-lag /
//!    lock-or-queue / compute-bound, plus top-K hot and wasted
//!    (prefetched-never-read) files.
//!
//! The [`Observatory`] bundles the first two behind the telemetry
//! registry; its snapshot rides the existing `TelemetrySnapshot` (and so
//! the `/snapshot` endpoint, the FFI, and the simulator's `RunReport`)
//! as the optional `observe` section. The per-file records double as the
//! feature source ROADMAP item 3's learned placement policies want.

pub mod profiler;
pub mod report;
pub mod timeline;

use serde::{Deserialize, Serialize};

pub use profiler::{
    AccessProfiler, FileProfile, FileProfileSnapshot, LedgerSnapshot, ProfilerSnapshot, ReadClass,
};
pub use report::{HotFile, LedgerBuckets, ObserveReport, WastedFile};
pub use timeline::{
    ResidencyEvent, ResidencyEventKind, ResidencySpan, ResidencyTimeline, TimelineSnapshot,
    TransitionCause,
};

/// The profiler and the timeline behind one handle, owned by the
/// telemetry registry and shared (via the registry `Arc`) by the read
/// path, the transfer engine, and the simulator.
#[derive(Debug)]
pub struct Observatory {
    profiler: AccessProfiler,
    timeline: ResidencyTimeline,
}

impl Observatory {
    /// An observatory over `tiers` tier ids. `enabled` gates both layers
    /// (one branch per call when off); `max_files` bounds the profiler,
    /// `timeline_capacity` the transition ring.
    #[must_use]
    pub fn new(enabled: bool, tiers: usize, max_files: usize, timeline_capacity: usize) -> Self {
        Self {
            profiler: AccessProfiler::new(enabled, tiers, max_files),
            timeline: ResidencyTimeline::new(enabled, timeline_capacity),
        }
    }

    /// Whether the observatory records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.profiler.is_enabled()
    }

    /// The per-file access profiler.
    #[must_use]
    pub fn profiler(&self) -> &AccessProfiler {
        &self.profiler
    }

    /// The tier-residency timeline.
    #[must_use]
    pub fn timeline(&self) -> &ResidencyTimeline {
        &self.timeline
    }

    /// Serializable snapshot of both layers; `None` when disabled (the
    /// JSON snapshot omits the section entirely).
    #[must_use]
    pub fn snapshot(&self) -> Option<ObserveSnapshot> {
        if !self.is_enabled() {
            return None;
        }
        Some(ObserveSnapshot {
            profiler: self.profiler.snapshot(),
            timeline: self.timeline.snapshot(),
        })
    }
}

/// The `observe` section of the JSON telemetry snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObserveSnapshot {
    /// Per-file access records and the time-lost ledger.
    pub profiler: ProfilerSnapshot,
    /// Tier-transition history.
    pub timeline: TimelineSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observatory_snapshots_to_none() {
        let o = Observatory::new(false, 2, 16, 16);
        assert!(o.snapshot().is_none());
        assert!(!o.is_enabled());
    }

    #[test]
    fn enabled_observatory_snapshot_carries_both_layers() {
        let o = Observatory::new(true, 2, 16, 16);
        o.profiler().record_read(&crate::telemetry::ReadOutcome {
            file: "f",
            resident: 1,
            served: Some(1),
            bytes: 8,
            class: ReadClass::PfsCold,
            prefetch_hit: false,
            start_us: 90,
            phases_ns: [1_000, 0, 9_000, 0],
            span: None,
        });
        o.timeline().record_at(
            200,
            "f",
            0,
            ResidencyEventKind::Admitted,
            TransitionCause::Demand,
        );
        let snap = o.snapshot().unwrap();
        assert_eq!(snap.profiler.ledger.reads, 1);
        assert_eq!(snap.timeline.events.len(), 1);
        // Serde round-trip (the section rides TelemetrySnapshot).
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObserveSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
