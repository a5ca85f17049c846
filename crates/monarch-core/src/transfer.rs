//! The transfer engine: one copy pipeline for demand placement,
//! clairvoyant prefetch, and eviction.
//!
//! MONARCH's data movement used to be wired directly into the `Monarch`
//! facade; this module carves it out as [`TransferEngine`], which owns the
//! two-lane copy [`ThreadPool`], the [`PrefetchWindow`] over the submitted
//! access plan, the composed [`PolicyEngine`], and all copy-lifecycle
//! telemetry and trace emission. The read path keeps only lookup → tier-resolve →
//! `driver.pread` and hands every movement *intent* to the engine:
//!
//! - [`TransferEngine::demand`] — place a file after a foreground miss
//!   (or pre-stage it), on the lane carried by the request's [`ReadCtx`];
//! - [`TransferEngine::plan`] — stage upcoming plan entries on the
//!   low-priority prefetch lane, bounded by the lookahead window;
//! - [`TransferEngine::evict`] — push a resident file back to the PFS;
//! - [`TransferEngine::drain`] — cancel queued prefetch work *before*
//!   joining the workers, so shutdown never executes speculative copies.
//!
//! The same lane discipline (demand first, promote-on-demand, bulk cancel)
//! is captured by the generic [`LaneQueues`], shared between the real pool
//! and the `dlpipe` discrete-event simulator so both backends run one copy
//! pipeline rather than two hand-maintained replicas. Likewise both
//! backends admit, place, evict and record every copy through one
//! [`CopySite`], and publish their gauges through one [`publish_gauges`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::health::{charge_device_error, device_error_class, ErrorClass, TierState};
use crate::hierarchy::{StorageHierarchy, TierId};
use crate::metadata::{FileInfo, MetadataContainer, PlacementState};
use crate::observe::{ResidencyEventKind, TransitionCause};
use crate::policy::{DecisionPoint, FeatureSource, PolicyEngine, PolicySnapshot};
use crate::pool::{Lane, PoolProbe, TaskCtx, ThreadPool};
use crate::prefetch::{AccessPlan, PrefetchConfig, PrefetchWindow};
use crate::stats::Stats;
use crate::telemetry::{CopyRecord, EventKind, TelemetryRegistry};
use crate::trace::{names, SpanRecord};
use crate::{Error, Result};

// ---------------------------------------------------------------------------
// LaneQueues — the shared two-lane queue discipline
// ---------------------------------------------------------------------------

/// Three priority lanes, generic over what queues on them.
///
/// The [`ThreadPool`] queues whole jobs; the `dlpipe` simulator queues
/// shard indices — both need the same discipline: the demand lane always
/// drains first, then the remote lane (peer-fetched installs: demand
/// driven, but the triggering read was already served), then prefetch. A
/// queued prefetch entry can be promoted into the demand lane when a
/// foreground read arrives for it, and queued prefetch entries can be
/// bulk-canceled at a plan boundary — remote entries are *not* touched by
/// the bulk cancel; they are not speculative.
#[derive(Debug)]
pub struct LaneQueues<T> {
    demand: VecDeque<T>,
    remote: VecDeque<T>,
    prefetch: VecDeque<T>,
}

impl<T> Default for LaneQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LaneQueues<T> {
    /// Three empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            demand: VecDeque::new(),
            remote: VecDeque::new(),
            prefetch: VecDeque::new(),
        }
    }

    /// Queue `item` at the back of `lane`.
    pub fn push(&mut self, lane: Lane, item: T) {
        match lane {
            Lane::Demand => self.demand.push_back(item),
            Lane::Remote => self.remote.push_back(item),
            Lane::Prefetch => self.prefetch.push_back(item),
        }
    }

    /// Dequeue the next item, demand lane first, then remote, then
    /// prefetch. Returns the lane the item was popped from (an entry
    /// promoted out of the prefetch lane reports [`Lane::Demand`] — it
    /// runs at demand priority).
    pub fn pop(&mut self) -> Option<(T, Lane)> {
        if let Some(item) = self.demand.pop_front() {
            return Some((item, Lane::Demand));
        }
        if let Some(item) = self.remote.pop_front() {
            return Some((item, Lane::Remote));
        }
        self.prefetch.pop_front().map(|item| (item, Lane::Prefetch))
    }

    /// Move the first queued prefetch entry matching `pred` to the back of
    /// the demand lane (the dedup guard: a demand miss upgrades the
    /// existing queued job instead of enqueueing a duplicate). Returns
    /// `false` when no queued prefetch entry matches.
    pub fn promote_where(&mut self, pred: impl FnMut(&T) -> bool) -> bool {
        let Some(i) = self.prefetch.iter().position(pred) else {
            return false;
        };
        let item = self.prefetch.remove(i).expect("position is in bounds");
        self.demand.push_back(item);
        true
    }

    /// Remove and return every queued prefetch entry (bulk cancel). The
    /// demand and remote lanes are untouched: remote entries are demand
    /// driven (a foreground read triggered the fetch), so canceling them
    /// at a plan boundary would throw away work a trainer already waited
    /// for.
    pub fn drain_prefetch(&mut self) -> Vec<T> {
        self.prefetch.drain(..).collect()
    }

    /// Number of entries queued on `lane`.
    #[must_use]
    pub fn queued(&self, lane: Lane) -> usize {
        match lane {
            Lane::Demand => self.demand.len(),
            Lane::Remote => self.remote.len(),
            Lane::Prefetch => self.prefetch.len(),
        }
    }

    /// Total queued entries across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.demand.len() + self.remote.len() + self.prefetch.len()
    }

    /// Whether all lanes are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.demand.is_empty() && self.remote.is_empty() && self.prefetch.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Tier transitions — one fan-out for the engine and the simulator
// ---------------------------------------------------------------------------

/// One placement transition of a file: a copy queued, landed, requeued,
/// withdrawn or skipped, a queued prefetch promoted, or a resident
/// evicted. The real engine and the `dlpipe` simulator both report theirs
/// through [`CopySite::transition`], so a transition reads the same in every
/// view and in both backends.
#[derive(Debug, Clone, Copy)]
pub enum Transition<'a> {
    /// A copy was queued (`Unplaced → Copying`).
    Scheduled {
        /// File size in bytes.
        bytes: u64,
        /// The access plan issued it (prefetch lane).
        prefetch: bool,
    },
    /// A copy landed: the file is now resident on `tier`.
    Admitted {
        /// Tier entered.
        tier: TierId,
        /// Bytes installed.
        bytes: u64,
        /// What drove the copy (demand or the plan).
        cause: TransitionCause,
        /// Copy duration, nanoseconds (`None`: untimed).
        copy_ns: Option<u64>,
    },
    /// A queued prefetch copy moved to the demand lane.
    Promoted {
        /// Tier the file was on when the read promoted it.
        tier: TierId,
    },
    /// The file left `tier` for the PFS. `cause` is `Eviction` for an
    /// explicit eviction (journaled at the `plan_evict` decision point)
    /// and `Policy` for one that made room (`pressure_evict`).
    Evicted {
        /// Tier left.
        tier: TierId,
        /// Bytes freed.
        bytes: u64,
        /// Why the file left.
        cause: TransitionCause,
        /// The policy journal's cause line.
        reason: &'a str,
    },
    /// A queued prefetch copy was withdrawn before it ran.
    Withdrawn {
        /// Tier the copy targeted (the source when undecided).
        tier: TierId,
        /// Plan switch or drain.
        cause: TransitionCause,
    },
    /// A copy did not land and the file went back to
    /// `Unplaced` for a later retry (a quarantined or failing tier).
    Requeued {
        /// Tier the copy was writing to, when it had got that far.
        tier: Option<TierId>,
        /// Why the copy was requeued.
        reason: &'a str,
    },
    /// No local tier had room: the file stays on the PFS for good.
    Skipped,
}

/// Policy-journal cause of an eviction that makes room for an incoming copy.
pub const EVICT_TO_MAKE_ROOM: &str =
    "selected by the eviction policy to make room for an incoming copy";

/// The peer-cache residency feed: the cluster view and this node's id.
pub type ClusterFeed = (Arc<crate::cluster::ClusterView>, usize);

// ---------------------------------------------------------------------------
// The copy lifecycle — the clock-free steps the engine and the sim share
// ---------------------------------------------------------------------------

/// Journal reason of a copy requeued because a quarantined tier left it
/// without room.
pub const UNPLACED_WHILE_QUARANTINED: &str = "placement skipped while a tier is quarantined";

/// The room a copy reserved: its destination tier, the residents evicted
/// to make room, and the tier's free quota after the reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Destination tier; the copy's size is reserved on its quota.
    pub tier: TierId,
    /// Residents evicted to make room.
    pub evictions: usize,
    /// Free quota left on `tier` after the reservation.
    pub free_bytes: u64,
}

/// The node state every step of a copy's life touches, borrowed from the
/// real engine or the simulator. Each step takes the caller's clock
/// reading (`t_us`: wall time in the engine, virtual time in the sim) and
/// leaves I/O, retries and error handling to the caller, so both backends
/// admit, place, evict and record every copy the same way.
#[derive(Clone, Copy)]
pub struct CopySite<'a> {
    /// Tiers, drivers and quotas.
    pub hierarchy: &'a StorageHierarchy,
    /// Residency of every file.
    pub metadata: &'a MetadataContainer,
    /// The composed placement policy.
    pub policy: &'a PolicyEngine,
    /// Counters, journal, timeline and trace.
    pub telemetry: &'a TelemetryRegistry,
    /// Peer-cache residency feed, when a cluster is configured.
    pub cluster: Option<&'a ClusterFeed>,
}

impl CopySite<'_> {
    /// Record one placement transition of `file` at `t_us` everywhere it
    /// is tracked: the [`Stats`] counters, the event journal (with the
    /// policy verdict for an eviction), the residency timeline, the
    /// policy's eviction book, and the peer-cache view for admissions and
    /// evictions when a cluster feed is set.
    pub fn transition(&self, t_us: u64, file: &str, transition: Transition<'_>) {
        use ResidencyEventKind as Kind;
        let stats = self.telemetry.stats();
        // Each arm updates its counters and yields the journal event plus the
        // residency-timeline entry, if the transition has one.
        let (event, residency) = match transition {
            Transition::Scheduled { bytes, prefetch } => {
                stats.copy_scheduled();
                let file = file.to_string();
                let event = if prefetch {
                    stats.prefetch_scheduled();
                    EventKind::PrefetchScheduled { file, bytes }
                } else {
                    EventKind::CopyScheduled { file, bytes }
                };
                (event, None)
            }
            Transition::Admitted {
                tier,
                bytes,
                cause,
                copy_ns,
            } => {
                stats.copy_completed();
                if let Some(ns) = copy_ns.filter(|_| self.telemetry.is_enabled()) {
                    self.telemetry.copy_duration().record(ns);
                }
                if let Some((view, node)) = self.cluster {
                    view.note_admitted(file, *node);
                }
                let event = EventKind::CopyCompleted {
                    file: file.to_string(),
                    tier,
                    bytes,
                    micros: copy_ns.map_or(0, |ns| ns / 1_000),
                };
                (event, Some((tier, Kind::Admitted, cause)))
            }
            Transition::Promoted { tier } => {
                stats.prefetch_promote();
                let event = EventKind::PrefetchPromoted {
                    file: file.to_string(),
                };
                (event, Some((tier, Kind::Promoted, TransitionCause::Demand)))
            }
            Transition::Evicted {
                tier,
                bytes,
                cause,
                reason,
            } => {
                stats.record_evict(tier);
                self.policy.on_evicted(file);
                let point = if cause == TransitionCause::Eviction {
                    DecisionPoint::PlanEvict
                } else {
                    DecisionPoint::PressureEvict
                };
                self.journal_policy(t_us, file, point, "evict", reason);
                if let Some((view, node)) = self.cluster {
                    view.note_evicted(file, *node);
                }
                let event = EventKind::Evicted {
                    file: file.to_string(),
                    tier,
                    bytes,
                };
                (event, Some((tier, Kind::Evicted, cause)))
            }
            Transition::Withdrawn { tier, cause } => {
                stats.prefetch_cancel();
                let event = EventKind::PrefetchCanceled {
                    file: file.to_string(),
                };
                (event, Some((tier, Kind::Canceled, cause)))
            }
            Transition::Requeued { tier, reason } => {
                stats.copy_requeue();
                let event = EventKind::CopyRequeued {
                    file: file.to_string(),
                    reason: reason.to_string(),
                };
                let residency = tier.map(|tier| (tier, Kind::Canceled, TransitionCause::Demand));
                (event, residency)
            }
            Transition::Skipped => {
                stats.placement_skip();
                let event = EventKind::PlacementSkipped {
                    file: file.to_string(),
                    reason: "no local tier had room".to_string(),
                };
                (event, None)
            }
        };
        self.telemetry.event_at(t_us, event);
        if let Some((tier, kind, cause)) = residency {
            let timeline = self.telemetry.observe().timeline();
            timeline.record_at(t_us, file, tier, kind, cause);
        }
    }

    /// Ask the admission gate whether a copy of `file` is worth its
    /// bandwidth at `point`, journal the verdict, and count a denial.
    pub fn admit(&self, t_us: u64, file: &str, bytes: u64, point: DecisionPoint) -> bool {
        let admitted = self.policy.admit(file, bytes, point);
        let (verdict, reason) = match (admitted, point) {
            (true, DecisionPoint::DemandAdmit) => {
                ("admit", "demand miss admitted to the copy pipeline")
            }
            (true, _) => ("admit", "plan entry admitted to the prefetch lane"),
            (false, DecisionPoint::DemandAdmit) => (
                "deny",
                "admission policy refused the copy; the file stays on the PFS",
            ),
            (false, _) => ("deny", "admission policy refused the speculative copy"),
        };
        if !admitted {
            self.telemetry.stats().policy_denial();
        }
        self.journal_policy(t_us, file, point, verdict, reason);
        admitted
    }

    /// Journal one policy verdict with its decision point and cause.
    fn journal_policy(
        &self,
        t_us: u64,
        file: &str,
        point: DecisionPoint,
        verdict: &str,
        reason: &str,
    ) {
        let decision = EventKind::PolicyDecision {
            file: file.to_string(),
            point: point.as_str().to_string(),
            policy: self.policy.name().to_string(),
            verdict: verdict.to_string(),
            reason: reason.to_string(),
        };
        self.telemetry.event_at(t_us, decision);
    }

    /// Evict `file` (`bytes` resident on `tier`) back to the PFS. The
    /// metadata flips first, so a reader racing the unlink re-resolves to
    /// the source; then the copy is unlinked, its quota released and the
    /// transition recorded. A copy that is already missing counts as
    /// unlinked (the simulator's tiers hold no bytes). Any other unlink
    /// error is returned after the eviction is recorded: the file has left
    /// the tier either way.
    pub fn evict(
        &self,
        t_us: u64,
        file: &str,
        tier: TierId,
        bytes: u64,
        cause: TransitionCause,
        reason: &str,
    ) -> Result<()> {
        let local = self.hierarchy.tier(tier)?;
        self.metadata.evict_to(file, self.hierarchy.source_id())?;
        let unlinked = match local.driver.remove(file) {
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            other => other,
        };
        if let Some(quota) = local.quota.as_ref() {
            quota.release(bytes);
        }
        let evicted = Transition::Evicted {
            tier,
            bytes,
            cause,
            reason,
        };
        self.transition(t_us, file, evicted);
        unlinked
    }

    /// Pick `file`'s destination and reserve room there: ask the policy,
    /// evict the victims it names, reserve the quota, and journal the
    /// `placement_decided` event. `Ok(None)`: no tier had room.
    pub fn place_and_reserve(
        &self,
        t_us: u64,
        file: &str,
        size: u64,
    ) -> Result<Option<Reservation>> {
        let Some(decision) = self.policy.place(self.hierarchy, file, size)? else {
            return Ok(None);
        };
        let tier = decision.tier;
        let quota = self
            .hierarchy
            .tier(tier)?
            .quota
            .as_ref()
            .ok_or(Error::UnknownTier(tier))?;
        // Without victims `place` already reserved; with them, room is
        // reserved only once the victims are gone.
        if !decision.evict.is_empty() {
            for victim in &decision.evict {
                if let Some(vinfo) = self.metadata.get(victim).filter(|v| v.tier == tier) {
                    let cause = TransitionCause::Policy;
                    self.evict(t_us, victim, tier, vinfo.size, cause, EVICT_TO_MAKE_ROOM)?;
                }
            }
            if !quota.try_reserve(size) {
                return Ok(None);
            }
        }
        self.placement_decided(t_us, file, tier);
        Ok(Some(Reservation {
            tier,
            evictions: decision.evict.len(),
            free_bytes: quota.free(),
        }))
    }

    /// Journal that `file` will be copied to `tier`, with the tier's quota
    /// accounting after the reservation.
    pub fn placement_decided(&self, t_us: u64, file: &str, tier: TierId) {
        let (used, capacity) = self
            .hierarchy
            .tier(tier)
            .ok()
            .and_then(|t| t.quota.as_ref())
            .map_or((0, 0), |q| (q.used(), q.capacity()));
        let event = EventKind::PlacementDecided {
            file: file.to_string(),
            tier,
            used,
            capacity,
        };
        self.telemetry.event_at(t_us, event);
    }

    /// Settle a copy that found no room. While a local tier is
    /// quarantined the file is requeued: it reverts to `Unplaced`, so a
    /// read after the recovery re-arms placement. Otherwise the dataset
    /// does not fit and the file stays on the PFS for good (paper §III-B,
    /// last paragraph). Returns whether the skip was terminal.
    pub fn settle_unplaced(&self, t_us: u64, file: &str) -> bool {
        let quarantined = self.hierarchy.any_local_quarantined();
        let transition = if quarantined {
            Transition::Requeued {
                tier: None,
                reason: UNPLACED_WHILE_QUARANTINED,
            }
        } else {
            Transition::Skipped
        };
        self.transition(t_us, file, transition);
        let _ = self.metadata.abort_copy(file, !quarantined);
        !quarantined
    }
}

/// Pipeline values the gauge families report beside the tier state that
/// [`publish_gauges`] reads itself. A backend that does not model a value
/// (the simulator has no remote lane and never drains) reports 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineGauges {
    /// Copies queued per lane: demand, remote, prefetch.
    pub queued: [usize; 3],
    /// Copies executing on workers.
    pub inflight_jobs: usize,
    /// Prefetch copies and bytes issued and not yet resolved, and plan
    /// entries issued ahead of the read cursor; `None` without a
    /// prefetcher.
    pub prefetch: Option<(usize, u64, usize)>,
    /// The pipeline is shutting down.
    pub draining: bool,
    /// Reads in flight, for a backend without the read path's live
    /// `monarch_reads_in_flight` gauge.
    pub reads_in_flight: Option<usize>,
}

/// Family name and help text of the reads-in-flight gauge.
pub const READS_IN_FLIGHT_GAUGE: (&str, &str) = (
    "monarch_reads_in_flight",
    "Read operations currently executing inside Monarch::read.",
);

/// Publish every placement gauge family from live state: per-tier
/// occupancy, capacity, residents and health, the degraded flag, lane
/// depths, executing copies, the prefetch window and the drain flag.
pub fn publish_gauges(
    telemetry: &TelemetryRegistry,
    hierarchy: &StorageHierarchy,
    metadata: &MetadataContainer,
    p: &PipelineGauges,
) {
    let g = telemetry.gauges();
    let set = |name: &str, help: &str, labels: &[(&str, &str)], value: i64| {
        g.gauge(name, help, labels).set(value);
    };
    let files = metadata.residency_histogram(hierarchy.levels());
    for tier in hierarchy.tiers() {
        let labels = &[("tier", tier.name.as_str())];
        if let Some(quota) = tier.quota.as_ref() {
            let help = "Bytes resident on the tier (quota accounting).";
            set(
                "monarch_tier_occupancy_bytes",
                help,
                labels,
                quota.used() as i64,
            );
            let help = "Configured capacity of the tier in bytes.";
            set(
                "monarch_tier_capacity_bytes",
                help,
                labels,
                quota.capacity() as i64,
            );
        }
        let resident = files.get(tier.id).copied().unwrap_or(0) as i64;
        set(
            "monarch_tier_files",
            "Files currently resident on the tier.",
            labels,
            resident,
        );
        let state = match hierarchy.health().tier(tier.id).state() {
            TierState::Closed => 0,
            TierState::Suspect => 1,
            TierState::Quarantined => 2,
        };
        let help = "Tier health: 0 = closed (healthy), 1 = suspect, 2 = quarantined.";
        set("monarch_tier_health_state", help, labels, state);
    }
    let help = "1 while any tier is quarantined (reads falling back down-hierarchy), else 0.";
    set(
        "monarch_degraded",
        help,
        &[],
        i64::from(hierarchy.health().degraded()),
    );
    for (lane, queued) in ["demand", "remote", "prefetch"].into_iter().zip(p.queued) {
        let help = "Copies queued (not yet started) per pool lane.";
        set(
            "monarch_lane_queued",
            help,
            &[("lane", lane)],
            queued as i64,
        );
    }
    let help = "Copies currently executing on pool workers.";
    set(
        "monarch_pool_inflight_jobs",
        help,
        &[],
        p.inflight_jobs as i64,
    );
    if let Some((copies, bytes, lag)) = p.prefetch {
        let help = "Prefetch copies issued and not yet resolved.";
        set("monarch_prefetch_inflight_copies", help, &[], copies as i64);
        let help = "Bytes of prefetch copies issued and not yet resolved.";
        set("monarch_prefetch_inflight_bytes", help, &[], bytes as i64);
        let help = "Plan entries issued ahead of the read cursor.";
        set("monarch_prefetch_window_lag_entries", help, &[], lag as i64);
    }
    let help = "1 while the transfer engine is shutting down, else 0.";
    set("monarch_draining", help, &[], i64::from(p.draining));
    if let Some(reads) = p.reads_in_flight {
        let (name, help) = READS_IN_FLIGHT_GAUGE;
        set(name, help, &[], reads as i64);
    }
}

// ---------------------------------------------------------------------------
// ReadCtx — request-scoped context threaded into the engine
// ---------------------------------------------------------------------------

/// Request-scoped context a caller threads into [`TransferEngine::demand`]:
/// trace linkage, the lane to queue on, and an optional freshness deadline.
/// Replaces the `(trace_parent, flow, start_flow)` argument tuples the
/// middleware used to pass around.
#[derive(Debug, Clone, Copy)]
pub struct ReadCtx {
    /// Span id of the operation that triggered the copy (`0` = unsampled).
    pub parent: u64,
    /// Trace flow id linking the trigger to the background `copy_exec`
    /// (`0` = unsampled).
    pub flow: u64,
    /// Put the flow's start endpoint on the `copy_scheduled` span itself —
    /// used when no foreground `driver_pread` exists to carry it
    /// (pre-staging, prefetch).
    pub start_flow: bool,
    /// Pool lane to queue the copy on.
    pub lane: Lane,
    /// Drop the copy (reverting its metadata) if a worker has not started
    /// it by this instant. `None` = no deadline.
    pub deadline: Option<Instant>,
}

impl Default for ReadCtx {
    fn default() -> Self {
        Self::untraced()
    }
}

impl ReadCtx {
    /// Unsampled demand-lane request — the common fast path.
    #[must_use]
    pub fn untraced() -> Self {
        Self {
            parent: 0,
            flow: 0,
            start_flow: false,
            lane: Lane::Demand,
            deadline: None,
        }
    }

    /// Sampled request: the flow starts at the caller's foreground
    /// `driver_pread` span and finishes at the background `copy_exec`.
    #[must_use]
    pub fn traced(parent: u64, flow: u64) -> Self {
        Self {
            parent,
            flow,
            ..Self::untraced()
        }
    }

    /// Sampled request with no foreground read (pre-staging): the flow
    /// starts at the `copy_scheduled` span itself.
    #[must_use]
    pub fn staged(parent: u64, flow: u64) -> Self {
        Self {
            parent,
            flow,
            start_flow: true,
            ..Self::untraced()
        }
    }

    /// Queue on `lane` instead of the default demand lane.
    #[must_use]
    pub fn on_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// Attach a start deadline: the copy is dropped (metadata reverted, a
    /// `copy_failed` event journaled) if still queued past `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What [`TransferEngine::note_read`] learned about a foreground read —
/// the plan's answer to "did the prefetcher know about this file, and did
/// it help?". The read path threads it into the trace span (flow) and the
/// access profiler (classification).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadFeedback {
    /// Flow id of the prefetch copy issued for this file (`0` if none or
    /// untraced).
    pub flow: u64,
    /// The file was covered by the submitted access plan.
    pub planned: bool,
    /// This read was the file's first, and the plan had already staged it
    /// locally — a prefetch hit.
    pub prefetch_hit: bool,
}

// ---------------------------------------------------------------------------
// TransferEngine
// ---------------------------------------------------------------------------

/// What [`TransferEngine::drain`] did on the way down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued prefetch copies withdrawn before the workers were joined.
    pub canceled: usize,
    /// Worker threads that could not be joined (died outside the per-task
    /// panic catch).
    pub join_failures: u64,
}

/// Runtime state of the clairvoyant prefetcher: the knobs plus the window
/// over the currently submitted access plan (`None` until a plan arrives).
struct PrefetchState {
    cfg: PrefetchConfig,
    window: Mutex<Option<PrefetchWindow>>,
}

/// The movement engine: every inter-tier copy — demand placement,
/// pre-staging, clairvoyant prefetch — and every eviction goes through
/// here. Owns the two-lane pool and the plan window; shares the hierarchy,
/// metadata, stats and telemetry with the read path.
pub struct TransferEngine {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    policy: Arc<PolicyEngine>,
    stats: Arc<Stats>,
    telemetry: Arc<TelemetryRegistry>,
    shutting_down: Arc<AtomicBool>,
    pool: ThreadPool,
    /// Present only when `prefetch.lookahead > 0`, so a disabled
    /// configuration takes zero extra branches beyond one `Option` check.
    /// Shared (`Arc`) with detached [`GaugeSampler`]s.
    prefetch: Option<Arc<PrefetchState>>,
    /// Peer-cache residency feed: `(view, this node's id)`. When set, the
    /// admit/evict transitions that already feed the residency timeline
    /// also update the [`ClusterView`] so peers' shard state is tracked
    /// from actual placement, not intent.
    ///
    /// [`ClusterView`]: crate::cluster::ClusterView
    cluster_feed: Mutex<Option<ClusterFeed>>,
    /// Capacity reservations currently held by in-flight copy tasks
    /// (`file → (tier, bytes)`). Registered after `try_place` reserves,
    /// cleared when the copy settles either way; the pool's panic handler
    /// reclaims whatever a dying task left behind, so a panicking copy
    /// cannot leak its target tier's quota until shutdown.
    reservations: Arc<Mutex<HashMap<String, (TierId, u64)>>>,
}

impl std::fmt::Debug for TransferEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferEngine")
            .field("threads", &self.pool.threads())
            .field("policy", &self.policy.name())
            .field("prefetch", &self.prefetch.is_some())
            .finish()
    }
}

impl TransferEngine {
    /// Assemble an engine over shared parts. The pool is built with
    /// per-lane queue-wait stamping when the registry is enabled, and its
    /// panic handler reverts the dying copy's metadata so a later read can
    /// retry.
    #[must_use]
    pub fn new(
        hierarchy: Arc<StorageHierarchy>,
        metadata: Arc<MetadataContainer>,
        policy: Arc<PolicyEngine>,
        stats: Arc<Stats>,
        telemetry: Arc<TelemetryRegistry>,
        pool_threads: usize,
        prefetch: PrefetchConfig,
    ) -> Self {
        let pool = if telemetry.is_enabled() {
            ThreadPool::with_telemetry(
                pool_threads,
                Arc::clone(telemetry.queue_wait()),
                Arc::clone(telemetry.queue_wait_remote()),
                Arc::clone(telemetry.queue_wait_prefetch()),
                Arc::clone(telemetry.pool_exec()),
            )
        } else {
            ThreadPool::new(pool_threads)
        };
        // A panicking copy task must not strand the file in `Copying`:
        // report which copy died and revert it so a later read can retry
        // (same degradation as an I/O failure — the file stays on the PFS).
        let reservations: Arc<Mutex<HashMap<String, (TierId, u64)>>> =
            Arc::new(Mutex::new(HashMap::new()));
        {
            let stats = Arc::clone(&stats);
            let telemetry = Arc::clone(&telemetry);
            let metadata = Arc::clone(&metadata);
            let hierarchy = Arc::clone(&hierarchy);
            let reservations = Arc::clone(&reservations);
            pool.set_panic_handler(Arc::new(move |ctx: &TaskCtx| {
                stats.copy_failed();
                telemetry.event(EventKind::CopyFailed {
                    file: ctx.label.clone(),
                    reason: "background copy task panicked".to_string(),
                });
                // The dying task may still hold the capacity reservation it
                // made on its target tier; release it here or the bytes stay
                // accounted-for (and unusable) until shutdown.
                if let Some((tier, bytes)) = reservations.lock().remove(&ctx.label) {
                    if let Ok(t) = hierarchy.tier(tier) {
                        if let Some(quota) = t.quota.as_ref() {
                            quota.release(bytes);
                        }
                    }
                    telemetry.event(EventKind::ReservationReclaimed {
                        file: ctx.label.clone(),
                        tier,
                        bytes,
                    });
                }
                let _ = metadata.abort_copy(&ctx.label, false);
            }));
        }
        // Reuse-aware admission and the learned scorer read the access
        // profiler through this bridge; rebinding is idempotent.
        policy.bind_features(Arc::clone(&telemetry) as Arc<dyn FeatureSource>);
        Self {
            hierarchy,
            metadata,
            policy,
            stats,
            telemetry,
            shutting_down: Arc::new(AtomicBool::new(false)),
            pool,
            prefetch: prefetch.enabled().then(|| {
                Arc::new(PrefetchState {
                    cfg: prefetch,
                    window: Mutex::new(None),
                })
            }),
            cluster_feed: Mutex::new(None),
            reservations,
        }
    }

    /// Attach the peer-cache residency feed: from now on every admit and
    /// evict this engine performs is mirrored into `view` under `node`.
    /// Called once by the builder when a cluster is configured.
    pub fn set_cluster_feed(&self, view: Arc<crate::cluster::ClusterView>, node: usize) {
        *self.cluster_feed.lock() = Some((view, node));
    }

    fn cluster_feed(&self) -> Option<ClusterFeed> {
        self.cluster_feed.lock().clone()
    }

    /// The engine's shutdown flag — shared with the read path so reads are
    /// rejected as soon as a drain begins.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutting_down)
    }

    /// Composed name (`admission/eviction/scorer`) of the policy engine
    /// driving this engine's decisions.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Composition and decision counters of the policy engine — the
    /// `monarch policy` view.
    #[must_use]
    pub fn policy_snapshot(&self) -> PolicySnapshot {
        self.policy.snapshot()
    }

    /// Ask admission about a copy at `point`, journaling the verdict now.
    fn admit(&self, file: &str, size: u64, point: DecisionPoint) -> bool {
        let t_us = self.telemetry.now_micros();
        self.site(None).admit(t_us, file, size, point)
    }

    /// The engine's parts as a [`CopySite`] feeding `cluster`.
    fn site<'a>(&'a self, cluster: Option<&'a ClusterFeed>) -> CopySite<'a> {
        CopySite {
            hierarchy: &self.hierarchy,
            metadata: &self.metadata,
            policy: &self.policy,
            telemetry: &self.telemetry,
            cluster,
        }
    }

    /// Record a placement transition of `file` this engine performed, now.
    fn transition(&self, file: &str, transition: Transition<'_>) {
        let feed = self.cluster_feed();
        let t_us = self.telemetry.now_micros();
        self.site(feed.as_ref()).transition(t_us, file, transition);
    }

    /// Stamp a traced copy's record as queued now, on this thread's track,
    /// and record its scheduling span.
    fn record_scheduled(&self, file: &str, size: u64, record: CopyRecord) -> CopyRecord {
        let record = CopyRecord {
            scheduler_tid: self.telemetry.trace().register_current_thread(),
            queued_us: self.telemetry.now_micros(),
            ..record
        };
        self.telemetry.record_copy_scheduled(file, size, &record);
        record
    }

    /// Number of copy worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Copies queued (not yet started) on `lane`.
    #[must_use]
    pub fn queued(&self, lane: Lane) -> usize {
        self.pool.queued(lane)
    }

    /// Block until no copies are queued or running.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Read-path recency signal: forward a foreground access to the
    /// placement policy (LRU-style policies feed on this).
    pub fn note_access(&self, file: &str, tier: TierId) {
        self.policy.on_access(file, tier);
    }

    /// Hand a placement copy to the pool if this request wins the
    /// `Unplaced → Copying` race. Returns whether a copy was scheduled.
    ///
    /// `inline_data` short-circuits the source fetch when the triggering
    /// read already covered the whole file. The [`ReadCtx`] carries trace
    /// linkage (a `copy_scheduled` span is recorded under `ctx.parent` when
    /// sampled), the lane to queue on, and an optional start deadline.
    pub fn demand(
        &self,
        file: &str,
        size: u64,
        inline_data: Option<Vec<u8>>,
        ctx: ReadCtx,
    ) -> bool {
        // The target recorded here is provisional; the policy picks the
        // real destination inside the background task (paper §III-B: the
        // placement handler runs on a pool thread).
        match self.metadata.begin_copy(file, 0) {
            Ok(true) => {}
            _ => return false,
        }
        // The CAS is won; now ask admission whether the copy is worth the
        // bandwidth. A denial is non-terminal: the CAS reverts and a later
        // miss re-asks, so a file can earn admission as its profile warms.
        // Remote installs skip the gate — the bytes are already fetched.
        if ctx.lane == Lane::Demand && !self.admit(file, size, DecisionPoint::DemandAdmit) {
            let _ = self.metadata.abort_copy(file, false);
            return false;
        }
        self.transition(
            file,
            Transition::Scheduled {
                bytes: size,
                prefetch: false,
            },
        );
        let record = (ctx.flow != 0).then(|| {
            let traced = CopyRecord {
                flow: ctx.flow,
                start_flow: ctx.start_flow,
                parent: ctx.parent,
                ..CopyRecord::default()
            };
            self.record_scheduled(file, size, traced)
        });
        self.submit_copy(file, size, inline_data, ctx, record)
    }

    /// Queue `file`'s copy on `ctx.lane`. A refused submission (shutdown)
    /// reverts the metadata CAS so the state stays clean. Returns whether
    /// the copy was queued.
    fn submit_copy(
        &self,
        file: &str,
        size: u64,
        inline_data: Option<Vec<u8>>,
        ctx: ReadCtx,
        record: Option<CopyRecord>,
    ) -> bool {
        let job = CopyJob {
            hierarchy: Arc::clone(&self.hierarchy),
            metadata: Arc::clone(&self.metadata),
            policy: Arc::clone(&self.policy),
            stats: Arc::clone(&self.stats),
            telemetry: Arc::clone(&self.telemetry),
            shutting_down: Arc::clone(&self.shutting_down),
            lane: ctx.lane,
            record,
            deadline: ctx.deadline,
            cluster_feed: self.cluster_feed(),
            reservations: Arc::clone(&self.reservations),
        };
        let owned = file.to_string();
        let task_ctx = TaskCtx {
            label: file.to_string(),
            flow: ctx.flow,
        };
        let submitted = self.pool.submit_on(
            ctx.lane,
            Some(task_ctx),
            Box::new(move || job.run(&owned, size, inline_data)),
        );
        if !submitted {
            let _ = self.metadata.abort_copy(file, false);
        }
        submitted
    }

    /// Install bytes fetched from a peer node's fast tier: the remote-lane
    /// counterpart to [`TransferEngine::demand`]. The triggering read was
    /// already served from `bytes`, so the install queues on
    /// [`Lane::Remote`] — behind local demand misses (a trainer is waiting
    /// on those), ahead of speculative prefetch. Carries the same
    /// deadline/cancellation/trace semantics as any other copy; a
    /// `remote_scheduled` event (with the serving peer) is journaled
    /// beside the usual copy lifecycle. Returns whether an install was
    /// scheduled (`false`: lost the CAS to a concurrent copy, or the pool
    /// is shutting down).
    pub fn remote_admit(
        &self,
        file: &str,
        size: u64,
        bytes: Vec<u8>,
        peer: u64,
        ctx: ReadCtx,
    ) -> bool {
        let ctx = ReadCtx {
            lane: Lane::Remote,
            ..ctx
        };
        let scheduled = self.demand(file, size, Some(bytes), ctx);
        if scheduled {
            self.telemetry.event(EventKind::RemoteScheduled {
                file: file.to_string(),
                bytes: size,
                peer,
            });
        }
        scheduled
    }

    /// Submit the access plan for the upcoming epoch. A previously
    /// submitted plan is canceled first (queued prefetch copies are
    /// withdrawn; running ones finish). Names missing from the metadata
    /// namespace are dropped. Returns the number of admitted entries —
    /// `0` when prefetching is disabled, in which case this is a no-op.
    pub fn plan(&self, plan: &AccessPlan) -> usize {
        let Some(state) = &self.prefetch else {
            return 0;
        };
        self.close_window(state, TransitionCause::Plan);
        let mut files = Vec::with_capacity(plan.len());
        for name in plan.files() {
            if let Some(info) = self.metadata.get(name) {
                files.push((name.clone(), info.size));
            }
        }
        // The clairvoyant eviction book ranks residents by their next
        // planned use; pins from the previous plan are reset with it.
        let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
        self.policy.set_plan(&names);
        let window = PrefetchWindow::new(files, state.cfg);
        let admitted = window.len();
        *state.window.lock() = Some(window);
        let tr = self.telemetry.trace();
        if tr.is_enabled() {
            tr.record(
                SpanRecord::new(
                    names::PLAN_SUBMIT,
                    "read",
                    tr.register_current_thread(),
                    self.telemetry.now_micros(),
                    0,
                )
                .with_id(tr.next_id())
                .arg_u64("entries", plan.len() as u64)
                .arg_u64("admitted", admitted as u64),
            );
        }
        self.pump();
        admitted
    }

    /// Cancel the current access plan: withdraw queued-but-unstarted
    /// prefetch copies (their metadata reverts to `Unplaced`) and close
    /// the window. Returns the number of withdrawn copies. Running copies
    /// are not interrupted.
    pub fn cancel_plan(&self) -> usize {
        match &self.prefetch {
            Some(state) => self.close_window(state, TransitionCause::Plan),
            None => 0,
        }
    }

    /// Read-path prefetch bookkeeping: advance the plan cursor past
    /// `file`, count a hit when the plan staged it in time, upgrade a
    /// still-queued prefetch copy to the demand lane, and release more of
    /// the plan. The returned [`ReadFeedback`] carries the flow id of the
    /// prefetch copy issued for this file (`0` if none / untraced) so the
    /// read span can point back at it, plus the plan/hit facts the access
    /// profiler classifies the read by.
    pub fn note_read(&self, file: &str, served: TierId) -> ReadFeedback {
        let Some(state) = &self.prefetch else {
            return ReadFeedback::default();
        };
        let note = {
            let mut guard = state.window.lock();
            let Some(window) = guard.as_mut() else {
                return ReadFeedback::default();
            };
            match window.on_read(file) {
                Some(note) => note,
                None => return ReadFeedback::default(),
            }
        };
        // The plan's cursor moved past `file`: the prefetch pin (staged but
        // unread) lifts, and the clairvoyant book advances to its next use.
        self.policy.unpin(file);
        self.policy.note_plan_read(file);
        let mut fb = ReadFeedback {
            planned: true,
            ..ReadFeedback::default()
        };
        if note.issued {
            fb.flow = note.flow;
            if note.first_read && served != self.hierarchy.source_id() {
                // The plan staged this file before its first read arrived.
                self.stats.prefetch_hit();
                fb.prefetch_hit = true;
            }
            if !note.resolved && self.pool.promote(file) {
                // Dedup guard: the file's copy is still *queued* on the
                // prefetch lane — upgrade that job's priority instead of
                // letting the demand path wait behind unrelated prefetches
                // (it cannot enqueue a duplicate: the metadata CAS is held
                // by the queued job).
                self.transition(file, Transition::Promoted { tier: served });
            }
        }
        // The cursor moved: more of the plan may now be issued.
        self.pump();
        fb
    }

    /// Evict `file` from its local tier back to the PFS source: the
    /// counterpart intent to [`TransferEngine::demand`], for policies and
    /// operators that want to free local capacity explicitly. Returns
    /// `Ok(false)` when the file is not locally resident (on the source,
    /// or a copy is in flight). The file reverts to `Unplaced`, so a later
    /// read may place it again.
    pub fn evict(&self, file: &str) -> Result<bool> {
        let info = self
            .metadata
            .get(file)
            .ok_or_else(|| Error::UnknownFile(file.to_string()))?;
        let source = self.hierarchy.source_id();
        if info.state != PlacementState::Placed || info.tier == source {
            return Ok(false);
        }
        let feed = self.cluster_feed();
        self.site(feed.as_ref()).evict(
            self.telemetry.now_micros(),
            file,
            info.tier,
            info.size,
            TransitionCause::Eviction,
            "explicit eviction pushed the file back to the PFS",
        )?;
        Ok(true)
    }

    /// Shut the pipeline down: stop accepting work, withdraw every queued
    /// prefetch copy *before* joining the workers (shutdown must never
    /// spend time executing speculative copies), settle plan accounting,
    /// then drain the demand lane and join. The canceled count is
    /// journaled; unjoinable workers are counted, not propagated.
    pub fn drain(&mut self) -> DrainReport {
        self.shutting_down.store(true, Ordering::Release);
        let canceled = match &self.prefetch {
            Some(state) => self.close_window(state, TransitionCause::Drain),
            // No prefetcher was configured, but purge the lane anyway so
            // the ordering guarantee does not depend on configuration.
            None => self.withdraw_queued(None, TransitionCause::Drain),
        };
        if canceled > 0 {
            self.telemetry.event(EventKind::PrefetchDrained {
                canceled: canceled as u64,
            });
        }
        self.pool.shutdown();
        let join_failures = self.pool.join_failures();
        for _ in 0..join_failures {
            self.stats.pool_join_failure();
            self.telemetry.event(EventKind::WorkerJoinFailed {
                file: "monarch-copy-worker".to_string(),
            });
        }
        DrainReport {
            canceled,
            join_failures,
        }
    }

    /// Tear down the current window (plan switch, explicit cancel, or
    /// drain): pull queued prefetch jobs out of the pool, revert their
    /// metadata, and settle hit/waste accounting for the closed plan.
    fn close_window(&self, state: &PrefetchState, cause: TransitionCause) -> usize {
        let mut guard = state.window.lock();
        let mut window = guard.take();
        let withdrawn = self.withdraw_queued(window.as_mut(), cause);
        // Pins belong to the closing plan; the next plan re-pins as it
        // stages.
        self.policy.clear_pins();
        let Some(mut window) = window else {
            return withdrawn;
        };
        // Wasted work: staged onto a local tier but never read before the
        // plan closed. (Copies still running when the plan closes are in
        // `Copying` and settle as neither hit nor waste.)
        let source = self.hierarchy.source_id();
        for (name, issued, read_seen) in window.drain() {
            if issued && !read_seen {
                if let Some(info) = self.metadata.get(&name) {
                    if info.state == PlacementState::Placed && info.tier != source {
                        self.stats.prefetch_wasted();
                    }
                }
            }
        }
        withdrawn
    }

    /// Withdraw every queued-but-unstarted prefetch copy from the pool and
    /// revert its side effects; settle the entries in `window` when one is
    /// still open. Returns the number withdrawn.
    fn withdraw_queued(
        &self,
        mut window: Option<&mut PrefetchWindow>,
        cause: TransitionCause,
    ) -> usize {
        let canceled = self.pool.drain_prefetch();
        let withdrawn = canceled.len();
        for ctx in canceled {
            let _ = self.metadata.abort_copy(&ctx.label, false);
            self.policy.unpin(&ctx.label);
            self.transition(
                &ctx.label,
                Transition::Withdrawn {
                    tier: self.hierarchy.source_id(),
                    cause,
                },
            );
            if let Some(window) = window.as_deref_mut() {
                window.resolve_by_name(&ctx.label);
            }
        }
        withdrawn
    }

    /// Issue as much of the plan as the lookahead window and byte budget
    /// allow. Runs inline on plan submission and after each foreground
    /// read (the cursor advance is what releases more of the plan).
    fn pump(&self) {
        let Some(state) = &self.prefetch else { return };
        loop {
            let (idx, name, size) = {
                let mut guard = state.window.lock();
                let Some(window) = guard.as_mut() else { return };
                // Copies that left `Copying` (completed, skipped, failed,
                // or reverted by the panic handler) release byte budget.
                window.poll_resolved(|name| {
                    !matches!(
                        self.metadata.get(name),
                        Some(FileInfo {
                            state: PlacementState::Copying { .. },
                            ..
                        })
                    )
                });
                match window.next_to_issue() {
                    Some(pick) => pick,
                    None => return,
                }
            };
            // Scheduling happens outside the window lock: it touches the
            // metadata CAS, the journal, and the pool queue.
            let flow = self.schedule_prefetch(&name, size);
            let mut guard = state.window.lock();
            if let Some(window) = guard.as_mut() {
                match flow {
                    Some(f) => window.set_flow(idx, f),
                    // Lost the CAS (a demand copy got there first, or the
                    // file is already placed) or the pool refused: the
                    // entry is settled, release its budget share.
                    None => window.resolve(idx),
                }
            }
        }
    }

    /// Schedule one prefetch copy on the low-priority lane. Returns the
    /// trace flow id (`0` when tracing is off) on success, `None` when the
    /// copy was not scheduled (placement already in progress or done, or
    /// the pool is shutting down).
    fn schedule_prefetch(&self, file: &str, size: u64) -> Option<u64> {
        if self.shutting_down.load(Ordering::Acquire) {
            return None;
        }
        match self.metadata.begin_copy(file, 0) {
            Ok(true) => {}
            _ => return None,
        }
        if !self.admit(file, size, DecisionPoint::PrefetchAdmit) {
            let _ = self.metadata.abort_copy(file, false);
            return None;
        }
        self.transition(
            file,
            Transition::Scheduled {
                bytes: size,
                prefetch: true,
            },
        );
        // Like prestage, the flow starts at the scheduling span (there is
        // no foreground pread yet — the read it serves may be far in the
        // future) and finishes at the background copy_exec.
        let tr = self.telemetry.trace();
        let record = tr.is_enabled().then(|| {
            let traced = CopyRecord {
                flow: tr.next_id(),
                start_flow: true,
                prefetch: true,
                ..CopyRecord::default()
            };
            self.record_scheduled(file, size, traced)
        });
        let flow = record.map_or(0, |r| r.flow);
        let ctx = ReadCtx::traced(0, flow).on_lane(Lane::Prefetch);
        if !self.submit_copy(file, size, None, ctx, record) {
            return None;
        }
        // Staged speculatively: protect it from eviction until its planned
        // read arrives (or the plan closes) — evicting an unread prefetch
        // would waste the copy the plan just paid for.
        self.policy.pin(file);
        Some(flow)
    }

    /// A detached [`GaugeSampler`] over this engine's shared parts. The
    /// sampler holds only `Arc`s (plus a pool probe), so the metrics
    /// exporter can refresh gauges from its own threads without borrowing
    /// the engine — and keeps working, reporting drained queues, after the
    /// engine itself is gone.
    #[must_use]
    pub fn sampler(&self) -> GaugeSampler {
        GaugeSampler {
            hierarchy: Arc::clone(&self.hierarchy),
            metadata: Arc::clone(&self.metadata),
            telemetry: Arc::clone(&self.telemetry),
            probe: self.pool.probe(),
            prefetch: self.prefetch.as_ref().map(Arc::clone),
            shutting_down: Arc::clone(&self.shutting_down),
        }
    }
}

// ---------------------------------------------------------------------------
// GaugeSampler — point-in-time gauge refresh
// ---------------------------------------------------------------------------

/// Samples the live state of the hierarchy, the copy pool, and the
/// prefetch window into the telemetry [`GaugeRegistry`]. Scrape-driven:
/// the `/metrics` exporter (and the CLI snapshot path) calls
/// [`GaugeSampler::refresh`] right before rendering, so gauge values are
/// as fresh as the scrape without any background sampling thread.
///
/// [`GaugeRegistry`]: crate::telemetry::GaugeRegistry
#[derive(Clone)]
pub struct GaugeSampler {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    telemetry: Arc<TelemetryRegistry>,
    probe: PoolProbe,
    prefetch: Option<Arc<PrefetchState>>,
    shutting_down: Arc<AtomicBool>,
}

impl std::fmt::Debug for GaugeSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeSampler")
            .field("tiers", &self.hierarchy.levels())
            .field("prefetch", &self.prefetch.is_some())
            .finish()
    }
}

impl GaugeSampler {
    /// Re-sample every gauge family from live state. Cheap enough to run
    /// on each scrape: a handful of atomic loads plus two short lock
    /// acquisitions (pool queue, prefetch window).
    pub fn refresh(&self) {
        let queued = [Lane::Demand, Lane::Remote, Lane::Prefetch].map(|l| self.probe.queued(l));
        let prefetch = self.prefetch.as_ref().map(|state| {
            state.window.lock().as_ref().map_or((0, 0, 0), |w| {
                let lag = w.next_index().saturating_sub(w.cursor());
                (w.inflight(), w.inflight_bytes(), lag)
            })
        });
        let gauges = PipelineGauges {
            queued,
            inflight_jobs: self.probe.pending().saturating_sub(queued.iter().sum()),
            prefetch,
            draining: self.shutting_down.load(Ordering::Acquire),
            reads_in_flight: None,
        };
        publish_gauges(&self.telemetry, &self.hierarchy, &self.metadata, &gauges);
    }
}

// ---------------------------------------------------------------------------
// CopyJob — the background placement task
// ---------------------------------------------------------------------------

/// Everything a background placement task needs (the pool outlives `&self`
/// borrows, so tasks own `Arc`s).
struct CopyJob {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    policy: Arc<PolicyEngine>,
    stats: Arc<Stats>,
    telemetry: Arc<TelemetryRegistry>,
    shutting_down: Arc<AtomicBool>,
    /// Lane the copy was queued on — the residency timeline attributes the
    /// resulting admission to demand or to the plan accordingly.
    lane: Lane,
    /// Stage instants of a traced copy, opened when it was queued; `None`
    /// when the trigger was not sampled.
    record: Option<CopyRecord>,
    /// Drop the copy if a worker has not started it by this instant.
    deadline: Option<Instant>,
    /// Peer-cache residency feed, mirrored on admit/evict when present.
    cluster_feed: Option<ClusterFeed>,
    /// The engine's live-reservation registry (see
    /// [`TransferEngine::reservations`]).
    reservations: Arc<Mutex<HashMap<String, (TierId, u64)>>>,
}

impl CopyJob {
    /// The task's parts as a [`CopySite`].
    fn site(&self) -> CopySite<'_> {
        CopySite {
            hierarchy: &self.hierarchy,
            metadata: &self.metadata,
            policy: &self.policy,
            telemetry: &self.telemetry,
            cluster: self.cluster_feed.as_ref(),
        }
    }

    /// Stamp a traced copy's record from the registry clock; an untraced
    /// copy reads no clock.
    fn stamp(&self, record: &mut Option<CopyRecord>, f: impl FnOnce(&mut CopyRecord, u64)) {
        if let Some(r) = record {
            f(r, self.telemetry.now_micros());
        }
    }

    fn run(&self, file: &str, size: u64, inline_data: Option<Vec<u8>>) {
        if self.shutting_down.load(Ordering::Acquire) {
            let _ = self.metadata.abort_copy(file, false);
            return;
        }
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            // The request's freshness window closed while the copy sat in
            // the queue: doing the work now would be wasted bandwidth.
            // Same degradation as a failed copy — revert, retry on a later
            // touch. Remote installs journal the distinct `remote_timeout`
            // event (not a generic `copy_failed`): the peer bytes went
            // stale in the queue and the file falls back to the PFS, which
            // an operator reads very differently from a broken copy path.
            self.stats.copy_failed();
            self.stats.copy_deadline_expired();
            if self.lane == Lane::Remote {
                self.stats.remote_timeout();
                self.telemetry.event(EventKind::RemoteTimeout {
                    file: file.to_string(),
                    reason: "remote install deadline expired before a worker started it; file stays on the PFS"
                        .to_string(),
                });
            } else {
                self.telemetry.event(EventKind::CopyFailed {
                    file: file.to_string(),
                    reason: "copy deadline expired before a worker started it".to_string(),
                });
            }
            let _ = self.metadata.abort_copy(file, false);
            return;
        }
        let mut record = self.record.map(|r| CopyRecord {
            worker_tid: self.telemetry.trace().register_current_thread(),
            started_us: self.telemetry.now_micros(),
            ..r
        });
        let started = Instant::now();
        self.telemetry.event(EventKind::CopyStarted {
            file: file.to_string(),
        });
        let result = self.try_place(file, size, inline_data, &mut record);
        if let Some(mut r) = record {
            r.ended_us = self.telemetry.now_micros();
            r.outcome = match &result {
                Ok(Some(_)) => "completed",
                Ok(None) => "skipped",
                Err(_) => "failed",
            };
            self.telemetry
                .record_copy(file, size, self.policy.name(), &r);
        }
        let t_us = self.telemetry.now_micros();
        match result {
            Ok(Some(tier)) => {
                let admitted = Transition::Admitted {
                    tier,
                    bytes: size,
                    // Remote installs are demand driven: a foreground read
                    // triggered the peer fetch, only the install ran later.
                    cause: match self.lane {
                        Lane::Demand | Lane::Remote => TransitionCause::Demand,
                        Lane::Prefetch => TransitionCause::Plan,
                    },
                    copy_ns: Some(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)),
                };
                self.site().transition(t_us, file, admitted);
                if self.lane == Lane::Prefetch {
                    let profiler = self.telemetry.observe().profiler();
                    profiler.record_prefetch_staged(file, size, self.telemetry.now_micros());
                }
            }
            Ok(None) => {
                self.site().settle_unplaced(t_us, file);
            }
            Err(e) => {
                // I/O failure: revert to Unplaced so a later read may retry.
                // When a local tier is quarantined (this copy's failure may
                // be what tripped it), the revert is journaled as a
                // *requeue* rather than a plain failure: `Unplaced` re-arms
                // demand placement, and the policy's quarantine skip routes
                // the next attempt around the sick tier.
                if device_error_class(&e).is_some() && self.hierarchy.any_local_quarantined() {
                    let requeued = Transition::Requeued {
                        tier: None,
                        reason: &format!("target tier quarantined: {e}"),
                    };
                    self.site().transition(t_us, file, requeued);
                } else {
                    self.stats.copy_failed();
                    self.telemetry.event(EventKind::CopyFailed {
                        file: file.to_string(),
                        reason: e.to_string(),
                    });
                }
                let _ = self.metadata.abort_copy(file, false);
            }
        }
    }

    /// Returns `Ok(Some(tier))` if the file was placed on `tier`,
    /// `Ok(None)` if no tier had room, `Err` on I/O failure (quota
    /// released, nothing half-installed visible to readers).
    fn try_place(
        &self,
        file: &str,
        size: u64,
        inline_data: Option<Vec<u8>>,
        record: &mut Option<CopyRecord>,
    ) -> Result<Option<TierId>> {
        let reserved = self
            .site()
            .place_and_reserve(self.telemetry.now_micros(), file, size);
        self.stamp(record, |r, now| {
            r.decided_us = now;
            r.placed = reserved.as_ref().ok().copied().flatten();
        });
        let Some(Reservation { tier, .. }) = reserved? else {
            return Ok(None);
        };
        let dest = self.hierarchy.tier(tier)?;
        let quota = dest.quota.as_ref().ok_or(Error::UnknownTier(tier))?;
        // Register the live reservation so the pool's panic handler can
        // reclaim it if this task dies before the settlement below runs.
        self.reservations
            .lock()
            .insert(file.to_string(), (tier, size));

        // The install either succeeds or reports *which* tier failed, so
        // health accounting blames the source on a failed read and the
        // destination on a failed write.
        let mut install = || -> std::result::Result<(), (TierId, Error)> {
            let data = match inline_data {
                Some(ref data) => data.clone(),
                None => {
                    let source = self.hierarchy.source();
                    let data = source.driver.read_full(file).map_err(|e| (source.id, e))?;
                    self.stats.record_read(source.id, data.len() as u64);
                    self.stamp(record, |r, now| r.fetched_us = Some(now));
                    data
                }
            };
            dest.driver.write_full(file, &data).map_err(|e| (tier, e))?;
            self.stats.record_write(tier, data.len() as u64);
            self.stamp(record, |r, now| r.written_us = Some(now));
            Ok(())
        };
        // Copy-path fault handling: transient device errors back off and
        // retry in place; ENOSPC (the quota had room but the device
        // disagrees — accounting drift or a shared device filling up
        // outside Monarch) evicts one resident file and retries once;
        // anything else fails the copy. Every device error feeds the tier
        // health tracker of the tier that produced it.
        let health = self.hierarchy.health();
        let retry = health.retry_policy();
        let mut attempts = 0u32;
        let mut evicted_for_space = false;
        let failure = loop {
            let (err_tier, e) = match install() {
                Ok(()) => break None,
                Err(te) => te,
            };
            let Some(class) = device_error_class(&e) else {
                break Some(e);
            };
            let reason = || format!("copy of '{file}' failed: {e}");
            charge_device_error(
                health,
                &self.telemetry,
                err_tier,
                class,
                health.now_us(),
                reason,
            );
            match class {
                ErrorClass::Transient if attempts < retry.max_attempts => {
                    attempts += 1;
                    self.stats.copy_retry();
                    std::thread::sleep(Duration::from_micros(retry.backoff_us(attempts, size)));
                }
                ErrorClass::Capacity if !evicted_for_space && err_tier == tier => {
                    evicted_for_space = true;
                    if !self.evict_for_space(file, tier) {
                        break Some(e);
                    }
                    self.stats.enospc_eviction();
                }
                _ => break Some(e),
            }
        };
        self.reservations.lock().remove(file);
        match failure {
            None => {
                self.metadata.finish_copy(file, tier)?;
                self.policy.on_placed(file, size, tier);
                health.record_success(tier);
                Ok(Some(tier))
            }
            Some(e) => {
                quota.release(size);
                // Best effort: remove a possibly half-written destination
                // file (the POSIX driver's rename makes this a no-op there).
                if dest.driver.remove(file).is_ok() {
                    self.stats.record_remove(tier);
                    self.telemetry.event(EventKind::Removed {
                        file: file.to_string(),
                        tier,
                    });
                }
                Err(e)
            }
        }
    }

    /// ENOSPC recovery: evict one file resident on `tier` (other than
    /// `keep`, the file being installed) back to the PFS to free real
    /// device space. The eviction policy picks the victim when it has a
    /// preference among the resident candidates; otherwise the first
    /// non-exempt resident goes, so pressure is relieved even under
    /// no-eviction policies. Returns whether a victim was evicted.
    fn evict_for_space(&self, keep: &str, tier: TierId) -> bool {
        let mut candidates: Vec<(String, u64)> = Vec::new();
        self.metadata.for_each(|name, info| {
            if name != keep && info.state == PlacementState::Placed && info.tier == tier {
                candidates.push((name.to_string(), info.size));
            }
        });
        let Some(victim) = self.policy.pressure_victim(tier, &candidates, keep) else {
            return false;
        };
        let vsize = candidates
            .iter()
            .find(|(name, _)| *name == victim)
            .map_or(0, |(_, size)| *size);
        self.site()
            .evict(
                self.telemetry.now_micros(),
                &victim,
                tier,
                vsize,
                TransitionCause::Policy,
                "evicted under ENOSPC pressure to free real device space",
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::config::{AdmissionKind, PolicyKind};
    use crate::driver::testing::{open_gate, FlakyDriver, FlakyOutcome, Gate, GatedDriver};
    use crate::driver::{MemDriver, StorageDriver};
    use std::time::Duration;

    // -- LaneQueues ---------------------------------------------------------

    #[test]
    fn lane_queues_pop_demand_first() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, "p0");
        q.push(Lane::Prefetch, "p1");
        q.push(Lane::Demand, "d0");
        assert_eq!(q.len(), 3);
        assert_eq!(q.queued(Lane::Demand), 1);
        assert_eq!(q.queued(Lane::Prefetch), 2);
        assert_eq!(q.pop(), Some(("d0", Lane::Demand)));
        assert_eq!(q.pop(), Some(("p0", Lane::Prefetch)));
        assert_eq!(q.pop(), Some(("p1", Lane::Prefetch)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_queues_promote_moves_entry_behind_existing_demand() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, "a");
        q.push(Lane::Prefetch, "b");
        q.push(Lane::Demand, "d");
        assert!(q.promote_where(|&x| x == "b"));
        assert!(
            !q.promote_where(|&x| x == "b"),
            "an entry promotes at most once"
        );
        assert!(!q.promote_where(|&x| x == "missing"));
        // Promoted entries queue behind existing demand but report the
        // demand lane when popped.
        assert_eq!(q.pop(), Some(("d", Lane::Demand)));
        assert_eq!(q.pop(), Some(("b", Lane::Demand)));
        assert_eq!(q.pop(), Some(("a", Lane::Prefetch)));
    }

    #[test]
    fn lane_queues_drain_prefetch_leaves_demand() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, 1);
        q.push(Lane::Demand, 2);
        q.push(Lane::Prefetch, 3);
        assert_eq!(q.drain_prefetch(), vec![1, 3]);
        assert_eq!(q.queued(Lane::Prefetch), 0);
        assert_eq!(q.pop(), Some((2, Lane::Demand)));
    }

    #[test]
    fn lane_queues_remote_sits_between_demand_and_prefetch() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, "p");
        q.push(Lane::Remote, "r");
        q.push(Lane::Demand, "d");
        assert_eq!(q.len(), 3);
        assert_eq!(q.queued(Lane::Remote), 1);
        assert_eq!(q.pop(), Some(("d", Lane::Demand)));
        assert_eq!(q.pop(), Some(("r", Lane::Remote)));
        assert_eq!(q.pop(), Some(("p", Lane::Prefetch)));
        assert!(q.is_empty());
    }

    #[test]
    fn lane_queues_drain_prefetch_leaves_remote() {
        // Remote entries are demand driven (a trainer already waited for
        // the peer fetch); a plan boundary must not throw them away.
        let mut q = LaneQueues::new();
        q.push(Lane::Remote, 1);
        q.push(Lane::Prefetch, 2);
        assert_eq!(q.drain_prefetch(), vec![2]);
        assert_eq!(q.queued(Lane::Remote), 1);
        assert_eq!(q.pop(), Some((1, Lane::Remote)));
    }

    // -- TransferEngine driven directly (no Monarch) ------------------------

    /// A PFS holding `n` 512-byte files named `f000`, `f001`, ...
    fn staged_pfs(n: usize) -> MemDriver {
        let pfs = MemDriver::new("pfs");
        for i in 0..n {
            pfs.insert(&format!("f{i:03}"), vec![i as u8; 512]);
        }
        pfs
    }

    fn assemble(
        pfs: Arc<dyn StorageDriver>,
        threads: usize,
        prefetch: PrefetchConfig,
    ) -> TransferEngine {
        let ssd = Arc::new(MemDriver::new("ssd"));
        assemble_with(ssd, 1 << 20, PolicyKind::FirstFit, pfs, threads, prefetch)
    }

    /// [`assemble`] over an explicit local tier, capacity and policy.
    fn assemble_with(
        local: Arc<dyn StorageDriver>,
        cap: u64,
        policy: PolicyKind,
        pfs: Arc<dyn StorageDriver>,
        threads: usize,
        prefetch: PrefetchConfig,
    ) -> TransferEngine {
        let hierarchy = Arc::new(
            StorageHierarchy::new(vec![
                ("ssd".into(), local, Some(cap)),
                ("pfs".into(), pfs, None),
            ])
            .unwrap(),
        );
        let metadata = Arc::new(MetadataContainer::default());
        for (name, size) in hierarchy.source().driver.list().unwrap() {
            metadata.register(&name, size, hierarchy.source_id());
        }
        let stats = Arc::new(Stats::new(hierarchy.levels()));
        let telemetry = Arc::new(TelemetryRegistry::new(
            vec!["ssd".into(), "pfs".into()],
            Arc::clone(&stats),
            &TelemetryConfig::default(),
        ));
        let policy = Arc::new(PolicyEngine::from_kind(policy, AdmissionKind::AdmitAll));
        TransferEngine::new(
            hierarchy, metadata, policy, stats, telemetry, threads, prefetch,
        )
    }

    /// Single-worker engine over a gated PFS: a demand copy pins the
    /// worker inside the gated source fetch, so queued jobs pile up
    /// deterministically behind it.
    fn gated_engine(n: usize, lookahead: usize) -> (TransferEngine, Gate) {
        let (gated, gate) = GatedDriver::new(staged_pfs(n));
        let engine = assemble(
            Arc::new(gated),
            1,
            PrefetchConfig {
                lookahead,
                max_inflight_bytes: 0,
            },
        );
        (engine, gate)
    }

    /// Pin the single worker: schedule a demand copy of `file` and wait
    /// for its `copy_started` journal event (fired just before the gated
    /// source fetch blocks).
    fn pin_worker(engine: &TransferEngine, file: &str) {
        assert!(engine.demand(file, 512, None, ReadCtx::untraced()));
        let started = || {
            engine
                .telemetry
                .journal()
                .events()
                .iter()
                .any(|e| e.kind.tag() == "copy_started" && e.kind.file() == file)
        };
        for _ in 0..10_000 {
            if started() {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        panic!("worker never started the pinning copy of {file}");
    }

    fn started_order(engine: &TransferEngine) -> Vec<String> {
        engine
            .telemetry
            .journal()
            .events()
            .iter()
            .filter(|e| e.kind.tag() == "copy_started")
            .map(|e| e.kind.file().to_string())
            .collect()
    }

    fn plan_of(names: &[&str]) -> AccessPlan {
        AccessPlan::new(names.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn demand_runs_before_queued_prefetch() {
        let (mut engine, gate) = gated_engine(4, 8);
        pin_worker(&engine, "f000");
        // Two plan entries queue on the prefetch lane behind the pinned
        // copy; a later demand copy must still run before both.
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        assert_eq!(engine.queued(Lane::Prefetch), 2);
        assert!(engine.demand("f003", 512, None, ReadCtx::untraced()));
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f003", "f001", "f002"]);
        assert_eq!(engine.stats.snapshot().copies_completed, 4);
        let report = engine.drain();
        assert_eq!(
            report,
            DrainReport {
                canceled: 0,
                join_failures: 0
            }
        );
    }

    #[test]
    fn note_read_promotes_queued_prefetch_job() {
        let (mut engine, gate) = gated_engine(3, 8);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        // A foreground read for the *second* queued entry upgrades its
        // existing job to the demand lane instead of duplicating the copy.
        let fb = engine.note_read("f002", engine.hierarchy.source_id());
        assert!(fb.planned, "f002 was covered by the submitted plan");
        assert!(!fb.prefetch_hit, "still served from the source");
        let stats = engine.stats.snapshot();
        assert_eq!(stats.prefetch_promoted, 1);
        assert_eq!(stats.copies_scheduled, 3, "no duplicate copy for f002");
        assert_eq!(engine.queued(Lane::Demand), 1);
        assert_eq!(engine.queued(Lane::Prefetch), 1);
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f002", "f001"]);
        engine.drain();
    }

    #[test]
    fn drain_cancels_queued_prefetch_before_joining_workers() {
        // Regression (shutdown ordering): with the worker pinned inside an
        // in-flight copy, drain() must withdraw the queued prefetch jobs
        // *before* joining — otherwise the worker would execute the
        // speculative copies on its way out.
        let (mut engine, gate) = gated_engine(3, 8);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        // Release the in-flight copy only after drain has begun joining.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            open_gate(&gate);
        });
        let report = engine.drain();
        opener.join().unwrap();
        assert_eq!(report.canceled, 2, "both queued prefetch copies withdrawn");
        assert_eq!(report.join_failures, 0);
        // The in-flight copy finished; the canceled ones never ran and
        // their metadata reverted.
        assert_eq!(started_order(&engine), vec!["f000"]);
        assert_eq!(
            engine.metadata.get("f000").unwrap().state,
            PlacementState::Placed
        );
        for f in ["f001", "f002"] {
            let info = engine.metadata.get(f).unwrap();
            assert_eq!(info.state, PlacementState::Unplaced, "{f} reverted");
            assert_eq!(info.tier, engine.hierarchy.source_id());
        }
        let stats = engine.stats.snapshot();
        assert_eq!(stats.prefetch_canceled, 2);
        assert_eq!(stats.copies_completed, 1);
        // The canceled count is journaled, after the per-file cancels.
        let events = engine.telemetry.journal().events();
        let drained = events
            .iter()
            .find(|e| e.kind.tag() == "prefetch_drained")
            .expect("drain journals the canceled count");
        assert!(drained.to_json_line().contains("\"canceled\":2"));
        let last_cancel = events
            .iter()
            .filter(|e| e.kind.tag() == "prefetch_canceled")
            .map(|e| e.seq)
            .max()
            .unwrap();
        assert!(drained.seq > last_cancel);
    }

    #[test]
    fn remote_admit_runs_after_demand_but_before_prefetch() {
        let (mut engine, gate) = gated_engine(5, 8);
        let view = Arc::new(crate::cluster::ClusterView::new());
        engine.set_cluster_feed(Arc::clone(&view), 3);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001"])), 1);
        // Peer-fetched install queues on the remote lane; a later local
        // demand miss still outranks it.
        assert!(engine.remote_admit("f002", 512, vec![2u8; 512], 1, ReadCtx::untraced()));
        assert!(engine.demand("f003", 512, None, ReadCtx::untraced()));
        assert_eq!(engine.queued(Lane::Remote), 1);
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f003", "f002", "f001"]);
        // The install ran from the inline peer bytes — placed without a
        // second source fetch — and journaled the scheduling peer.
        assert_eq!(
            engine.metadata.get("f002").unwrap().state,
            PlacementState::Placed
        );
        let events = engine.telemetry.journal().events();
        let sched = events
            .iter()
            .find(|e| e.kind.tag() == "remote_scheduled")
            .expect("remote install journaled");
        let line = sched.to_json_line();
        assert!(line.contains("\"file\":\"f002\""), "{line}");
        assert!(line.contains("\"peer\":1"), "{line}");
        // Every admit this engine performed fed the cluster view under the
        // configured node id.
        for f in ["f000", "f001", "f002", "f003"] {
            assert!(view.holds(f, 3), "{f} missing from the cluster view");
        }
        engine.drain();
    }

    #[test]
    fn remote_admit_dedups_against_inflight_copies() {
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        // The pinned demand copy holds f000's CAS: a remote install for
        // the same file must not double-schedule (or double-journal).
        assert!(!engine.remote_admit("f000", 512, vec![0u8; 512], 1, ReadCtx::untraced()));
        open_gate(&gate);
        engine.wait_idle();
        assert!(engine
            .telemetry
            .journal()
            .events()
            .iter()
            .all(|e| e.kind.tag() != "remote_scheduled"));
        engine.drain();
    }

    #[test]
    fn remote_deadline_expiry_journals_remote_timeout() {
        // Satellite fix: a remote install whose deadline lapses in the
        // queue journals the distinct `remote_timeout` event, not a
        // generic `copy_failed`, and the file falls back to the PFS.
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        assert!(engine.remote_admit(
            "f001",
            512,
            vec![1u8; 512],
            1,
            ReadCtx::untraced().with_deadline(Instant::now())
        ));
        std::thread::sleep(Duration::from_millis(2));
        open_gate(&gate);
        engine.wait_idle();
        let stats = engine.stats.snapshot();
        assert_eq!(stats.remote_timeouts, 1);
        assert_eq!(stats.copies_completed, 1, "only the pinned copy ran");
        let info = engine.metadata.get("f001").unwrap();
        assert_eq!(info.state, PlacementState::Unplaced, "fell back to the PFS");
        assert_eq!(info.tier, engine.hierarchy.source_id());
        let events = engine.telemetry.journal().events();
        assert!(
            events
                .iter()
                .any(|e| e.kind.tag() == "remote_timeout" && e.kind.file() == "f001"),
            "distinct remote_timeout event journaled"
        );
        assert!(
            events
                .iter()
                .all(|e| !(e.kind.tag() == "copy_failed" && e.kind.file() == "f001")),
            "no generic copy_failed for the timed-out remote install"
        );
        engine.drain();
    }

    #[test]
    fn expired_deadline_drops_copy_instead_of_running_it() {
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        // Queued behind the pinned worker with an already-expired deadline:
        // by the time a worker dequeues it, the freshness window is gone.
        let expired = Instant::now();
        assert!(engine.demand(
            "f001",
            512,
            None,
            ReadCtx::untraced().with_deadline(expired)
        ));
        std::thread::sleep(Duration::from_millis(2));
        open_gate(&gate);
        engine.wait_idle();
        let stats = engine.stats.snapshot();
        assert_eq!(stats.copies_completed, 1, "only the pinned copy ran");
        assert_eq!(stats.copies_failed, 1);
        let info = engine.metadata.get("f001").unwrap();
        assert_eq!(
            info.state,
            PlacementState::Unplaced,
            "dropped copy reverted"
        );
        let events = engine.telemetry.journal().events();
        let failed = events
            .iter()
            .find(|e| e.kind.tag() == "copy_failed" && e.kind.file() == "f001")
            .expect("deadline drop journaled");
        assert!(failed.to_json_line().contains("deadline"));
        // The copy never started: no copy_started event for f001.
        assert_eq!(started_order(&engine), vec!["f000"]);
        engine.drain();
    }

    #[test]
    fn evict_returns_resident_file_to_the_source() {
        let mut engine = assemble(Arc::new(staged_pfs(2)), 2, PrefetchConfig::disabled());
        assert!(engine.demand("f000", 512, None, ReadCtx::untraced()));
        engine.wait_idle();
        assert_eq!(engine.metadata.get("f000").unwrap().tier, 0);
        let quota_used = || {
            engine
                .hierarchy
                .tier(0)
                .unwrap()
                .quota
                .as_ref()
                .unwrap()
                .used()
        };
        assert_eq!(quota_used(), 512);

        assert!(engine.evict("f000").unwrap());
        let info = engine.metadata.get("f000").unwrap();
        assert_eq!(info.tier, engine.hierarchy.source_id());
        assert_eq!(info.state, PlacementState::Unplaced);
        assert_eq!(quota_used(), 0, "eviction released the quota");
        assert_eq!(engine.stats.snapshot().evictions, 1);
        assert!(engine
            .telemetry
            .journal()
            .events()
            .iter()
            .any(|e| e.kind.tag() == "evicted" && e.kind.file() == "f000"));

        // Not resident any more: a second evict is a no-op...
        assert!(!engine.evict("f000").unwrap());
        // ...an unknown name is an error...
        assert!(matches!(
            engine.evict("missing"),
            Err(Error::UnknownFile(_))
        ));
        // ...and a later demand places the file again.
        assert!(engine.demand("f000", 512, None, ReadCtx::untraced()));
        engine.wait_idle();
        assert_eq!(engine.metadata.get("f000").unwrap().tier, 0);
        engine.drain();
    }

    #[test]
    fn every_eviction_entry_point_records_one_transition() {
        // Two 512-byte files fit the local tier. Each eviction entry point
        // (explicit, ENOSPC pressure, policy pressure) must land exactly
        // once in every view: counter, journal, policy verdict, timeline
        // and the peer-cache view. Each victim is unlinked from the tier
        // and its quota released exactly once.
        let ssd = Arc::new(FlakyDriver::new(MemDriver::new("ssd")));
        let mut engine = assemble_with(
            Arc::clone(&ssd) as Arc<dyn StorageDriver>,
            1024,
            PolicyKind::LruEvict,
            Arc::new(staged_pfs(4)),
            1,
            PrefetchConfig::disabled(),
        );
        let view = Arc::new(crate::cluster::ClusterView::new());
        engine.set_cluster_feed(Arc::clone(&view), 2);
        let place = |file: &str| {
            assert!(engine.demand(file, 512, None, ReadCtx::untraced()));
            engine.wait_idle();
            assert_eq!(engine.metadata.get(file).unwrap().tier, 0, "{file} placed");
        };
        let records = |point: &str| {
            let events = engine.telemetry.journal().events();
            let verdicts = events.iter().filter(|e| {
                matches!(&e.kind, EventKind::PolicyDecision { verdict, point: p, .. }
                    if verdict == "evict" && p == point)
            });
            let timeline = engine.telemetry.observe().timeline().snapshot();
            (
                engine.stats.snapshot().evictions,
                events.iter().filter(|e| e.kind.tag() == "evicted").count(),
                verdicts.count(),
                timeline
                    .events
                    .iter()
                    .filter(|e| e.kind == ResidencyEventKind::Evicted)
                    .count(),
            )
        };
        let used = || {
            engine
                .hierarchy
                .tier(0)
                .unwrap()
                .quota
                .as_ref()
                .unwrap()
                .used()
        };
        // `victim` is gone from the tier driver and the quota moved by
        // exactly `placed` bytes in and the victim's 512 bytes out.
        let evicted_once = |victim: &str, used_before: u64, placed: u64| {
            assert!(ssd.file_size(victim).is_err(), "{victim} unlinked");
            assert_eq!(used() + 512, used_before + placed, "{victim} released once");
        };
        place("f000");
        place("f001");
        assert!(view.holds("f000", 2) && view.holds("f001", 2));

        let before = used();
        assert!(engine.evict("f000").unwrap());
        assert_eq!(records("plan_evict"), (1, 1, 1, 1), "explicit evict");
        assert!(!view.holds("f000", 2));
        evicted_once("f000", before, 0);

        // The quota has room but the device reports ENOSPC once: the
        // install evicts the other resident and retries.
        ssd.script_writes([FlakyOutcome::Enospc]);
        let before = used();
        place("f000");
        assert_eq!(records("pressure_evict"), (2, 2, 1, 2), "ENOSPC evict");
        assert!(!view.holds("f001", 2) && view.holds("f000", 2));
        evicted_once("f001", before, 512);

        // The quota is full: LRU makes room for the newcomer.
        place("f002");
        let before = used();
        place("f003");
        assert_eq!(records("pressure_evict"), (3, 3, 2, 3), "policy evict");
        assert!(!view.holds("f000", 2), "the LRU victim left the view");
        assert_eq!(view.files(), 2);
        evicted_once("f000", before, 512);
        engine.drain();
    }

    #[test]
    fn evicting_an_already_missing_copy_still_releases_its_quota() {
        // The simulator's tiers hold no bytes, and a cached copy can vanish
        // behind Monarch's back: an unlink that finds nothing counts as
        // done, so the eviction still releases the quota and is recorded.
        let ssd = Arc::new(MemDriver::new("ssd"));
        let mut engine = assemble_with(
            Arc::clone(&ssd) as Arc<dyn StorageDriver>,
            1 << 20,
            PolicyKind::FirstFit,
            Arc::new(staged_pfs(1)),
            1,
            PrefetchConfig::disabled(),
        );
        assert!(engine.demand("f000", 512, None, ReadCtx::untraced()));
        engine.wait_idle();
        ssd.remove("f000").unwrap();
        assert!(engine.evict("f000").unwrap());
        let quota = engine.hierarchy.tier(0).unwrap().quota.as_ref().unwrap();
        assert_eq!(quota.used(), 0);
        let info = engine.metadata.get("f000").unwrap();
        assert_eq!(info.state, PlacementState::Unplaced);
        assert_eq!(engine.stats.snapshot().evictions, 1);
        engine.drain();
    }

    #[test]
    fn drain_without_prefetcher_still_purges_the_lane() {
        // The ordering guarantee must not depend on configuration: even
        // with no prefetcher, jobs sitting on the prefetch lane are
        // withdrawn rather than executed at shutdown.
        let (gated, gate) = GatedDriver::new(staged_pfs(3));
        let mut engine = assemble(Arc::new(gated), 1, PrefetchConfig::disabled());
        pin_worker(&engine, "f000");
        assert!(engine.demand(
            "f001",
            512,
            None,
            ReadCtx::untraced().on_lane(Lane::Prefetch)
        ));
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            open_gate(&gate);
        });
        let report = engine.drain();
        opener.join().unwrap();
        assert_eq!(report.canceled, 1);
        assert_eq!(
            engine.metadata.get("f001").unwrap().state,
            PlacementState::Unplaced
        );
        assert_eq!(started_order(&engine), vec!["f000"]);
    }

    #[test]
    fn sampler_refreshes_tier_lane_and_prefetch_gauges() {
        let (mut engine, gate) = gated_engine(6, 8);
        let sampler = engine.sampler();
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002", "f003"])), 3);
        sampler.refresh();
        let gauge_of = |name: &str, snap: &[crate::telemetry::GaugeSnapshot]| {
            snap.iter()
                .filter(|g| g.name == name)
                .map(|g| (g.labels.clone(), g.value))
                .collect::<Vec<_>>()
        };
        let snap = engine.telemetry.gauges().snapshot();
        // The pinned copy is executing; the three plan entries queue
        // behind it on the prefetch lane.
        assert_eq!(
            gauge_of("monarch_lane_queued", &snap),
            vec![
                (vec![("lane".into(), "demand".into())], 0.0),
                (vec![("lane".into(), "remote".into())], 0.0),
                (vec![("lane".into(), "prefetch".into())], 3.0),
            ]
        );
        assert_eq!(
            gauge_of("monarch_pool_inflight_jobs", &snap),
            vec![(vec![], 1.0)]
        );
        assert_eq!(
            gauge_of("monarch_prefetch_inflight_copies", &snap),
            vec![(vec![], 3.0)]
        );
        assert_eq!(gauge_of("monarch_draining", &snap), vec![(vec![], 0.0)]);
        // Capacity is the configured 1 MiB quota; nothing has landed yet.
        assert_eq!(
            gauge_of("monarch_tier_capacity_bytes", &snap),
            vec![(vec![("tier".into(), "ssd".into())], (1 << 20) as f64)]
        );
        assert_eq!(
            gauge_of("monarch_tier_files", &snap),
            vec![
                (vec![("tier".into(), "ssd".into())], 0.0),
                (vec![("tier".into(), "pfs".into())], 6.0),
            ]
        );

        open_gate(&gate);
        engine.wait_idle();
        engine.drain();
        sampler.refresh();
        let snap = engine.telemetry.gauges().snapshot();
        // All four copies landed on the SSD: occupancy, files, and the
        // drain flag all moved; both lanes are empty again.
        assert_eq!(
            gauge_of("monarch_tier_occupancy_bytes", &snap),
            vec![(vec![("tier".into(), "ssd".into())], 4.0 * 512.0)]
        );
        assert_eq!(
            gauge_of("monarch_tier_files", &snap),
            vec![
                (vec![("tier".into(), "ssd".into())], 4.0),
                (vec![("tier".into(), "pfs".into())], 2.0),
            ]
        );
        assert_eq!(
            gauge_of("monarch_lane_queued", &snap),
            vec![
                (vec![("lane".into(), "demand".into())], 0.0),
                (vec![("lane".into(), "remote".into())], 0.0),
                (vec![("lane".into(), "prefetch".into())], 0.0),
            ]
        );
        assert_eq!(
            gauge_of("monarch_pool_inflight_jobs", &snap),
            vec![(vec![], 0.0)]
        );
        assert_eq!(gauge_of("monarch_draining", &snap), vec![(vec![], 1.0)]);
        // Rendered exposition carries the gauge families too.
        let text = engine.telemetry.prometheus_text();
        assert!(text.contains("# TYPE monarch_tier_occupancy_bytes gauge"));
        assert!(text.contains("monarch_lane_queued{lane=\"demand\"} 0"));
    }
}
