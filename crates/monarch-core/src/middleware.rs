//! The [`Monarch`] facade: the read path.
//!
//! `Monarch` ties the metadata container and storage hierarchy to the
//! `Monarch.read` operation that replaces the framework's `pread`, and
//! hands every data-movement *intent* to the
//! [`TransferEngine`](crate::transfer::TransferEngine) — one copy pipeline
//! for demand placement, pre-staging, clairvoyant prefetch, and eviction.
//! Construction goes through [`crate::MonarchBuilder`].
//!
//! Operation flow for a read of file `X` (paper §III-B):
//!
//! 1. look `X` up in the metadata container → current tier;
//! 2. forward the read to that tier's storage driver and return the bytes;
//! 3. if `X` has never been considered for placement, hand a demand intent
//!    to the engine, which atomically wins the `Unplaced → Copying`
//!    transition and runs the policy + full-file copy on a pool thread,
//!    flipping the metadata so subsequent reads are served locally.
//!
//! Failures in the background path release reserved quota and revert the
//! metadata, so a crashed copy degrades to "file stays on the PFS".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::builder::MonarchBuilder;
use crate::cluster::{Cluster, ClusterSnapshot, PeerError};
use crate::config::MonarchConfig;
use crate::health::charge_device_error;
use crate::hierarchy::StorageHierarchy;
use crate::metadata::{MetadataContainer, PlacementState};
use crate::observe::ReadClass;
use crate::prefetch::AccessPlan;
use crate::serve::MetricsServer;
use crate::stats::{Stats, StatsSnapshot};
use crate::telemetry::{
    EventKind, Gauge, GaugeGuard, ReadOutcome, ReadSpan, TelemetryRegistry, TelemetrySnapshot,
};
use crate::trace::{names, SpanRecord};
use crate::transfer::{GaugeSampler, ReadCtx, TransferEngine, READS_IN_FLIGHT_GAUGE};
use crate::{Error, Result};

/// Outcome of the startup namespace scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitReport {
    /// Files discovered on the PFS source tier.
    pub files: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Wall-clock duration of the scan.
    pub elapsed: Duration,
}

/// The MONARCH middleware instance.
pub struct Monarch {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    stats: Arc<Stats>,
    telemetry: Arc<TelemetryRegistry>,
    engine: TransferEngine,
    full_file_fetch: bool,
    /// Distributed peer cache, when configured: a miss on a peer-owned
    /// file tries the owner's fast tier before falling back to the PFS.
    cluster: Option<Arc<Cluster>>,
    /// Shared with the engine (its drain sets it), so reads are rejected
    /// as soon as shutdown begins.
    shutting_down: Arc<AtomicBool>,
    /// Open read handles, balanced across early returns by a guard.
    reads_in_flight: Arc<Gauge>,
    /// The `/metrics` exporter, when one was started via
    /// [`Monarch::serve`] (or the builder's `metrics_addr`). Stopped on
    /// shutdown so its threads never outlive the instance.
    server: std::sync::Mutex<Option<MetricsServer>>,
}

impl Monarch {
    /// Build a middleware instance from a configuration, constructing the
    /// backend drivers. Equivalent to
    /// `MonarchBuilder::from_config(config)?.build()`.
    pub fn new(config: MonarchConfig) -> Result<Self> {
        MonarchBuilder::from_config(config)?.build()
    }

    /// Assemble the facade over parts the builder constructed.
    pub(crate) fn from_parts(
        hierarchy: Arc<StorageHierarchy>,
        metadata: Arc<MetadataContainer>,
        stats: Arc<Stats>,
        telemetry: Arc<TelemetryRegistry>,
        engine: TransferEngine,
        full_file_fetch: bool,
        cluster: Option<Arc<Cluster>>,
    ) -> Self {
        let shutting_down = engine.shutdown_flag();
        let reads_in_flight =
            telemetry
                .gauges()
                .gauge(READS_IN_FLIGHT_GAUGE.0, READS_IN_FLIGHT_GAUGE.1, &[]);
        Self {
            hierarchy,
            metadata,
            stats,
            telemetry,
            engine,
            full_file_fetch,
            cluster,
            shutting_down,
            reads_in_flight,
            server: std::sync::Mutex::new(None),
        }
    }

    /// Populate the metadata container by scanning the PFS source tier —
    /// run once at startup, before the framework issues reads.
    pub fn init(&self) -> Result<InitReport> {
        let start = Instant::now();
        let source = self.hierarchy.source();
        let mut files = 0u64;
        let mut bytes = 0u64;
        for (name, size) in source.driver.list()? {
            if self.metadata.register(&name, size, source.id) {
                files += 1;
                bytes += size;
            }
        }
        Ok(InitReport {
            files,
            bytes,
            elapsed: start.elapsed(),
        })
    }

    /// The `Monarch.read` operation: read up to `buf.len()` bytes of `file`
    /// starting at `offset`, from whichever tier currently holds it.
    /// Returns the number of bytes read (0 at end-of-file).
    pub fn read(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.read_impl(file, offset, buf, 0)
    }

    /// [`Monarch::read`] with an optional trace parent (`0` = root): the
    /// recorded `read` span is parented under the caller's span so
    /// `read_full` renders as one tree in the viewer.
    fn read_impl(&self, file: &str, offset: u64, buf: &mut [u8], parent: u64) -> Result<usize> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(Error::ShutDown);
        }
        let _handle = GaugeGuard::enter(&self.reads_in_flight);
        // One clock chain times the read's phases; every view of the read
        // (counters, stall histograms, profiler, sampled spans) is fed
        // from it by a single `record_read` once the read completes. With
        // telemetry off no clock is read at all.
        let tr = self.telemetry.trace();
        let sampled = tr.sample_read();
        let mut clock = ReadClock::start(self.telemetry.is_enabled());
        // Peer cache: a miss on a peer-owned file is served node-to-node
        // from the owner's fast tier, skipping the PFS entirely when the
        // peer answers. Any peer failure falls through to the normal path.
        if let Some(n) = self.peer_read(file, offset, buf, &mut clock) {
            return Ok(n);
        }
        // Fault tolerance rides on one loop: transient device errors are
        // retried in place with backoff, sustained failure quarantines the
        // tier and the read falls back down-hierarchy to the PFS source
        // (graceful degradation — never an error while the source is
        // healthy), and a read arriving after the quarantine cooldown may
        // win the half-open probe slot and test the tier directly.
        let health = Arc::clone(self.hierarchy.health());
        let retry = health.retry_policy();
        let source_id = self.hierarchy.source_id();
        let mut attempts = 0u32;
        // Once a pread on the resident tier has failed terminally, every
        // later iteration serves from the PFS source instead.
        let mut fallback = false;
        let (info, tier, n) = loop {
            let info = self.metadata.lookup_for_read(file)?;
            self.engine.note_access(file, info.tier);
            clock.mark(ReadClock::LOOKUP);
            if offset >= info.size {
                return Ok(0);
            }
            let resident = self.hierarchy.tier(info.tier)?;
            // Pick the serving tier: normally the resident one; the PFS
            // source when the resident tier is quarantined or already
            // failed this read — unless this read wins the probe slot.
            let mut probing = false;
            let tier = if info.tier != source_id
                && (fallback || health.tier(info.tier).is_quarantined())
            {
                if !fallback && health.tier(info.tier).probe_permit(health.now_us()) {
                    probing = true;
                    resident
                } else {
                    self.hierarchy.tier(source_id)?
                }
            } else {
                resident
            };
            clock.mark(ReadClock::RESOLVE);
            let want = buf.len().min((info.size - offset) as usize);
            match tier.driver.read_at(file, offset, &mut buf[..want]) {
                Ok(n) => {
                    clock.mark(ReadClock::PREAD);
                    if probing {
                        health
                            .tier(tier.id)
                            .probe_result(true, &health.config(), health.now_us());
                        let t_us = self.telemetry.now_micros();
                        self.telemetry.tier_probed(t_us, tier.id, true);
                    } else if tier.id == info.tier {
                        health.record_success(tier.id);
                    }
                    break (info, tier, n);
                }
                Err(e) => {
                    if probing {
                        // Failed probe: re-arm the cooldown and serve this
                        // read from the source on the next iteration.
                        health
                            .tier(tier.id)
                            .probe_result(false, &health.config(), health.now_us());
                        let t_us = self.telemetry.now_micros();
                        self.telemetry.tier_probed(t_us, tier.id, false);
                        continue;
                    }
                    let Some(class) = crate::health::device_error_class(&e) else {
                        // Logic errors (unknown file, shutdown) propagate
                        // untouched.
                        return Err(e);
                    };
                    // An eviction race, not a device fault: the file left
                    // the tier between the lookup and the pread (an LRU
                    // eviction flips the metadata before it deletes the
                    // copy). Re-resolve against the fresh metadata without
                    // charging the tier's health or the retry budget.
                    if tier.id == info.tier
                        && tier.id != source_id
                        && self
                            .metadata
                            .get(file)
                            .is_some_and(|now| now.tier != info.tier)
                    {
                        continue;
                    }
                    let reason = || format!("read failed: {e}");
                    let t_us = health.now_us();
                    charge_device_error(&health, &self.telemetry, tier.id, class, t_us, reason);
                    if class == crate::health::ErrorClass::Transient
                        && attempts < retry.max_attempts
                    {
                        attempts += 1;
                        self.stats.read_retry();
                        std::thread::sleep(Duration::from_micros(
                            retry.backoff_us(attempts, offset ^ file.len() as u64),
                        ));
                        continue;
                    }
                    if tier.id != source_id {
                        // Out of retries (or permanent): degrade to the
                        // PFS source instead of failing the read.
                        fallback = true;
                        continue;
                    }
                    return Err(e);
                }
            }
        };

        // Allocate the read span id eagerly so the background copy it may
        // spawn can be parented/flow-linked to it.
        let read_id = if sampled { tr.next_id() } else { 0 };
        let mut flow = 0u64;
        if info.state == PlacementState::Unplaced {
            // Paper optimisation: when the triggering read already covered
            // the whole file, the background task reuses these bytes instead
            // of re-reading the PFS (flow ③ is skipped). With the
            // full-file-fetch optimisation disabled, a *partial* read does
            // not trigger any background fetch — only whole-file reads
            // lead to placement (the §IV-A ablation).
            let inline = (offset == 0 && n as u64 == info.size).then(|| buf[..n].to_vec());
            if self.full_file_fetch || inline.is_some() {
                let candidate = if sampled { tr.next_id() } else { 0 };
                if self
                    .engine
                    .demand(file, info.size, inline, ReadCtx::traced(read_id, candidate))
                {
                    flow = candidate;
                }
            }
        }
        // Clairvoyant bookkeeping: advance the plan cursor past this file,
        // count a hit, upgrade a still-queued prefetch copy to the demand
        // lane, and release more of the plan to the prefetcher.
        let feedback = self.engine.note_read(file, info.tier);
        let (start_us, phases_ns) = clock.finish(&self.telemetry);
        self.telemetry.record_read(&ReadOutcome {
            file,
            resident: info.tier,
            served: Some(tier.id),
            bytes: n as u64,
            class: ReadClass::classify(
                info.tier,
                Some(tier.id),
                source_id,
                feedback.planned,
                matches!(info.state, PlacementState::Copying { .. }),
            ),
            prefetch_hit: feedback.prefetch_hit,
            start_us,
            phases_ns,
            // The flow starts at the foreground pread and finishes at the
            // background copy_exec; the read span points back at the
            // prefetch copy that staged (or is staging) its file.
            span: sampled.then(|| ReadSpan {
                tid: tr.register_current_thread(),
                id: read_id,
                parent,
                offset: Some(offset),
                flow,
                prefetch_flow: feedback.flow,
            }),
        });
        Ok(n)
    }

    /// Try to serve a read of an unplaced, peer-owned file from its owner
    /// node's fast tier. Returns `Some(n)` when the peer answered — the
    /// requested range was copied into `buf` and the whole file was handed
    /// to the remote install lane — and `None` when this read should take
    /// the normal local path (no cluster, locally owned, already placed,
    /// or the peer was slow/down, in which case the fallback is counted
    /// and the read degrades to the PFS).
    fn peer_read(
        &self,
        file: &str,
        offset: u64,
        buf: &mut [u8],
        clock: &mut ReadClock,
    ) -> Option<usize> {
        let cluster = self.cluster.as_ref()?;
        let info = self.metadata.get(file)?;
        // Only first-touch misses go to a peer: placed files are local,
        // and an in-flight copy means bytes are already on their way.
        if info.state != PlacementState::Unplaced || offset >= info.size {
            return None;
        }
        let owner = cluster.peer_owner(file)?;
        clock.mark(ReadClock::LOOKUP);
        clock.mark(ReadClock::RESOLVE);
        let bytes = match cluster.fetch_from(owner, file) {
            Ok(bytes) => bytes,
            Err(e) => {
                // Degrade to the PFS path, never to an error. A timeout is
                // journaled distinctly: "the peer was too slow" reads very
                // differently from "the peer does not hold the shard yet".
                self.stats.peer_fallback();
                if e == PeerError::Timeout {
                    self.stats.remote_timeout();
                    self.telemetry.event(EventKind::RemoteTimeout {
                        file: file.to_string(),
                        reason: format!(
                            "peer {owner} read exceeded its deadline; falling back to the PFS"
                        ),
                    });
                } else if e == PeerError::Dead {
                    // The dial gate refused without touching the network:
                    // the peer is quarantined after consecutive timeouts.
                    self.stats.peer_dead_skip();
                }
                return None;
            }
        };
        clock.mark(ReadClock::PREAD);
        // Serve the requested range straight from the fetched buffer. The
        // namespace read counter still ticks; the per-tier counters do not
        // (no local tier did any work — `peer_bytes` accounts the traffic).
        let _ = self.metadata.lookup_for_read(file);
        let want = buf.len().min(bytes.len().saturating_sub(offset as usize));
        buf[..want].copy_from_slice(&bytes[offset as usize..offset as usize + want]);
        self.stats.peer_hit(want as u64);
        // The remaining bytes become a remote-lane install so later chunks
        // (and later epochs) hit the local tier. Bounded by the remote
        // deadline: if the install queue is backed up past it, the install
        // reverts and the file stays on the PFS.
        self.engine.remote_admit(
            file,
            info.size,
            bytes,
            owner as u64,
            ReadCtx::untraced().with_deadline(Instant::now() + cluster.remote_deadline()),
        );
        // Advance the plan cursor as any read does; the source-tier id
        // keeps this from counting as a prefetch hit (the plan did not
        // stage these bytes — the peer did).
        let source = self.hierarchy.source_id();
        let _ = self.engine.note_read(file, source);
        let (start_us, phases_ns) = clock.finish(&self.telemetry);
        self.telemetry.record_read(&ReadOutcome {
            file,
            resident: info.tier,
            served: None,
            bytes: want as u64,
            class: ReadClass::classify(info.tier, None, source, false, false),
            prefetch_hit: false,
            start_us,
            phases_ns,
            span: None,
        });
        Some(want)
    }

    /// Read the entire file through the middleware.
    pub fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let info = self
            .metadata
            .get(file)
            .ok_or_else(|| Error::UnknownFile(file.into()))?;
        let tr = self.telemetry.trace();
        let traced = tr.is_enabled();
        let t0 = self.telemetry.micros_if(traced);
        let id = if traced { tr.next_id() } else { 0 };
        let mut buf = vec![0u8; info.size as usize];
        let n = self.read_impl(file, 0, &mut buf, id)?;
        buf.truncate(n);
        if traced {
            let tid = tr.register_current_thread();
            tr.record(
                SpanRecord::new(
                    names::READ_FULL,
                    "read",
                    tid,
                    t0,
                    self.telemetry.now_micros() - t0,
                )
                .with_id(id)
                .arg_str("file", file)
                .arg_u64("bytes", n as u64),
            );
        }
        Ok(buf)
    }

    /// Size of `file` per the namespace.
    pub fn file_size(&self, file: &str) -> Result<u64> {
        self.metadata
            .get(file)
            .map(|i| i.size)
            .ok_or_else(|| Error::UnknownFile(file.into()))
    }

    /// Block until all scheduled background copies have finished.
    pub fn wait_placement_idle(&self) {
        self.engine.wait_idle();
    }

    /// Pre-stage the dataset: schedule placement for every file that has
    /// not been considered yet, without waiting for the framework to
    /// request it. This is the paper's placement option (i) — "training
    /// files are read from the PFS and placed in the corresponding storage
    /// levels before executing the training phase" (§III-A). MONARCH's
    /// default is option (ii), on-demand placement during the first epoch;
    /// pre-staging trades job start-up delay for a fully warm first epoch.
    ///
    /// Returns the number of placements scheduled. Call
    /// [`Self::wait_placement_idle`] to block until staging completes.
    pub fn prestage(&self) -> usize {
        let tr = self.telemetry.trace();
        let traced = tr.is_enabled();
        let t0 = self.telemetry.micros_if(traced);
        let prestage_id = if traced { tr.next_id() } else { 0 };
        let mut unplaced = Vec::new();
        self.metadata.for_each(|name, info| {
            if info.state == PlacementState::Unplaced {
                unplaced.push((name.to_string(), info.size));
            }
        });
        let mut scheduled = 0;
        for (name, size) in unplaced {
            if self.shutting_down.load(Ordering::Acquire) {
                break;
            }
            // Same dedup CAS as the read path; racing readers lose or win
            // harmlessly. Each staged copy gets its own flow, started on
            // the copy_scheduled span (no foreground pread exists here).
            let flow = if traced { tr.next_id() } else { 0 };
            if self
                .engine
                .demand(&name, size, None, ReadCtx::staged(prestage_id, flow))
            {
                scheduled += 1;
            }
        }
        if traced {
            let tid = tr.register_current_thread();
            tr.record(
                SpanRecord::new(
                    names::PRESTAGE,
                    "read",
                    tid,
                    t0,
                    self.telemetry.now_micros() - t0,
                )
                .with_id(prestage_id)
                .arg_u64("scheduled", scheduled as u64),
            );
        }
        scheduled
    }

    /// Submit the access plan for the upcoming epoch — the ordered file
    /// sequence of the framework's (seeded) shuffle. The engine stages
    /// plan entries ahead of the foreground read cursor, at most
    /// `prefetch_lookahead` positions ahead and within the in-flight byte
    /// budget, on the pool's low-priority prefetch lane.
    ///
    /// A previously submitted plan is canceled first (queued prefetch
    /// copies are withdrawn; running ones finish). Names missing from the
    /// metadata namespace are dropped. Returns the number of admitted
    /// (known, deduplicated) entries — `0` when prefetching is disabled
    /// (`prefetch_lookahead == 0`), in which case this is a no-op.
    pub fn submit_plan(&self, plan: &AccessPlan) -> usize {
        self.engine.plan(plan)
    }

    /// Cancel the current access plan: withdraw queued-but-unstarted
    /// prefetch copies (their metadata reverts to `Unplaced`) and close the
    /// window. Returns the number of withdrawn copies. Running copies are
    /// not interrupted.
    pub fn cancel_prefetch_plan(&self) -> usize {
        self.engine.cancel_plan()
    }

    /// Evict `file` from its local tier back to the PFS source, freeing
    /// its quota. Returns `Ok(false)` when the file is not locally
    /// resident (still on the source, or a copy is in flight). The file
    /// reverts to `Unplaced`, so a later read may place it again.
    pub fn evict(&self, file: &str) -> Result<bool> {
        self.engine.evict(file)
    }

    /// Current statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Composed name (`admission/eviction/scorer`) of the policy engine
    /// driving tier decisions.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.engine.policy_name()
    }

    /// Composition and decision counters of the policy engine — the
    /// `monarch policy` view.
    #[must_use]
    pub fn policy_snapshot(&self) -> crate::policy::PolicySnapshot {
        self.engine.policy_snapshot()
    }

    /// The telemetry registry (histograms, journal, stats).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

    /// Snapshot of every histogram plus the counters. Gauges are
    /// re-sampled from live state first, so the snapshot's `gauges`
    /// section is as fresh as the call.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.engine.sampler().refresh();
        let mut snap = self.telemetry.snapshot();
        snap.health = Some(self.hierarchy.health().snapshot());
        if let Some(cluster) = &self.cluster {
            snap.cluster = Some(cluster.snapshot(&self.stats.snapshot()));
        }
        snap
    }

    /// The peer-cache handle, when a cluster is configured.
    #[must_use]
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }

    /// Roster + peer-counter snapshot of the configured cluster (`None`
    /// when running single-node).
    #[must_use]
    pub fn cluster_snapshot(&self) -> Option<ClusterSnapshot> {
        self.cluster
            .as_ref()
            .map(|c| c.snapshot(&self.stats.snapshot()))
    }

    /// Prometheus-style text exposition of the registry, with gauges
    /// re-sampled from live state first.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.engine.sampler().refresh();
        self.telemetry.prometheus_text()
    }

    /// A detached gauge sampler over this instance's shared parts (what
    /// the `/metrics` exporter refreshes on every scrape).
    #[must_use]
    pub fn sampler(&self) -> GaugeSampler {
        self.engine.sampler()
    }

    /// The shutdown flag shared with the engine (used by the exporter's
    /// `/healthz` to report `draining`).
    pub(crate) fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutting_down)
    }

    /// The server slot ([`Monarch::serve`] installs into it; `shutdown`
    /// stops whatever is in it).
    pub(crate) fn server_slot(&self) -> &std::sync::Mutex<Option<MetricsServer>> {
        &self.server
    }

    /// The shared counters (the exporter's `/healthz` degraded check).
    pub(crate) fn stats_arc(&self) -> Arc<Stats> {
        Arc::clone(&self.stats)
    }

    /// Buffered journal events as JSON lines (non-destructive).
    #[must_use]
    pub fn events_json(&self) -> String {
        self.telemetry.events_json()
    }

    /// Chrome Trace Event / Perfetto JSON for the recorded span trees
    /// (non-destructive; `{"traceEvents": []}` shell when tracing is off).
    /// Load the output in `ui.perfetto.dev` or `chrome://tracing`.
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.telemetry.trace().export_chrome_json()
    }

    /// The metadata container (read-mostly introspection).
    #[must_use]
    pub fn metadata(&self) -> &MetadataContainer {
        &self.metadata
    }

    /// The storage hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &StorageHierarchy {
        &self.hierarchy
    }

    /// Number of background copy threads.
    #[must_use]
    pub fn pool_threads(&self) -> usize {
        self.engine.threads()
    }

    /// Stop accepting reads, cancel queued prefetches *before* joining the
    /// workers, drain in-flight copies, and join the pool. Worker threads
    /// that died outside the per-task panic catch are counted in the
    /// returned snapshot (`pool_join_failures`) and journaled, instead of
    /// being silently discarded.
    pub fn shutdown(mut self) -> StatsSnapshot {
        // Drain first (the flag flips immediately, so a scrape racing the
        // drain sees `draining` on /healthz), then stop the exporter and
        // the peer server — peers still fetching degrade to their PFS.
        self.engine.drain();
        if let Some(server) = self.server.lock().expect("server slot lock").take() {
            server.stop();
        }
        if let Some(cluster) = &self.cluster {
            cluster.stop_server();
        }
        self.stats.snapshot()
    }
}

/// One read's clock chain: the entry instant and the ends of its lookup,
/// resolve and pread phases. Started off (telemetry disabled) it never
/// reads the clock.
struct ReadClock(Option<[Instant; 4]>);

impl ReadClock {
    /// Index of the lookup phase's end mark.
    const LOOKUP: usize = 1;
    /// Index of the resolve phase's end mark.
    const RESOLVE: usize = 2;
    /// Index of the pread phase's end mark.
    const PREAD: usize = 3;

    fn start(on: bool) -> Self {
        Self(on.then(|| [Instant::now(); 4]))
    }

    /// End phase `mark` now. A retried read re-marks every phase, so the
    /// final attempt's boundaries win and earlier attempts count as lookup.
    fn mark(&mut self, mark: usize) {
        if let Some(marks) = &mut self.0 {
            marks[mark] = Instant::now();
        }
    }

    /// Close the chain now: the entry instant on the registry clock and
    /// the four phase durations (ns), which sum to the read's wall time.
    fn finish(&self, telemetry: &TelemetryRegistry) -> (u64, [u64; 4]) {
        let Some(m) = self.0 else {
            return (0, [0; 4]);
        };
        let end = Instant::now();
        let ns = |from: Instant, to: Instant| {
            u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
        };
        (
            telemetry.micros_at(m[0]),
            [
                ns(m[0], m[1]),
                ns(m[1], m[2]),
                ns(m[2], m[3]),
                ns(m[3], end),
            ],
        )
    }
}

impl std::fmt::Debug for Monarch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monarch")
            .field("levels", &self.hierarchy.levels())
            .field("files", &self.metadata.len())
            .field("policy", &self.engine.policy_name())
            .finish()
    }
}

#[cfg(test)]
#[path = "middleware_tests.rs"]
mod tests;
