//! Usage Statistics Service (USS): "gathers per-job usage results of the
//! local site, and produces per-user histograms for configurable time
//! intervals" (§II-A). USS instances of different sites exchange compact
//! per-user summaries — this is the *only* cross-site communication channel
//! in the system ("they communicate only by exchanging data through the USS
//! services", §IV-A).
//!
//! ## Reliable exchange
//!
//! The exchange is fault-tolerant (see [`crate::reliability`]):
//!
//! * [`Uss::publish`] assigns each summary a monotonically increasing
//!   sequence number, retains it in a bounded history, and queues it in a
//!   bounded per-peer outbox. The outbox entry survives until the peer
//!   acknowledges delivery — a dropped summary is *re-sent*, never lost.
//! * [`Uss::poll`] drains due sends, retrying unacked summaries with
//!   exponential backoff plus deterministic seeded jitter.
//! * [`Uss::receive_message`] merges incoming data idempotently (summary
//!   cells are absolute cumulative values, merged as positive deltas against
//!   a per-*origin* mirror — multi-path-safe under hierarchical overlays,
//!   where interior nodes relay merged cells onward in per-origin summary
//!   sections), acknowledges it, detects sequence gaps, and issues
//!   anti-entropy [`UssMessage::Resync`] pulls — answered from the retained
//!   history, or with a cumulative snapshot when history was compacted.
//! * [`Uss::crash`]/[`Uss::request_catchup`] model site failure: volatile
//!   exchange state (remote histogram, mirrors, outboxes, sequence counter)
//!   is wiped, while the local histogram survives (it is backed by the
//!   site's accounting database); recovery pulls peer snapshots and
//!   republishes local history, both of which are idempotent at receivers.
//! * [`Uss::update_staleness`] tracks how old each peer's data is, exports
//!   it as the `aequus_uss_peer_staleness_s` gauge, and enforces the
//!   configured [`StalePolicy`] (serve-stale vs. local-only weighting).

use crate::participation::ParticipationMode;
use crate::reliability::{JitterRng, LinkObservation, RetryPolicy, StalePolicy, UssMessage};
use aequus_core::arena::DirtySet;
use aequus_core::ids::SiteId;
use aequus_core::usage::{UsageHistogram, UsageRecord, UsageSummary, UserCells};
use aequus_core::GridUser;
use aequus_store::{CheckpointState, PeerCursor};
use aequus_telemetry::{Counter, Gauge, Histogram, Telemetry, TraceCtx};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Why recovered store state could not be installed into a service. A
/// corrupt or mismatched checkpoint must degrade the site to snapshot
/// catch-up — never panic it.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The checkpoint was cut by a different site.
    SiteMismatch {
        /// This service's site.
        expected: SiteId,
        /// Site recorded in the checkpoint.
        found: SiteId,
    },
    /// The checkpoint's histogram slot duration differs from the configured
    /// one — its cell indices would land in the wrong slots.
    SlotMismatch {
        /// Configured slot duration.
        expected: f64,
        /// Slot duration recorded in the checkpoint.
        found: f64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::SiteMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to site {} (this is site {})",
                found.0, expected.0
            ),
            RecoveryError::SlotMismatch { expected, found } => write!(
                f,
                "checkpoint slot duration {found}s != configured {expected}s"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Minimum per-cell charge difference considered a real change; smaller
/// residues are floating-point noise and are neither published nor merged.
const CELL_EPS: f64 = 1e-12;

/// Pre-registered USS metric handles (all no-ops until
/// [`Uss::set_telemetry`] wires an enabled registry).
#[derive(Debug, Clone, Default)]
struct UssMetrics {
    telemetry: Telemetry,
    ingested: Counter,
    published: Counter,
    received: Counter,
    retries: Counter,
    gaps: Counter,
    resyncs: Counter,
    snapshots: Counter,
    duplicates: Counter,
    staleness: Gauge,
    h_ingest: Histogram,
    h_publish: Histogram,
    h_receive: Histogram,
}

impl UssMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
            telemetry: t.clone(),
            ingested: t.counter("aequus_uss_records_ingested_total"),
            published: t.counter("aequus_uss_summaries_published_total"),
            received: t.counter("aequus_uss_summaries_received_total"),
            retries: t.counter("aequus_uss_retries_total"),
            gaps: t.counter("aequus_uss_seq_gaps_total"),
            resyncs: t.counter("aequus_uss_resyncs_total"),
            snapshots: t.counter("aequus_uss_snapshots_total"),
            duplicates: t.counter("aequus_uss_duplicates_total"),
            staleness: t.gauge("aequus_uss_peer_staleness_s"),
            h_ingest: t.histogram("aequus_uss_ingest_s"),
            h_publish: t.histogram("aequus_uss_publish_s"),
            h_receive: t.histogram("aequus_uss_receive_s"),
        }
    }
}

/// Publisher-side per-peer delivery state.
#[derive(Debug, Clone)]
struct PeerTx {
    /// Unacked published `(seq, published_at_s)` entries, oldest first. The
    /// publication timestamp turns the outbox head into the link's
    /// *undelivered-data age* — the health map's staleness signal: zero
    /// while everything is acked, growing while a peer is unreachable, and
    /// silent during quiescent drains (an empty outbox means the peer is
    /// missing nothing).
    outbox: VecDeque<(u64, f64)>,
    /// Earliest time the outbox may be (re)flushed.
    next_attempt_s: f64,
    /// Completed sends of the current outbox without a full ack — drives the
    /// exponential backoff; reset to zero once the outbox drains.
    attempts: u32,
    /// Cumulative retry sends to this peer (health map).
    retries: u64,
    /// Cumulative snapshot catch-ups sent to this peer (health map).
    snapshots: u64,
}

impl PeerTx {
    fn new() -> Self {
        Self {
            outbox: VecDeque::new(),
            next_attempt_s: f64::NEG_INFINITY,
            attempts: 0,
            retries: 0,
            snapshots: 0,
        }
    }
}

/// Receiver-side per-peer (per-link) gap-tracking state. Cell merge mirrors
/// live at the service level keyed by *origin* site ([`Uss`]), not here —
/// with hierarchical overlays the same origin's cells can arrive over
/// several links, and a per-link mirror would double-count them.
#[derive(Debug, Clone)]
struct PeerRx {
    /// Lowest sequence number not yet seen from this peer.
    next_expected: u64,
    /// Sequence numbers received above `next_expected` (out-of-order).
    seen_above: BTreeSet<u64>,
    /// Last time any data message from this peer arrived (staleness anchor);
    /// `NEG_INFINITY` until the first one.
    last_heard_s: f64,
    /// Cumulative sequence gaps detected on this link (health map).
    gaps: u64,
    /// Cumulative anti-entropy resyncs issued on this link (health map).
    resyncs: u64,
}

impl PeerRx {
    fn new() -> Self {
        Self {
            next_expected: 1,
            seen_above: BTreeSet::new(),
            last_heard_s: f64::NEG_INFINITY,
            gaps: 0,
            resyncs: 0,
        }
    }
}

/// Per-site usage statistics service.
#[derive(Debug, Clone)]
pub struct Uss {
    site: SiteId,
    mode: ParticipationMode,
    /// Usage executed on this site. Durable: survives [`Uss::crash`] — the
    /// paper's USS fronts the site's accounting database.
    local: UsageHistogram,
    /// Usage merged in from other sites' summaries. Volatile.
    remote: UsageHistogram,
    /// Absolute charge already published per (user, slot) — publications
    /// carry the absolute values of cells that changed against this mirror,
    /// so charge landing in old slots (a long job completing spreads usage
    /// back over its whole runtime) is still exchanged, and retransmissions
    /// are idempotent at receivers.
    published: BTreeMap<GridUser, BTreeMap<u64, f64>>,
    /// Sequence number the next published summary gets (1-based).
    next_seq: u64,
    /// Retained published summaries for anti-entropy resync (bounded by
    /// [`RetryPolicy::history_cap`]).
    history: VecDeque<UsageSummary>,
    /// Peers we deliver summaries to (sites that read global data).
    peers: Vec<SiteId>,
    /// Peers we expect summaries from (sites that contribute data) — the
    /// staleness and catch-up set.
    rx_peers: Vec<SiteId>,
    tx: BTreeMap<SiteId, PeerTx>,
    rx: BTreeMap<SiteId, PeerRx>,
    /// Absolute cumulative charge already merged per (user, slot), keyed by
    /// the **originating** site — the mirror the positive-delta merge
    /// compares against. Origin-scoped (not link-scoped): with hierarchical
    /// overlays the same origin's cells can arrive relayed over several
    /// links, and because origin values are monotone absolute cumulative
    /// charge, merging every path against one per-origin mirror collapses
    /// arbitrary path multiplicity to the same join.
    seen_by_origin: BTreeMap<SiteId, UserCells>,
    /// Forwarding-node state: per origin, the cells this node has already
    /// relayed in its own publications. Diffed against `seen_by_origin` at
    /// publish time to build the relayed sections. Deliberately *not*
    /// checkpointed — a recovered interior node re-relays its whole mirror
    /// once, which is idempotent at receivers.
    relay_published: BTreeMap<SiteId, UserCells>,
    /// Whether this node is an interior node of the overlay (Tree interior /
    /// Hub member) and must relay merged remote cells onward.
    forwarding: bool,
    /// Peers owed a [`UssMessage::SnapshotRequest`] on the next poll
    /// (crash-recovery catch-up).
    catchup_pending: BTreeSet<SiteId>,
    retry: RetryPolicy,
    stale_policy: StalePolicy,
    jitter: JitterRng,
    /// Whether the stale-data policy currently suppresses remote usage.
    remote_suppressed: bool,
    /// Count of records ingested (observability).
    records_ingested: u64,
    /// Count of summaries received from peers.
    summaries_received: u64,
    retries: u64,
    seq_gaps: u64,
    resyncs: u64,
    snapshots_sent: u64,
    duplicates: u64,
    /// Users whose usage changed since the UMS last drained this service —
    /// the head of the incremental dirty-set flow USS → UMS → FCS.
    dirty: DirtySet,
    /// Telemetry handles (no-ops until wired).
    metrics: UssMetrics,
    /// Trace context of the latest traced local ingest, consumed by the next
    /// publication so the outgoing summary joins the report's causal tree.
    pending_publish_ctx: Option<TraceCtx>,
    /// Per-sequence trace contexts of traced publications. Retries and
    /// resync answers of a sequence resend its *original* context, keeping
    /// delayed hops causally linked. Trimmed alongside the resync history.
    publish_trace: BTreeMap<u64, TraceCtx>,
    /// Context of the latest traced publication — stamped onto cumulative
    /// snapshots so snapshot catch-ups stay in a causal tree.
    latest_publish_ctx: Option<TraceCtx>,
    /// Trace context of the latest traced data change (local ingest or
    /// gossip merge), for the UMS→FCS→query pipeline to pick up.
    pending_pipeline_trace: Option<TraceCtx>,
}

/// Positive-delta merge of one origin's absolute cells against that
/// origin's mirror: cells whose value exceeds the mirrored value by more
/// than [`CELL_EPS`] raise the mirror and add the delta to the remote
/// histogram. Duplicates, reordering, overlapping resyncs, snapshots, and
/// multi-path relay all collapse to no-ops here. Returns the number of
/// cells that changed. (Free function over disjoint fields so callers can
/// hold other `Uss` borrows.)
fn merge_origin_cells(
    mirror: &mut UserCells,
    cells: &UserCells,
    remote: &mut UsageHistogram,
    dirty: &mut DirtySet,
) -> usize {
    let mut merged = 0usize;
    for (user, slots) in cells {
        let seen = mirror.entry(user.clone()).or_default();
        let mut user_changed = false;
        for (&slot, &value) in slots {
            let prev = seen.get(&slot).copied().unwrap_or(0.0);
            let delta = value - prev;
            if delta > CELL_EPS {
                seen.insert(slot, value);
                remote.add_charge(user, slot, delta);
                user_changed = true;
                merged += 1;
            }
        }
        if user_changed {
            dirty.mark_user(user.clone());
        }
    }
    merged
}

impl Uss {
    /// Create a USS with the given histogram slot duration.
    pub fn new(site: SiteId, mode: ParticipationMode, slot_s: f64) -> Self {
        Self {
            site,
            mode,
            local: UsageHistogram::new(slot_s),
            remote: UsageHistogram::new(slot_s),
            published: Default::default(),
            next_seq: 1,
            history: VecDeque::new(),
            peers: Vec::new(),
            rx_peers: Vec::new(),
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            seen_by_origin: BTreeMap::new(),
            relay_published: BTreeMap::new(),
            forwarding: false,
            catchup_pending: BTreeSet::new(),
            retry: RetryPolicy::default(),
            stale_policy: StalePolicy::default(),
            jitter: JitterRng::new(site.0 as u64),
            remote_suppressed: false,
            records_ingested: 0,
            summaries_received: 0,
            retries: 0,
            seq_gaps: 0,
            resyncs: 0,
            snapshots_sent: 0,
            duplicates: 0,
            dirty: DirtySet::new(),
            metrics: UssMetrics::default(),
            pending_publish_ctx: None,
            publish_trace: BTreeMap::new(),
            latest_publish_ctx: None,
            pending_pipeline_trace: None,
        }
    }

    /// Note the trace context of a just-ingested local record: the next
    /// publication is stamped with it, and the refresh pipeline picks it up
    /// through [`Uss::take_pipeline_trace`].
    pub fn note_ingest_trace(&mut self, ctx: TraceCtx) {
        self.pending_publish_ctx = Some(ctx);
        self.pending_pipeline_trace = Some(ctx);
    }

    /// Drain the trace context of the latest traced data change (local
    /// ingest or gossip merge) for the UMS/FCS refresh stages.
    pub fn take_pipeline_trace(&mut self) -> Option<TraceCtx> {
        self.pending_pipeline_trace.take()
    }

    /// Wire this service into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.metrics = UssMetrics::wire(t);
    }

    /// Duration of one usage-histogram slot in seconds.
    pub fn slot_duration(&self) -> f64 {
        self.local.slot_duration()
    }

    /// The owning site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Participation mode in the global exchange.
    pub fn mode(&self) -> ParticipationMode {
        self.mode
    }

    /// Register exchange peers: `tx_peers` receive this site's summaries,
    /// `rx_peers` are expected to publish to this site (staleness tracking
    /// and crash catch-up). The own site id is filtered from both. Without
    /// registered peers the USS runs in legacy broadcast mode: `publish`
    /// hands the summary to the caller and no retry state is kept.
    pub fn set_peers(&mut self, tx_peers: &[SiteId], rx_peers: &[SiteId]) {
        self.peers = tx_peers
            .iter()
            .copied()
            .filter(|p| *p != self.site)
            .collect();
        self.rx_peers = rx_peers
            .iter()
            .copied()
            .filter(|p| *p != self.site)
            .collect();
        for p in &self.peers {
            self.tx.entry(*p).or_insert_with(PeerTx::new);
        }
    }

    /// Number of registered delivery peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Configure retry/backoff/retention and reseed the jitter source.
    pub fn configure_reliability(&mut self, retry: RetryPolicy, jitter_seed: u64) {
        self.retry = retry;
        self.jitter = JitterRng::new(jitter_seed ^ ((self.site.0 as u64) << 32));
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Configure the stale-data policy.
    pub fn set_stale_policy(&mut self, policy: StalePolicy) {
        self.stale_policy = policy;
    }

    /// Mark this node as an overlay interior node: cells merged from other
    /// origins are re-published onward as relayed summary sections (per-hop
    /// aggregation for the Tree and Hub overlays).
    pub fn set_forwarding(&mut self, on: bool) {
        self.forwarding = on;
    }

    /// Whether this node relays merged remote data onward.
    pub fn forwarding(&self) -> bool {
        self.forwarding
    }

    /// Whether this node publishes summaries at all: sites that contribute
    /// their own usage, and overlay interior nodes (which must relay even
    /// when they have nothing of their own to say).
    fn publishes(&self) -> bool {
        self.mode.contributes() || self.forwarding
    }

    /// Ingest a locally completed job's usage record.
    pub fn ingest(&mut self, rec: &UsageRecord) {
        let _span = self.metrics.h_ingest.start_timer();
        debug_assert_eq!(rec.site, self.site, "record routed to wrong site");
        if rec.charge() > 0.0 {
            self.dirty.mark_user(rec.user.clone());
        }
        self.local.record(rec);
        self.records_ingested += 1;
        self.metrics.ingested.inc();
    }

    /// Diff the origin-scoped merge mirror against what this node has
    /// already relayed, producing (and recording) the relayed sections of
    /// the next publication. Empty unless the node forwards. Cells carry the
    /// origin's absolute cumulative values, so receivers merge them against
    /// the same per-origin mirror a direct delivery would hit — the
    /// open-slot holdback already happened at the origin and is not
    /// re-applied against this node's (possibly skewed) clock.
    fn collect_relay_sections(&mut self) -> BTreeMap<SiteId, UserCells> {
        let mut relayed: BTreeMap<SiteId, UserCells> = BTreeMap::new();
        if !self.forwarding {
            return relayed;
        }
        for (origin, users) in &self.seen_by_origin {
            let sent_users = self.relay_published.entry(*origin).or_default();
            let mut section: UserCells = BTreeMap::new();
            for (user, slots) in users {
                let sent = sent_users.entry(user.clone()).or_default();
                let mut cells = BTreeMap::new();
                for (&slot, &value) in slots {
                    let already = sent.get(&slot).copied().unwrap_or(0.0);
                    if value - already > CELL_EPS {
                        cells.insert(slot, value);
                        sent.insert(slot, value);
                    }
                }
                if !cells.is_empty() {
                    section.insert(user.clone(), cells);
                }
            }
            if !section.is_empty() {
                relayed.insert(*origin, section);
            }
        }
        relayed
    }

    /// Produce the next sequenced summary for exchange: the cells whose
    /// charge changed against the published mirror, carried as **absolute**
    /// cumulative values, over all closed slots (the slot containing `now_s`
    /// stays open and is held back until it closes). The summary is retained
    /// in the resync history and queued in every peer's outbox until that
    /// peer acknowledges it. Forwarding nodes additionally attach relayed
    /// sections (cells newly merged from other origins) and publish even
    /// when they have no local change of their own. Returns `None` when
    /// this site neither contributes usage data nor forwards, or nothing
    /// changed.
    pub fn publish(&mut self, now_s: f64) -> Option<UsageSummary> {
        let _span = self.metrics.h_publish.start_timer();
        if !self.publishes() {
            return None;
        }
        let current_slot = (now_s / self.local.slot_duration()).floor().max(0.0) as u64;
        let mut per_user: BTreeMap<GridUser, BTreeMap<u64, f64>> = Default::default();
        if self.mode.contributes() {
            let full = self.local.summary(self.site, 0);
            for (user, slots) in &full.per_user {
                let sent = self.published.entry(user.clone()).or_default();
                let mut cells = BTreeMap::new();
                for (&slot, &value) in slots {
                    if slot >= current_slot {
                        continue; // open slot: held back until closed
                    }
                    let already = sent.get(&slot).copied().unwrap_or(0.0);
                    if value - already > CELL_EPS {
                        cells.insert(slot, value);
                        sent.insert(slot, value);
                    }
                }
                if !cells.is_empty() {
                    per_user.insert(user.clone(), cells);
                }
            }
        }
        let relayed = self.collect_relay_sections();
        if per_user.is_empty() && relayed.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let summary = UsageSummary {
            site: self.site,
            seq,
            slot_s: self.local.slot_duration(),
            per_user,
            relayed,
        };
        self.history.push_back(summary.clone());
        while self.history.len() > self.retry.history_cap.max(1) {
            self.history.pop_front();
        }
        if let Some(ingest_ctx) = self.pending_publish_ctx.take() {
            let site_id = self.site.0;
            if let Some(pub_ctx) =
                self.metrics
                    .telemetry
                    .child_span(Some(ingest_ctx), "uss.publish", now_s, || {
                        format!("site {site_id} published seq {seq}")
                    })
            {
                self.publish_trace.insert(seq, pub_ctx);
                self.latest_publish_ctx = Some(pub_ctx);
            }
        }
        if let Some(oldest) = self.history.front().map(|s| s.seq) {
            // Contexts for compacted sequences can no longer be resent.
            self.publish_trace.retain(|&q, _| q >= oldest);
        }
        for peer in &self.peers {
            let tx = self.tx.entry(*peer).or_insert_with(PeerTx::new);
            tx.outbox.push_back((seq, now_s));
            while tx.outbox.len() > self.retry.outbox_cap.max(1) {
                // Oldest unacked entry overflows; the receiver recovers it
                // through gap detection → resync (→ snapshot fallback).
                tx.outbox.pop_front();
            }
            if tx.attempts == 0 {
                // Nothing awaiting backoff: fresh data goes out immediately.
                tx.next_attempt_s = f64::NEG_INFINITY;
            }
        }
        self.metrics.published.inc();
        Some(summary)
    }

    /// Drain every message due for sending at `now_s`: pending crash
    /// catch-up requests, first sends of freshly published summaries, and
    /// backoff-expired retries of unacked ones. Each flush of a peer's
    /// outbox advances that peer's exponential backoff (with deterministic
    /// jitter); an ack resets it.
    pub fn poll(&mut self, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        let mut out = Vec::new();
        for peer in std::mem::take(&mut self.catchup_pending) {
            out.push((peer, UssMessage::SnapshotRequest { from: self.site }));
        }
        let peers: Vec<SiteId> = self.peers.clone();
        for peer in peers {
            let Some(tx) = self.tx.get(&peer) else {
                continue;
            };
            if tx.outbox.is_empty() || now_s < tx.next_attempt_s {
                continue;
            }
            let seqs: Vec<u64> = tx.outbox.iter().map(|&(seq, _)| seq).collect();
            let retrying = tx.attempts > 0;
            let mut sent = 0u64;
            let mut snapshots_now = 0u64;
            let mut evicted: Vec<u64> = Vec::new();
            for seq in seqs {
                match self.history.iter().find(|s| s.seq == seq) {
                    Some(s) => {
                        out.push((
                            peer,
                            UssMessage::Summary {
                                summary: s.clone(),
                                ctx: self.publish_trace.get(&seq).copied(),
                            },
                        ));
                        sent += 1;
                    }
                    None => evicted.push(seq),
                }
            }
            if !evicted.is_empty() {
                // History compacted past unacked entries: replace them with
                // one cumulative snapshot (idempotent, covers everything).
                out.push((
                    peer,
                    UssMessage::Snapshot {
                        summary: self.snapshot_summary(),
                        ctx: self.latest_publish_ctx,
                    },
                ));
                self.snapshots_sent += 1;
                self.metrics.snapshots.inc();
                snapshots_now += 1;
                sent += 1;
            }
            if retrying {
                self.retries += sent;
                self.metrics.retries.add(sent);
            }
            let unit = self.jitter.next_unit();
            // The entry was present at the top of the loop; re-check rather
            // than `expect` — a serving site must not panic on map state.
            if let Some(tx) = self.tx.get_mut(&peer) {
                tx.outbox.retain(|&(seq, _)| !evicted.contains(&seq));
                if retrying {
                    tx.retries += sent;
                }
                tx.snapshots += snapshots_now;
                tx.attempts += 1;
                tx.next_attempt_s = now_s + self.retry.backoff_s(tx.attempts, unit);
            }
        }
        out
    }

    /// Handle one incoming protocol message, returning the responses to
    /// route back (acks, resync pulls, resync answers, snapshots).
    pub fn receive_message(&mut self, msg: &UssMessage, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        match msg {
            UssMessage::Summary { summary, ctx } => self.apply_data(summary, *ctx, false, now_s),
            UssMessage::Snapshot { summary, ctx } => self.apply_data(summary, *ctx, true, now_s),
            UssMessage::Ack { from, seq } => {
                self.on_ack(*from, *seq);
                Vec::new()
            }
            UssMessage::Resync {
                from,
                from_seq,
                to_seq,
            } => self.on_resync(*from, *from_seq, *to_seq),
            UssMessage::SnapshotRequest { from } => {
                if !self.publishes() {
                    return Vec::new();
                }
                self.snapshots_sent += 1;
                self.metrics.snapshots.inc();
                self.tx.entry(*from).or_insert_with(PeerTx::new).snapshots += 1;
                vec![(
                    *from,
                    UssMessage::Snapshot {
                        summary: self.snapshot_summary(),
                        ctx: self.latest_publish_ctx,
                    },
                )]
            }
        }
    }

    /// Merge a summary received from a peer site. Ignored when this site does
    /// not read global data (contribute-only / local-only participation).
    /// Legacy broadcast entry point: protocol responses are discarded.
    pub fn receive(&mut self, summary: &UsageSummary) {
        self.receive_at(summary, -1.0);
    }

    /// [`Uss::receive`] with a domain timestamp for the gossip-merge event
    /// (the sim engine knows the delivery time; plain `receive` does not).
    pub fn receive_at(&mut self, summary: &UsageSummary, now_s: f64) {
        let _ = self.apply_data(summary, None, false, now_s);
    }

    fn apply_data(
        &mut self,
        s: &UsageSummary,
        ctx: Option<TraceCtx>,
        is_snapshot: bool,
        now_s: f64,
    ) -> Vec<(SiteId, UssMessage)> {
        let _span = self.metrics.h_receive.start_timer();
        if s.site == self.site {
            return Vec::new(); // never double-count our own data
        }
        let mut responses = Vec::new();
        if !is_snapshot && s.seq > 0 {
            // Acknowledge regardless of participation mode, so publishers
            // don't retry forever at sites that discard global data.
            responses.push((
                s.site,
                UssMessage::Ack {
                    from: self.site,
                    seq: s.seq,
                },
            ));
        }
        if !self.mode.reads_global() {
            return responses;
        }
        let rx = self.rx.entry(s.site).or_insert_with(PeerRx::new);
        rx.last_heard_s = rx.last_heard_s.max(now_s);
        // Idempotent merge: apply the positive delta of each absolute cell
        // against its *origin's* mirror — the publisher's own section under
        // the publisher's site, each relayed section under its recorded
        // origin. Duplicates, reordering, overlapping resyncs, snapshots,
        // and multi-path relay all collapse to no-ops here.
        let mut merged_cells = 0usize;
        for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(s.relayed.iter()) {
            if *origin == self.site {
                continue; // a relay echoing our own data back
            }
            let mirror = self.seen_by_origin.entry(*origin).or_default();
            merged_cells += merge_origin_cells(mirror, cells, &mut self.remote, &mut self.dirty);
        }
        if merged_cells == 0 && !(s.per_user.is_empty() && s.relayed.is_empty()) {
            self.duplicates += 1;
            self.metrics.duplicates.inc();
        }
        if merged_cells > 0 {
            if let Some(parent) = ctx {
                // Cross-site causal link: the merge span's parent is the
                // publisher's `uss.publish` span (retries/resyncs/snapshots
                // all resend the original context, so the link survives
                // loss). Duplicate deliveries merge nothing and add no span.
                let (peer, seq) = (s.site.0, s.seq);
                let merge_ctx =
                    self.metrics
                        .telemetry
                        .child_span(Some(parent), "gossip.merge", now_s, || {
                            format!("merged seq {seq} from site {peer} ({merged_cells} cells)")
                        });
                self.pending_pipeline_trace = merge_ctx.or(self.pending_pipeline_trace);
            }
        }
        // Sequence bookkeeping: gap detection and anti-entropy pulls.
        if is_snapshot {
            // A snapshot covers everything up to its seq.
            if s.seq + 1 > rx.next_expected {
                rx.next_expected = s.seq + 1;
            }
            rx.seen_above.retain(|&q| q >= rx.next_expected);
            while rx.seen_above.remove(&rx.next_expected) {
                rx.next_expected += 1;
            }
        } else if s.seq > 0 {
            if s.seq >= rx.next_expected {
                rx.seen_above.insert(s.seq);
                while rx.seen_above.remove(&rx.next_expected) {
                    rx.next_expected += 1;
                }
                if rx.next_expected <= s.seq {
                    // Sequence gap: pull the missing range. Requesting a seq
                    // twice is harmless (merges are idempotent), so repeated
                    // gap hits double as resync retries.
                    let (from_seq, to_seq) = (rx.next_expected, s.seq - 1);
                    rx.gaps += 1;
                    rx.resyncs += 1;
                    self.seq_gaps += 1;
                    self.metrics.gaps.inc();
                    self.resyncs += 1;
                    self.metrics.resyncs.inc();
                    responses.push((
                        s.site,
                        UssMessage::Resync {
                            from: self.site,
                            from_seq,
                            to_seq,
                        },
                    ));
                }
            } else if s.seq == 1 && rx.next_expected > 2 {
                // The publisher restarted its numbering from scratch (crash
                // recovery); adopt it. The cell mirror is untouched, so the
                // republished history merges as no-ops.
                rx.next_expected = 2;
                rx.seen_above.clear();
            }
        }
        self.summaries_received += 1;
        self.metrics.received.inc();
        self.metrics.telemetry.event(now_s, "uss.gossip_merge", || {
            format!(
                "merged {} from site {} seq {} ({} users, {} relayed origins, {merged_cells} new cells)",
                if is_snapshot { "snapshot" } else { "summary" },
                s.site.0,
                s.seq,
                s.per_user.len(),
                s.relayed.len()
            )
        });
        responses
    }

    fn on_ack(&mut self, from: SiteId, seq: u64) {
        if let Some(tx) = self.tx.get_mut(&from) {
            if let Some(pos) = tx.outbox.iter().position(|&(q, _)| q == seq) {
                tx.outbox.remove(pos);
            }
            if tx.outbox.is_empty() {
                tx.attempts = 0;
                tx.next_attempt_s = f64::NEG_INFINITY;
            }
        }
    }

    fn on_resync(&mut self, from: SiteId, from_seq: u64, to_seq: u64) -> Vec<(SiteId, UssMessage)> {
        if !self.publishes() || to_seq < from_seq {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut missing = to_seq - from_seq + 1 > self.retry.history_cap.max(1) as u64;
        if !missing {
            for seq in from_seq..=to_seq {
                match self.history.iter().find(|s| s.seq == seq) {
                    Some(s) => out.push((
                        from,
                        UssMessage::Summary {
                            summary: s.clone(),
                            ctx: self.publish_trace.get(&seq).copied(),
                        },
                    )),
                    None => missing = true,
                }
            }
        }
        if missing {
            // History compacted past the requested range: cumulative
            // snapshot fallback.
            out.clear();
            out.push((
                from,
                UssMessage::Snapshot {
                    summary: self.snapshot_summary(),
                    ctx: self.latest_publish_ctx,
                },
            ));
            self.snapshots_sent += 1;
            self.metrics.snapshots.inc();
            self.tx.entry(from).or_insert_with(PeerTx::new).snapshots += 1;
        }
        out
    }

    /// Cumulative snapshot of everything published so far, carrying the
    /// latest sequence number (0 before any publication). Forwarding nodes
    /// attach their full origin-scoped mirror as relayed sections, so a
    /// snapshot from an overlay interior node also covers everything it has
    /// heard downstream — a crash-recovered leaf behind a hub catches up
    /// from the hub alone.
    fn snapshot_summary(&self) -> UsageSummary {
        UsageSummary {
            site: self.site,
            seq: self.next_seq - 1,
            slot_s: self.local.slot_duration(),
            per_user: self
                .published
                .iter()
                .filter(|(_, slots)| !slots.is_empty())
                .map(|(u, slots)| (u.clone(), slots.clone()))
                .collect(),
            relayed: if self.forwarding {
                self.seen_by_origin
                    .iter()
                    .filter(|(_, users)| !users.is_empty())
                    .map(|(origin, users)| (*origin, users.clone()))
                    .collect()
            } else {
                BTreeMap::new()
            },
        }
    }

    /// Refresh per-peer staleness (seconds since the freshest peer data,
    /// maxed over expected publishers), export it as the
    /// `aequus_uss_peer_staleness_s` gauge, and enforce the stale-data
    /// policy. Returns the maximum staleness. Users affected by a policy
    /// transition are marked dirty so the UMS/FCS pick the change up.
    pub fn update_staleness(&mut self, now_s: f64) -> f64 {
        if !self.mode.reads_global() || self.rx_peers.is_empty() {
            self.metrics.staleness.set(0.0);
            return 0.0;
        }
        let mut max_stale = 0.0f64;
        for peer in &self.rx_peers {
            let last = self
                .rx
                .get(peer)
                .map(|r| r.last_heard_s)
                .unwrap_or(f64::NEG_INFINITY);
            let stale = if last.is_finite() {
                (now_s - last).max(0.0)
            } else {
                // Never heard from this peer: stale since the epoch.
                now_s.max(0.0)
            };
            max_stale = max_stale.max(stale);
        }
        self.metrics.staleness.set(max_stale);
        let suppress = match self.stale_policy {
            StalePolicy::ServeStale => false,
            StalePolicy::LocalOnly { max_staleness_s } => max_stale > max_staleness_s,
        };
        if suppress != self.remote_suppressed {
            self.remote_suppressed = suppress;
            let users: Vec<GridUser> = self.remote.users().cloned().collect();
            for user in users {
                self.dirty.mark_user(user);
            }
            self.metrics.telemetry.event(now_s, "uss.stale_policy", || {
                if suppress {
                    format!("remote usage suppressed (peer staleness {max_stale:.0}s)")
                } else {
                    "remote usage restored".to_string()
                }
            });
        }
        max_stale
    }

    /// Whether the stale-data policy currently suppresses remote usage.
    pub fn remote_suppressed(&self) -> bool {
        self.remote_suppressed
    }

    /// Site crash: wipe all volatile exchange state. The local histogram
    /// (backed by the accounting database), the publish cursor (stored
    /// alongside it — reusing sequence numbers after a crash would let a
    /// stale in-flight ack from the old numbering cancel a new unacked
    /// summary, silently losing the republished history), the participation
    /// config, and the peer registration survive. The cleared published
    /// mirror makes the next publication re-emit all closed slots as
    /// absolute values — idempotent at receivers thanks to their cell
    /// mirrors, and any seq gap peers see across the crash resolves through
    /// resync → snapshot fallback (the retained history is volatile).
    pub fn crash(&mut self) {
        self.remote = UsageHistogram::new(self.local.slot_duration());
        self.published.clear();
        self.history.clear();
        self.rx.clear();
        self.seen_by_origin.clear();
        self.relay_published.clear();
        for tx in self.tx.values_mut() {
            *tx = PeerTx::new();
        }
        self.catchup_pending.clear();
        self.dirty = DirtySet::new();
        self.remote_suppressed = false;
        self.pending_publish_ctx = None;
        self.publish_trace.clear();
        self.latest_publish_ctx = None;
        self.pending_pipeline_trace = None;
    }

    /// Crash recovery: schedule a [`UssMessage::SnapshotRequest`] to every
    /// expected publisher on the next poll, pulling back the remote state
    /// lost in the crash. Self-healing even if a request is dropped — the
    /// next regular summary from that peer trips gap detection instead.
    pub fn request_catchup(&mut self) {
        self.catchup_pending = self.rx_peers.iter().copied().collect();
    }

    /// Site crash in durable-store mode: in addition to [`Uss::crash`], the
    /// local histogram and ingest counter are wiped. Without a store the
    /// sim models them as surviving in an external accounting database;
    /// with a store attached they are honestly volatile and rebuilt from
    /// checkpoint + WAL replay. The publish cursor still survives — it is
    /// modeled as fsynced alongside every publication (reusing sequence
    /// numbers would let stale in-flight acks cancel new summaries), and
    /// journaled [`aequus_store::WalRecord::Publish`] records replay it as
    /// belt and braces.
    pub fn crash_volatile(&mut self) {
        self.crash();
        self.local = UsageHistogram::new(self.local.slot_duration());
        self.records_ingested = 0;
    }

    /// Export everything the durable store checkpoints for this service:
    /// the local histogram cells (full `f64` bits — local recovery is
    /// bitwise exact), ingest/publish counters, the per-peer sequence
    /// cursors, and the origin-scoped absolute-cell merge mirrors. The
    /// relay-published mirror is deliberately excluded — a recovered
    /// forwarding node re-relays its whole mirror once, idempotently. `lsn`
    /// is the WAL position the snapshot covers; the UMS fields are left
    /// empty for the site to fill in ([`crate::ums::Ums::export_state`]).
    pub fn export_checkpoint(&self, lsn: u64, taken_s: f64) -> CheckpointState {
        CheckpointState {
            lsn,
            taken_s,
            site: self.site,
            slot_s: self.local.slot_duration(),
            local_cells: self.local.summary(self.site, 0).per_user,
            records_ingested: self.records_ingested,
            next_seq: self.next_seq,
            peers: self
                .rx
                .iter()
                .map(|(site, rx)| {
                    (
                        *site,
                        PeerCursor {
                            next_expected: rx.next_expected,
                        },
                    )
                })
                .collect(),
            origin_cells: self.seen_by_origin.clone(),
            ums_epoch_s: None,
            ums_cached: BTreeMap::new(),
            dirty_users: if self.dirty.is_all() {
                None
            } else {
                Some(self.dirty.users().cloned().collect())
            },
        }
    }

    /// Install a recovered checkpoint: rebuild the local histogram from its
    /// cells (bitwise exact — the cells are the accumulated values), restore
    /// the per-peer sequence cursors and the origin-scoped merge mirrors,
    /// rebuild the remote view from the mirrors, and re-mark the dirty
    /// users that were pending at checkpoint time. WAL records past
    /// `checkpoint.lsn` must then be re-applied via the `replay_*` methods.
    pub fn install_checkpoint(&mut self, ckpt: &CheckpointState) -> Result<(), RecoveryError> {
        if ckpt.site != self.site {
            return Err(RecoveryError::SiteMismatch {
                expected: self.site,
                found: ckpt.site,
            });
        }
        let slot_s = self.local.slot_duration();
        if (ckpt.slot_s - slot_s).abs() > 1e-9 {
            return Err(RecoveryError::SlotMismatch {
                expected: slot_s,
                found: ckpt.slot_s,
            });
        }
        self.local = UsageHistogram::new(slot_s);
        for (user, slots) in &ckpt.local_cells {
            for (&slot, &charge) in slots {
                self.local.add_charge(user, slot, charge);
            }
        }
        self.records_ingested = ckpt.records_ingested;
        self.next_seq = self.next_seq.max(ckpt.next_seq);
        self.remote = UsageHistogram::new(slot_s);
        self.rx.clear();
        for (site, cursor) in &ckpt.peers {
            let mut rx = PeerRx::new();
            rx.next_expected = cursor.next_expected;
            self.rx.insert(*site, rx);
        }
        self.seen_by_origin = ckpt.origin_cells.clone();
        self.relay_published.clear();
        for users in ckpt.origin_cells.values() {
            for (user, slots) in users {
                for (&slot, &charge) in slots {
                    self.remote.add_charge(user, slot, charge);
                }
            }
        }
        match &ckpt.dirty_users {
            None => self.dirty.mark_all(),
            Some(users) => {
                for user in users {
                    self.dirty.mark_user(user.clone());
                }
            }
        }
        Ok(())
    }

    /// Re-apply a journaled local usage record during store recovery:
    /// [`Uss::ingest`] minus telemetry — the original ingest already
    /// counted, and replay must not inflate the monotone series.
    pub fn replay_ingest(&mut self, rec: &UsageRecord) {
        if rec.charge() > 0.0 {
            self.dirty.mark_user(rec.user.clone());
        }
        self.local.record(rec);
        self.records_ingested += 1;
    }

    /// Re-apply journaled peer exchange data during store recovery: the
    /// same positive-delta merge and cursor bookkeeping as the live path,
    /// but silent — no acks (the peer collected them before the crash), no
    /// resync pulls (post-recovery catch-up covers any still-open gap), and
    /// no telemetry.
    pub fn replay_peer_data(&mut self, s: &UsageSummary, is_snapshot: bool) {
        if s.site == self.site || !self.mode.reads_global() {
            return;
        }
        let rx = self.rx.entry(s.site).or_insert_with(PeerRx::new);
        for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(s.relayed.iter()) {
            if *origin == self.site {
                continue;
            }
            let mirror = self.seen_by_origin.entry(*origin).or_default();
            merge_origin_cells(mirror, cells, &mut self.remote, &mut self.dirty);
        }
        if is_snapshot {
            if s.seq + 1 > rx.next_expected {
                rx.next_expected = s.seq + 1;
            }
            rx.seen_above.retain(|&q| q >= rx.next_expected);
            while rx.seen_above.remove(&rx.next_expected) {
                rx.next_expected += 1;
            }
        } else if s.seq > 0 {
            if s.seq >= rx.next_expected {
                rx.seen_above.insert(s.seq);
                while rx.seen_above.remove(&rx.next_expected) {
                    rx.next_expected += 1;
                }
            } else if s.seq == 1 && rx.next_expected > 2 {
                rx.next_expected = 2;
                rx.seen_above.clear();
            }
        }
    }

    /// Re-apply a journaled publish-sequence advance: the cursor only moves
    /// forward, so replay after a partially-journaled run never rewinds it.
    pub fn replay_publish_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Per-user decayed usage as the UMS consumes it: local plus (when the
    /// mode reads global data and the stale policy permits) remote.
    pub fn decayed_usage(
        &self,
        now_s: f64,
        decay: aequus_core::DecayPolicy,
    ) -> std::collections::BTreeMap<GridUser, f64> {
        let mut usage = self.local.decayed_all(now_s, decay);
        if self.mode.reads_global() && !self.remote_suppressed {
            for (user, value) in self.remote.decayed_all(now_s, decay) {
                *usage.entry(user).or_insert(0.0) += value;
            }
        }
        usage
    }

    /// Usage of one user weighted relative to a fixed reference epoch
    /// (separable decays; see [`aequus_core::DecayPolicy::epoch_weight`]):
    /// local plus, when the mode reads global data and the stale policy
    /// permits, remote.
    pub fn epoch_usage_of(
        &self,
        user: &GridUser,
        epoch_s: f64,
        decay: aequus_core::DecayPolicy,
    ) -> f64 {
        let mut value = self.local.epoch_usage(user, epoch_s, decay);
        if self.mode.reads_global() && !self.remote_suppressed {
            value += self.remote.epoch_usage(user, epoch_s, decay);
        }
        value
    }

    /// All users with any recorded usage (local, plus remote when the mode
    /// reads global data and the stale policy permits).
    pub fn known_users(&self) -> std::collections::BTreeSet<GridUser> {
        let mut users: std::collections::BTreeSet<GridUser> = self.local.users().cloned().collect();
        if self.mode.reads_global() && !self.remote_suppressed {
            users.extend(self.remote.users().cloned());
        }
        users
    }

    /// This site's raw (undecayed) per-user view of grid usage: local charge
    /// plus, when the mode reads global data and the stale policy permits,
    /// merged remote charge. The chaos suite's convergence invariant
    /// compares these views across sites.
    pub fn grid_view(&self) -> BTreeMap<GridUser, f64> {
        self.grid_usage().map(|(u, v)| (u.clone(), v)).collect()
    }

    /// [`Uss::grid_view`] as a stream in user order, without building the
    /// map: one merge walk of the local and remote histograms. Each value
    /// is the user's local sum, `local + remote` where both hold the user,
    /// or `0.0 + remote` for a remote-only user.
    pub fn grid_usage(&self) -> impl Iterator<Item = (&GridUser, f64)> + '_ {
        let reads_remote = self.mode.reads_global() && !self.remote_suppressed;
        let mut local = self.local.raw_usages().peekable();
        let mut remote = reads_remote
            .then(|| self.remote.raw_usages())
            .into_iter()
            .flatten()
            .peekable();
        std::iter::from_fn(move || match (local.peek(), remote.peek()) {
            (Some(&(l, _)), Some(&(r, _))) if l < r => local.next(),
            (Some(&(l, _)), Some(&(r, _))) if l == r => {
                let (user, lv) = local.next()?;
                let (_, rv) = remote.next()?;
                Some((user, lv + rv))
            }
            (_, Some(_)) => remote.next().map(|(user, rv)| (user, 0.0 + rv)),
            (Some(_), None) => local.next(),
            (None, None) => None,
        })
    }

    /// Raw local charge of one user (test/metrics access).
    pub fn local_usage_of(&self, user: &GridUser) -> f64 {
        self.local.raw_usage(user)
    }

    /// Raw merged remote charge of one user (test/metrics access).
    pub fn remote_usage_of(&self, user: &GridUser) -> f64 {
        self.remote.raw_usage(user)
    }

    /// Drain the set of users whose usage changed since the last drain.
    pub fn take_dirty(&mut self) -> DirtySet {
        self.dirty.take()
    }

    /// Users dirty since the last drain (inspection).
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    /// Total local usage recorded (conservation checks / metrics).
    pub fn local_total(&self) -> f64 {
        self.local.total_recorded()
    }

    /// Total remote usage merged in.
    pub fn remote_total(&self) -> f64 {
        self.remote.total_recorded()
    }

    /// Records ingested so far.
    pub fn records_ingested(&self) -> u64 {
        self.records_ingested
    }

    /// Sequence number the next publication will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Summaries received so far.
    pub fn summaries_received(&self) -> u64 {
        self.summaries_received
    }

    /// Summaries re-sent after a missing ack.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sequence gaps detected in peers' summary streams.
    pub fn seq_gaps(&self) -> u64 {
        self.seq_gaps
    }

    /// Anti-entropy resync pulls issued.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Cumulative snapshots sent (resync fallback + catch-up answers).
    pub fn snapshots_sent(&self) -> u64 {
        self.snapshots_sent
    }

    /// Incoming data messages that merged nothing new.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Unacked summaries queued for `peer` (test inspection).
    pub fn outbox_depth(&self, peer: SiteId) -> usize {
        self.tx.get(&peer).map_or(0, |t| t.outbox.len())
    }

    /// Per-link health rows at `now_s`: one tx-side row per delivery peer
    /// and one rx-side row per expected publisher. The tx staleness signal
    /// is the **undelivered-data age** — `now` minus the publication time
    /// of the oldest unacked outbox entry, zero when the outbox is empty —
    /// so it grows only while a peer actually misses data and stays silent
    /// through quiescent drains. Wire bytes/message counts and overlay
    /// depths are filled in by the sim shard, which owns the wire
    /// accounting.
    pub fn link_stats(&self, now_s: f64) -> Vec<LinkObservation> {
        let mut out = Vec::with_capacity(self.peers.len() + self.rx_peers.len());
        for peer in &self.peers {
            let mut row = LinkObservation::tx(self.site.0, peer.0, 0);
            if let Some(tx) = self.tx.get(peer) {
                row.staleness_s = tx
                    .outbox
                    .front()
                    .map_or(0.0, |&(_, published_s)| (now_s - published_s).max(0.0));
                row.outbox = tx.outbox.len();
                row.retries = tx.retries;
                row.snapshots = tx.snapshots;
            }
            out.push(row);
        }
        for peer in &self.rx_peers {
            let mut row = LinkObservation::rx(peer.0, self.site.0, 0);
            match self.rx.get(peer) {
                Some(rx) => {
                    row.heard_age_s = if rx.last_heard_s.is_finite() {
                        (now_s - rx.last_heard_s).max(0.0)
                    } else {
                        now_s.max(0.0)
                    };
                    row.gaps = rx.gaps;
                    row.resyncs = rx.resyncs;
                }
                None => row.heard_age_s = now_s.max(0.0),
            }
            out.push(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::JobId;
    use aequus_core::DecayPolicy;

    fn rec(site: u32, user: &str, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new(user),
            site: SiteId(site),
            cores: 1,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn publish_excludes_open_slot() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 50.0)); // slot 0
        uss.ingest(&rec(0, "a", 110.0, 120.0)); // slot 1 (open at t=150)
        let s = uss.publish(150.0).unwrap();
        assert!((s.total() - 50.0).abs() < 1e-9, "only slot 0 published");
        assert_eq!(s.seq, 1);
        // Slot 1 closes once now_s reaches slot 2.
        let s2 = uss.publish(250.0).unwrap();
        assert!((s2.total() - 10.0).abs() < 1e-9);
        assert_eq!(s2.seq, 2);
        // Nothing further.
        assert!(uss.publish(300.0).is_none());
    }

    #[test]
    fn no_double_publish() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        let s1 = uss.publish(200.0).unwrap();
        assert!((s1.total() - 80.0).abs() < 1e-9);
        assert!(uss.publish(200.0).is_none(), "cursor advanced");
    }

    #[test]
    fn late_charge_republishes_absolute_cell() {
        // A long job completing spreads charge back into an already
        // published slot; the next summary carries the new absolute value
        // and a receiver merges exactly the delta.
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        a.ingest(&rec(0, "u", 0.0, 50.0));
        b.receive(&a.publish(200.0).unwrap());
        a.ingest(&rec(0, "u", 50.0, 90.0)); // lands in the published slot 0
        let s = a.publish(200.0).unwrap();
        assert!((s.total() - 90.0).abs() < 1e-9, "absolute cell value");
        b.receive(&s);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn read_only_site_never_publishes() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::ReadOnly, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        assert!(uss.publish(500.0).is_none());
        // But it merges incoming data.
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        peer.ingest(&rec(1, "b", 0.0, 40.0));
        let s = peer.publish(500.0).unwrap();
        uss.receive(&s);
        assert_eq!(uss.summaries_received(), 1);
        let usage = uss.decayed_usage(500.0, DecayPolicy::None);
        assert!((usage[&GridUser::new("b")] - 40.0).abs() < 1e-9);
        assert!((usage[&GridUser::new("a")] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn local_only_site_ignores_incoming() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::LocalOnly, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        peer.ingest(&rec(1, "b", 0.0, 40.0));
        let s = peer.publish(500.0).unwrap();
        uss.receive(&s);
        let usage = uss.decayed_usage(500.0, DecayPolicy::None);
        assert!(
            !usage.contains_key(&GridUser::new("b")),
            "global data ignored"
        );
        // But it still contributes its own data outward.
        assert!(uss.publish(500.0).is_some());
    }

    #[test]
    fn local_only_site_still_acknowledges() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::LocalOnly, 100.0);
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        peer.ingest(&rec(1, "b", 0.0, 40.0));
        let s = peer.publish(500.0).unwrap();
        let responses = uss.receive_message(
            &UssMessage::Summary {
                summary: s,
                ctx: None,
            },
            500.0,
        );
        assert!(
            matches!(
                responses.as_slice(),
                [(
                    SiteId(1),
                    UssMessage::Ack {
                        from: SiteId(0),
                        seq: 1
                    }
                )]
            ),
            "{responses:?}"
        );
    }

    #[test]
    fn own_summaries_never_double_counted() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        let s = uss.publish(500.0).unwrap();
        uss.receive(&s); // echoed back (e.g. broadcast bus)
        let usage = uss.decayed_usage(500.0, DecayPolicy::None);
        assert!((usage[&GridUser::new("a")] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_deliveries_merge_once() {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let s = a.publish(500.0).unwrap();
        b.receive(&s);
        b.receive(&s);
        b.receive(&s);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        assert_eq!(b.duplicates(), 2);
    }

    #[test]
    fn decay_applied_to_both_sources() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 10.0);
        uss.ingest(&rec(0, "a", 0.0, 10.0));
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 10.0);
        peer.ingest(&rec(1, "a", 0.0, 10.0));
        uss.receive(&peer.publish(100.0).unwrap());
        let fresh = uss.decayed_usage(10.0, DecayPolicy::Exponential { half_life_s: 20.0 });
        let stale = uss.decayed_usage(1000.0, DecayPolicy::Exponential { half_life_s: 20.0 });
        assert!(fresh[&GridUser::new("a")] > stale[&GridUser::new("a")]);
    }

    // --- reliability layer ---

    fn reliable_pair() -> (Uss, Uss) {
        reliable_pair_with(ParticipationMode::Full)
    }

    /// A reliable pair whose second end runs in participation mode `mode_b`.
    fn reliable_pair_with(mode_b: ParticipationMode) -> (Uss, Uss) {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut b = Uss::new(SiteId(1), mode_b, 100.0);
        let peers = [SiteId(0), SiteId(1)];
        a.set_peers(&peers, &peers);
        b.set_peers(&peers, &peers);
        let retry = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 40.0,
            jitter_frac: 0.0,
            history_cap: 8,
            outbox_cap: 8,
        };
        a.configure_reliability(retry, 1);
        b.configure_reliability(retry, 2);
        (a, b)
    }

    /// Deliver `msgs` to whichever of the two ends each is addressed to,
    /// feeding responses back until the exchange is quiet.
    fn drain(a: &mut Uss, b: &mut Uss, mut msgs: Vec<(SiteId, UssMessage)>, now_s: f64) {
        while !msgs.is_empty() {
            let mut next = Vec::new();
            for (dest, msg) in msgs {
                let target: &mut Uss = if dest == a.site() { a } else { b };
                next.extend(target.receive_message(&msg, now_s));
            }
            msgs = next;
        }
    }

    #[test]
    fn dropped_summary_is_retried_not_lost() {
        // The silent-loss regression: a published-but-dropped summary must
        // be re-sent after the ack timeout, not forgotten.
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        assert!(a.publish(200.0).is_some());
        let first = a.poll(200.0);
        assert_eq!(first.len(), 1, "initial send");
        // Drop it on the floor. Before the ack timeout nothing is re-sent.
        assert!(a.poll(205.0).is_empty(), "backoff holds");
        assert_eq!(a.outbox_depth(SiteId(1)), 1, "still owed");
        // After the timeout the retry fires and the data arrives intact.
        let retry = a.poll(211.0);
        assert_eq!(retry.len(), 1, "retried");
        assert!(a.retries() >= 1);
        drain(&mut a, &mut b, retry, 211.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // The ack cleared the outbox; nothing further is sent.
        assert_eq!(a.outbox_depth(SiteId(1)), 0);
        assert!(a.poll(500.0).is_empty());
    }

    #[test]
    fn link_stats_report_undelivered_data_age() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0);
        let sent = a.poll(200.0);
        // The summary is in flight but unacked: staleness is the age of the
        // oldest undelivered publish, measured at the asking clock.
        let tx = a
            .link_stats(260.0)
            .into_iter()
            .find(|o| o.to == 1 && o.heard_age_s < 0.0)
            .expect("tx row for peer 1");
        assert!((tx.staleness_s - 60.0).abs() < 1e-9);
        assert_eq!(tx.outbox, 1);
        drain(&mut a, &mut b, sent, 261.0);
        // Once acked the outbox drains and the link reads fresh again, even
        // if no new data has been published since (quiescent != stale).
        let tx = a
            .link_stats(1000.0)
            .into_iter()
            .find(|o| o.to == 1 && o.heard_age_s < 0.0)
            .expect("tx row for peer 1");
        assert_eq!(tx.staleness_s, 0.0);
        assert_eq!(tx.outbox, 0);
        // The receiving side reports how long since it last heard from us.
        let rx = b
            .link_stats(300.0)
            .into_iter()
            .find(|o| o.from == 0 && o.staleness_s < 0.0)
            .expect("rx row for peer 0");
        assert!((rx.heard_age_s - 39.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_grows_until_ack_then_resets() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 50.0));
        a.publish(200.0);
        assert_eq!(a.poll(200.0).len(), 1); // attempt 1 → next at +10
        assert_eq!(a.poll(210.0).len(), 1); // attempt 2 → next at +20
        assert!(a.poll(225.0).is_empty(), "within doubled backoff");
        let third = a.poll(230.0);
        assert_eq!(third.len(), 1); // attempt 3
        drain(&mut a, &mut b, third, 230.0);
        // Fresh data after the ack goes out immediately again.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(400.0);
        assert_eq!(a.poll(400.0).len(), 1, "backoff reset by ack");
    }

    #[test]
    fn gap_triggers_resync_and_recovers() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let s1 = a.publish(200.0).unwrap();
        a.ingest(&rec(0, "u", 110.0, 160.0));
        let s2 = a.publish(300.0).unwrap();
        assert_eq!((s1.seq, s2.seq), (1, 2));
        // s1 is lost; s2 arrives and exposes the gap.
        let responses = b.receive_message(
            &UssMessage::Summary {
                summary: s2,
                ctx: None,
            },
            300.0,
        );
        assert_eq!(b.seq_gaps(), 1);
        let resync = responses
            .iter()
            .find(|(_, m)| matches!(m, UssMessage::Resync { .. }))
            .expect("gap must trigger a resync pull");
        assert!(matches!(
            resync.1,
            UssMessage::Resync {
                from_seq: 1,
                to_seq: 1,
                ..
            }
        ));
        // The pull re-syncs the missing range from a's history.
        drain(&mut a, &mut b, responses, 300.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 130.0).abs() < 1e-9);
        assert_eq!(b.resyncs(), 1);
    }

    #[test]
    fn compacted_history_falls_back_to_snapshot() {
        let (mut a, mut b) = reliable_pair();
        let retry = RetryPolicy {
            history_cap: 1,
            jitter_frac: 0.0,
            ..*a.retry_policy()
        };
        a.configure_reliability(retry, 1);
        // Three publishes; history retains only the last.
        for (i, t) in [200.0, 300.0, 400.0].into_iter().enumerate() {
            a.ingest(&rec(0, "u", i as f64 * 100.0, i as f64 * 100.0 + 50.0));
            a.publish(t).unwrap();
        }
        // b sees only seq 3 → gap [1,2]; a's history lost seqs 1-2, so the
        // pull is answered with a cumulative snapshot.
        let s3 = a.history.back().unwrap().clone();
        let responses = b.receive_message(
            &UssMessage::Summary {
                summary: s3,
                ctx: None,
            },
            400.0,
        );
        drain(&mut a, &mut b, responses, 400.0);
        assert!(a.snapshots_sent() >= 1, "snapshot fallback used");
        assert!((b.remote_usage_of(&GridUser::new("u")) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn crash_recovery_converges_via_catchup() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        b.ingest(&rec(1, "v", 0.0, 60.0));
        a.publish(200.0);
        b.publish(200.0);
        let mut msgs = a.poll(200.0);
        msgs.extend(b.poll(200.0));
        drain(&mut a, &mut b, msgs, 200.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // b crashes: remote view wiped, then recovery pulls a snapshot.
        b.crash();
        assert_eq!(b.remote_usage_of(&GridUser::new("u")), 0.0);
        b.request_catchup();
        let msgs = b.poll(300.0);
        assert!(
            matches!(
                msgs.as_slice(),
                [(SiteId(0), UssMessage::SnapshotRequest { .. })]
            ),
            "{msgs:?}"
        );
        drain(&mut a, &mut b, msgs, 300.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // b's own durable local data republishes under fresh seqs; a's cell
        // mirror makes the re-publication a no-op.
        assert!(b.publish(300.0).is_some(), "published mirror was wiped");
        let msgs = b.poll(300.0);
        drain(&mut a, &mut b, msgs, 300.0);
        assert!((a.remote_usage_of(&GridUser::new("v")) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn stale_ack_across_crash_cannot_cancel_republication() {
        // Regression: the publish cursor must survive a crash. If seqs
        // restarted at 1, an ack for the *old* seq 1 still in flight at
        // crash time would cancel the *new* seq-1 summary (the full
        // republished history) while the network drops it — and with the
        // published mirror already advanced, that data would never be sent
        // again.
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let pre = a.publish(200.0).expect("summary");
        assert_eq!(pre.seq, 1);
        a.poll(200.0); // old seq-1 summary leaves; its ack will arrive late
        a.crash();
        a.ingest(&rec(0, "u", 210.0, 250.0));
        let post = a.publish(300.0).expect("republication");
        assert!(post.seq > pre.seq, "crash must not reuse sequence numbers");
        a.poll(300.0); // post-crash summary leaves and is dropped
                       // The stale ack from the pre-crash numbering lands now.
        a.receive_message(
            &UssMessage::Ack {
                from: SiteId(1),
                seq: pre.seq,
            },
            310.0,
        );
        assert_eq!(
            a.outbox_depth(SiteId(1)),
            1,
            "stale ack must not cancel the unacked republication"
        );
        // The retry (after backoff) really does re-deliver everything.
        let msgs = a.poll(400.0);
        assert!(!msgs.is_empty(), "republication retried");
        drain(&mut a, &mut b, msgs, 400.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
        assert!(a.retries() > 0);
    }

    /// The map-building `grid_view` the streamed walk replaced: the oracle
    /// the walk must match bit for bit.
    fn reference_grid_view(uss: &Uss) -> BTreeMap<GridUser, f64> {
        let mut view: BTreeMap<GridUser, f64> = uss
            .local
            .users()
            .map(|u| (u.clone(), uss.local.raw_usage(u)))
            .collect();
        if uss.mode.reads_global() && !uss.remote_suppressed {
            for user in uss.remote.users() {
                *view.entry(user.clone()).or_insert(0.0) += uss.remote.raw_usage(user);
            }
        }
        view
    }

    /// Site `b` of a pair holding local-only, remote-only and shared users
    /// with inexact (non-dyadic) per-slot charges.
    fn mixed_pair(mode_b: ParticipationMode) -> (Uss, Uss) {
        let (mut a, mut b) = reliable_pair_with(mode_b);
        a.ingest(&rec(0, "shared", 13.7, 291.3));
        a.ingest(&rec(0, "remote_only", 0.1, 177.7));
        a.ingest(&rec(0, "shared", 101.9, 133.3));
        b.ingest(&rec(1, "shared", 7.3, 245.1));
        b.ingest(&rec(1, "local_only", 33.3, 299.9));
        a.publish(500.0);
        let msgs = a.poll(500.0);
        drain(&mut a, &mut b, msgs, 500.0);
        (a, b)
    }

    fn assert_grid_view_matches_reference(uss: &Uss) -> BTreeMap<GridUser, f64> {
        let streamed = uss.grid_view();
        let reference = reference_grid_view(uss);
        assert_eq!(
            streamed.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>()
        );
        for (user, v) in &streamed {
            assert_eq!(v.to_bits(), reference[user].to_bits(), "{user}");
        }
        streamed
    }

    #[test]
    fn streamed_grid_view_matches_map_building_path() {
        let shared = GridUser::new("shared");
        let remote_only = GridUser::new("remote_only");

        // Reads global: remote-only users join, shared users sum both sides.
        let (_, b) = mixed_pair(ParticipationMode::Full);
        assert!(b.remote_total() > 0.0, "remote data arrived");
        let view = assert_grid_view_matches_reference(&b);
        assert!(view.contains_key(&remote_only));
        assert!(view[&shared] > b.local_usage_of(&shared));

        // Local-only participation: the view is the site's own charge.
        let (_, b) = mixed_pair(ParticipationMode::LocalOnly);
        let view = assert_grid_view_matches_reference(&b);
        assert!(!view.contains_key(&remote_only));
        assert_eq!(view[&shared], b.local_usage_of(&shared));

        // Stale policy: a silent peer suppresses the remote side.
        let (_, mut b) = mixed_pair(ParticipationMode::Full);
        b.set_stale_policy(StalePolicy::LocalOnly {
            max_staleness_s: 100.0,
        });
        b.update_staleness(5_000.0);
        assert!(b.remote_suppressed());
        let view = assert_grid_view_matches_reference(&b);
        assert!(!view.contains_key(&remote_only));
        assert_eq!(
            b.grid_usage().count(),
            view.len(),
            "the walk yields each user once"
        );
    }

    #[test]
    fn stale_policy_degrades_to_local_only_and_restores() {
        let (mut a, mut b) = reliable_pair();
        b.set_stale_policy(StalePolicy::LocalOnly {
            max_staleness_s: 100.0,
        });
        b.ingest(&rec(1, "v", 0.0, 30.0));
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0);
        let msgs = a.poll(200.0);
        drain(&mut a, &mut b, msgs, 200.0);
        b.update_staleness(250.0);
        assert!(!b.remote_suppressed());
        assert!(b.grid_view().contains_key(&GridUser::new("u")));
        // Peer goes silent past the threshold: remote weighting suppressed.
        b.update_staleness(400.0);
        assert!(b.remote_suppressed());
        assert!(!b.grid_view().contains_key(&GridUser::new("u")));
        assert!(
            !b.decayed_usage(400.0, DecayPolicy::None)
                .contains_key(&GridUser::new("u")),
            "UMS-facing usage is local-only while degraded"
        );
        // Fresh data from the peer restores the global view.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(500.0);
        let msgs = a.poll(500.0);
        drain(&mut a, &mut b, msgs, 500.0);
        b.update_staleness(505.0);
        assert!(!b.remote_suppressed());
        assert!((b.grid_view()[&GridUser::new("u")] - 120.0).abs() < 1e-9);
    }

    #[test]
    fn outbox_overflow_drops_oldest_but_converges_via_resync() {
        let (mut a, mut b) = reliable_pair();
        let retry = RetryPolicy {
            outbox_cap: 2,
            history_cap: 2,
            jitter_frac: 0.0,
            ..*a.retry_policy()
        };
        a.configure_reliability(retry, 1);
        for i in 0..5 {
            a.ingest(&rec(0, "u", i as f64 * 100.0, i as f64 * 100.0 + 50.0));
            a.publish(100.0 * (i + 2) as f64).unwrap();
        }
        assert_eq!(a.outbox_depth(SiteId(1)), 2, "bounded outbox");
        let msgs = a.poll(700.0);
        drain(&mut a, &mut b, msgs, 700.0);
        assert!(
            (b.remote_usage_of(&GridUser::new("u")) - 250.0).abs() < 1e-9,
            "gap → resync → snapshot recovered the overflowed entries"
        );
    }

    // --- overlay relay (per-hop aggregation) ---

    /// Three sites in a line: 0 — 1 — 2, with site 1 forwarding. Sites 0
    /// and 2 are not linked; their data must cross the interior node.
    fn relay_chain() -> (Uss, Uss, Uss) {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut h = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        let mut c = Uss::new(SiteId(2), ParticipationMode::Full, 100.0);
        a.set_peers(&[SiteId(1)], &[SiteId(1)]);
        h.set_peers(&[SiteId(0), SiteId(2)], &[SiteId(0), SiteId(2)]);
        c.set_peers(&[SiteId(1)], &[SiteId(1)]);
        h.set_forwarding(true);
        let retry = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 40.0,
            jitter_frac: 0.0,
            history_cap: 8,
            outbox_cap: 8,
        };
        a.configure_reliability(retry, 1);
        h.configure_reliability(retry, 2);
        c.configure_reliability(retry, 3);
        (a, h, c)
    }

    /// Route messages between the three chain nodes until quiet, then let
    /// the forwarder publish/poll its relay sections and route again.
    fn pump_chain(a: &mut Uss, h: &mut Uss, c: &mut Uss, now_s: f64) {
        for _ in 0..4 {
            let mut msgs: Vec<(SiteId, UssMessage)> = Vec::new();
            msgs.extend(a.poll(now_s));
            h.publish(now_s); // relay pass: diff seen_by_origin vs relayed
            msgs.extend(h.poll(now_s));
            msgs.extend(c.poll(now_s));
            while !msgs.is_empty() {
                let mut next = Vec::new();
                for (dest, msg) in msgs {
                    let target: &mut Uss = match dest.0 {
                        0 => a,
                        1 => h,
                        _ => c,
                    };
                    next.extend(target.receive_message(&msg, now_s));
                }
                msgs = next;
            }
        }
    }

    #[test]
    fn interior_node_relays_leaf_data_across_the_chain() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        c.ingest(&rec(2, "w", 0.0, 40.0));
        a.publish(500.0);
        c.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        // Every node sees all data despite 0 and 2 never talking directly.
        for (uss, who) in [(&a, "a"), (&h, "hub"), (&c, "c")] {
            let view = uss.grid_view();
            assert!((view[&GridUser::new("u")] - 80.0).abs() < 1e-9, "{who}");
            assert!((view[&GridUser::new("w")] - 40.0).abs() < 1e-9, "{who}");
        }
        // The relay echoed site 0's data back to site 0 (the hub publishes
        // one summary to all neighbors) — it must not double-count.
        assert!((a.remote_usage_of(&GridUser::new("u")) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn relay_sections_are_incremental_and_idempotent() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        // A second relay pass with nothing new publishes nothing.
        assert!(h.publish(600.0).is_none(), "no new cells: no relay traffic");
        // More data at the origin relays only the delta.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(700.0);
        pump_chain(&mut a, &mut h, &mut c, 700.0);
        assert!((c.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn relayed_duplicates_collapse_under_origin_scoped_mirror() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let s = a.publish(500.0).unwrap();
        h.receive_message(
            &UssMessage::Summary {
                summary: s,
                ctx: None,
            },
            500.0,
        );
        let relay = h.publish(500.0).unwrap();
        assert!(relay.per_user.is_empty(), "hub has no local data");
        assert_eq!(relay.relayed.len(), 1, "one relayed origin");
        // Deliver the relayed summary to c three times: merged once.
        for _ in 0..3 {
            c.receive_at(&relay, 510.0);
        }
        assert!((c.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        assert_eq!(c.duplicates(), 2);
    }

    #[test]
    fn forwarding_snapshot_covers_relayed_origins() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        // c crashes and catches up from the hub alone: the hub's snapshot
        // must carry site 0's cells as a relayed section.
        c.crash();
        c.request_catchup();
        pump_chain(&mut a, &mut h, &mut c, 600.0);
        assert!(
            (c.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9,
            "snapshot from the forwarding hub restored relayed data"
        );
    }

    #[test]
    fn crashed_interior_node_rebuilds_relay_state() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        h.crash();
        h.request_catchup();
        pump_chain(&mut a, &mut h, &mut c, 600.0);
        // New origin data published after the hub's recovery still crosses.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(700.0);
        pump_chain(&mut a, &mut h, &mut c, 700.0);
        assert!((h.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
        assert!((c.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_round_trips_origin_scoped_mirror() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        let ckpt = h.export_checkpoint(7, 500.0);
        assert!(ckpt.origin_cells.contains_key(&SiteId(0)));
        let mut restored = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        restored.set_peers(&[SiteId(0), SiteId(2)], &[SiteId(0), SiteId(2)]);
        restored.set_forwarding(true);
        restored.install_checkpoint(&ckpt).unwrap();
        assert!((restored.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // The relay-published mirror is not checkpointed: the first publish
        // re-relays the whole mirror — idempotent downstream.
        let replayed = restored.publish(600.0).unwrap();
        assert_eq!(replayed.relayed.len(), 1);
        c.receive_at(&replayed, 600.0);
        assert!((c.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
    }
}
