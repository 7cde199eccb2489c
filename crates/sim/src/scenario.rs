//! Scenario definitions: cluster fleets, policies, and all tunables of a
//! simulated grid deployment.

use aequus_core::codec::Encoding;
use aequus_core::fairshare::FairshareConfig;
use aequus_core::policy::{flat_policy, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_rms::{DispatchConfig, PriorityWeights};
use aequus_services::{
    OverlayTopology, ParticipationMode, RetryPolicy, ServiceTimings, StalePolicy, StoreConfig,
};

use crate::dispatch::RoutingPolicy;
use crate::faults::FaultPlan;

/// Which RMS front end a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmsKind {
    /// SLURM-like (plugin integration, periodic re-prioritization).
    Slurm,
    /// Maui-like (patched call-outs, per-iteration re-prioritization).
    Maui,
}

/// One cluster of the simulated grid.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Virtual hosts.
    pub nodes: u32,
    /// Cores per host (the paper's virtual hosts run one job each).
    pub cores_per_node: u32,
    /// Participation in the global usage exchange.
    pub participation: ParticipationMode,
    /// RMS front end.
    pub rms: RmsKind,
    /// Site-local policy override — "local administrations retain control
    /// over their clusters" (§II-A): a site may enforce its own tree (e.g.
    /// local users plus a mounted grid share) instead of the grid-wide
    /// default. Leaves absent from a site's policy get the neutral factor
    /// there.
    pub policy_override: Option<PolicyTree>,
}

impl ClusterSpec {
    /// Total cores.
    pub fn cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }
}

/// How sites map onto shard-worker threads in the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlacement {
    /// Site `i` goes to worker `i % num_threads` — spreads neighboring
    /// (similarly loaded) sites across workers. The default.
    #[default]
    RoundRobin,
    /// Contiguous blocks of sites per worker — better cache locality when
    /// site state is large and sites are homogeneous.
    Blocked,
}

impl ShardPlacement {
    /// Worker index for `site` among `n_sites` split over `n_workers`.
    /// Placement affects only which thread executes a shard — never the
    /// result: shards carry their own seed streams and queues, so any
    /// placement of any worker count replays identically.
    pub fn worker_for(&self, site: usize, n_sites: usize, n_workers: usize) -> usize {
        let n_workers = n_workers.max(1);
        match self {
            Self::RoundRobin => site % n_workers,
            Self::Blocked => {
                let per = n_sites.div_ceil(n_workers).max(1);
                (site / per).min(n_workers - 1)
            }
        }
    }
}

/// A complete grid scenario.
#[derive(Debug, Clone)]
pub struct GridScenario {
    /// The clusters.
    pub clusters: Vec<ClusterSpec>,
    /// The share policy every site enforces. Usually flat (the paper's
    /// evaluation uses the four model users directly under the root), but
    /// arbitrary hierarchies — including mounted VO subtrees — are
    /// supported end-to-end.
    pub policy: PolicyTree,
    /// Fairshare algorithm configuration (k weight, decay, resolution).
    pub fairshare: FairshareConfig,
    /// Vector→scalar projection ("the percental projection approach is used
    /// during testing").
    pub projection: ProjectionKind,
    /// The §IV-A-2 delay chain.
    pub timings: ServiceTimings,
    /// RMS priority factor weights ("fairshare is the only scheduling
    /// factor used during these tests").
    pub weights: PriorityWeights,
    /// Submission-host routing policy (which cluster gets each job).
    pub routing: RoutingPolicy,
    /// Per-cluster queue dispatch: order (FIFO / EASY / Conservative /
    /// SAF), runtime predictor, and walltime-overrun policy, applied to
    /// every site's RMS.
    pub dispatch: DispatchConfig,
    /// Walltime-request padding: each trace job's request is its true
    /// duration times this factor (1.0 = perfectly honest requests, the
    /// paper's idle-wait test bed; > 1 models the padded requests real
    /// users submit, < 1 models under-requesting).
    pub request_factor: f64,
    /// Cluster advance interval, seconds of simulated time.
    pub tick_interval_s: f64,
    /// Metrics sampling interval, seconds.
    pub sample_interval_s: f64,
    /// USS histogram slot duration, seconds.
    pub usage_slot_s: f64,
    /// RNG seed (dispatch and faults).
    pub seed: u64,
    /// Failure injection.
    pub faults: FaultPlan,
    /// Reliable-exchange retry/backoff/retention configuration.
    pub retry: RetryPolicy,
    /// What sites serve while peer data goes stale (outages, crashes).
    pub stale_policy: StalePolicy,
    /// Enable telemetry: per-site metric registries, stage spans, structured
    /// events, and the end-to-end pipeline-delay tracer. Off by default —
    /// disabled telemetry compiles to no-op handles on every hot path.
    pub telemetry: bool,
    /// Causal-tracing sample rate layered on telemetry: every Nth usage
    /// report roots a cross-site span tree (`0` leaves the span layer wired
    /// but unsampled). Requires `telemetry`.
    pub span_sample_every: u64,
    /// Capture decision provenance (a replayable `Explanation` per traced
    /// served query). Requires `telemetry`.
    pub capture_provenance: bool,
    /// Run a flight recorder over the metrics samples: anomalies (starvation,
    /// stale-policy degradation, view divergence) dump the reference site's
    /// events + spans + explanations as JSONL into the result.
    pub flight: Option<aequus_telemetry::flight::AnomalyConfig>,
    /// Attach a durable per-site store (CRC-framed WAL + checkpoints).
    /// Crashed sites then recover by replaying their own store first and
    /// fall back to anti-entropy catch-up only for the delta; without a
    /// store, recovery relies entirely on peer snapshots.
    pub store: Option<StoreConfig>,
    /// Extra delivery latency for `Snapshot` catch-up messages, seconds —
    /// models hauling a full cumulative snapshot over the wire versus the
    /// compact incremental summaries. `0.0` keeps the legacy behavior
    /// (snapshots as fast as summaries).
    pub snapshot_transfer_s: f64,
    /// Shard-worker threads for the parallel engine. `1` (the default) runs
    /// the epoch loop inline without spawning; any value yields results
    /// seed-for-seed identical to `1` — threads only change wall-clock time.
    pub num_threads: usize,
    /// How sites map onto workers when `num_threads > 1`. Placement never
    /// affects results, only locality.
    pub placement: ShardPlacement,
    /// Cap on how many policy users the run tracks (`None` = all): the
    /// first `cap` users in policy order. [`GridScenario::tracked_users`]
    /// honours it, so the per-sample fairshare readout, the metrics log's
    /// policy targets, the per-user SLO rules and the flight recorder all
    /// watch the same users. Nation-scale runs with 100k+ users would
    /// otherwise spend the whole run inside metrics sampling. The
    /// cross-site usage-view divergence still covers every user.
    pub metrics_user_cap: Option<usize>,
    /// Continuous-profiling mode: per-shard stage accounting, barrier-wait
    /// attribution, gossip bytes-on-wire, and the Chrome-trace / folded
    /// export in [`crate::SimResult::profile`]. `Counters` keeps only the
    /// deterministic half (no clock reads); `Full` adds wall timing and the
    /// per-epoch span ring. Implies telemetry when not `Off` (the service
    /// stages are read from the per-site registries).
    pub profile: aequus_telemetry::ProfileMode,
    /// Debug-only: sleep this many wall nanoseconds at every epoch barrier.
    /// Exists so `bench_diff --selftest` can inject a known slowdown and
    /// assert the differ attributes it to `barrier.wait`. Never set in real
    /// scenarios.
    pub debug_barrier_sleep_ns: u64,
    /// Gossip overlay topology: which sites exchange summaries directly.
    /// Interior nodes of non-mesh overlays relay merged cells onward
    /// (per-hop aggregation), so every site still converges to the full
    /// grid view.
    pub overlay: OverlayTopology,
    /// Wire encoding used to account gossip bytes-on-wire (`wire_size` of
    /// every delivered message — the sim never ships real buffers, but the
    /// byte accounting is the codec's real encoded size).
    pub encoding: Encoding,
    /// Fairness-health monitoring: streaming SLO rules with multi-window
    /// burn-rate alerting plus the per-link gossip health map. `None` (the
    /// default) skips all health collection; `Some` fills
    /// [`crate::SimResult::health_report`] and [`crate::SimResult::alerts`].
    /// Thresholds left at `0.0` are auto-derived from the scenario timings.
    pub health: Option<aequus_telemetry::SloConfig>,
}

impl GridScenario {
    /// The paper's national test bed: six clusters of 40 virtual hosts
    /// ("for a total of 240 hosts, corresponding roughly to 10% of the
    /// national grid capacity"), SLURM on every site, percental projection,
    /// fairshare-only priority, k = 0.5.
    pub fn national_testbed(policy_shares: &[(&str, f64)], seed: u64) -> Self {
        let timings = ServiceTimings::default();
        Self {
            clusters: (0..6)
                .map(|_| ClusterSpec {
                    nodes: 40,
                    cores_per_node: 1,
                    participation: ParticipationMode::Full,
                    rms: RmsKind::Slurm,
                    policy_override: None,
                })
                .collect(),
            policy: flat_policy(policy_shares).expect("valid flat policy"),
            fairshare: FairshareConfig {
                // Decay tuned to the compressed 6-hour test horizon.
                decay: aequus_core::DecayPolicy::Exponential {
                    half_life_s: 1800.0,
                },
                ..FairshareConfig::default()
            },
            projection: ProjectionKind::Percental,
            timings,
            weights: PriorityWeights::fairshare_only(),
            routing: RoutingPolicy::Stochastic,
            dispatch: DispatchConfig::default(),
            request_factor: 1.0,
            tick_interval_s: 5.0,
            sample_interval_s: 60.0,
            usage_slot_s: 60.0,
            seed,
            faults: FaultPlan::none(),
            retry: RetryPolicy::from_timings(&timings),
            stale_policy: StalePolicy::ServeStale,
            telemetry: false,
            span_sample_every: 0,
            capture_provenance: false,
            flight: None,
            store: None,
            snapshot_transfer_s: 0.0,
            num_threads: 1,
            placement: ShardPlacement::RoundRobin,
            metrics_user_cap: None,
            profile: aequus_telemetry::ProfileMode::Off,
            debug_barrier_sleep_ns: 0,
            overlay: OverlayTopology::FullMesh,
            encoding: Encoding::default(),
            health: None,
        }
    }

    /// A single production-like cluster (the HPC2N deployment: 544 cores,
    /// SLURM 2.4.3, one Aequus installation).
    pub fn production_cluster(policy_shares: &[(&str, f64)], seed: u64) -> Self {
        let mut s = Self::national_testbed(policy_shares, seed);
        s.clusters = vec![ClusterSpec {
            nodes: 68,
            cores_per_node: 8,
            participation: ParticipationMode::Full,
            rms: RmsKind::Slurm,
            policy_override: None,
        }];
        s
    }

    /// Total cores across all clusters.
    pub fn total_cores(&self) -> u32 {
        self.clusters.iter().map(ClusterSpec::cores).sum()
    }

    /// Per-cluster core capacities (dispatch weights).
    pub fn capacities(&self) -> Vec<u32> {
        self.clusters.iter().map(ClusterSpec::cores).collect()
    }

    /// Replace the (flat) policy with an arbitrary hierarchy — e.g. a site
    /// tree with a mounted grid sub-policy.
    pub fn with_policy(mut self, policy: PolicyTree) -> Self {
        self.policy = policy;
        self
    }

    /// Enable per-site telemetry (metric registries, spans, events, and the
    /// pipeline-delay tracer).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Enable causal tracing: every `sample_every`-th usage report roots a
    /// span tree followed across sites. Implies telemetry.
    pub fn with_tracing(mut self, sample_every: u64) -> Self {
        self.telemetry = true;
        self.span_sample_every = sample_every;
        self
    }

    /// Full causal capture: every report traced and every traced served
    /// query's decision provenance recorded. Implies telemetry.
    pub fn with_full_tracing(mut self) -> Self {
        self.telemetry = true;
        self.span_sample_every = 1;
        self.capture_provenance = true;
        self
    }

    /// Attach a flight recorder with the given anomaly thresholds.
    pub fn with_flight_recorder(mut self, cfg: aequus_telemetry::flight::AnomalyConfig) -> Self {
        self.flight = Some(cfg);
        self
    }

    /// Attach a durable store (default configuration) to every site.
    pub fn with_durable_store(mut self) -> Self {
        self.store = Some(StoreConfig::default());
        self
    }

    /// Attach a durable store with explicit tuning.
    pub fn with_store_config(mut self, cfg: StoreConfig) -> Self {
        self.store = Some(cfg);
        self
    }

    /// Set the extra delivery latency for snapshot catch-up transfers.
    pub fn with_snapshot_transfer(mut self, seconds: f64) -> Self {
        self.snapshot_transfer_s = seconds;
        self
    }

    /// Run the epoch loop on `n` shard-worker threads (1 = inline/serial).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Choose the site→worker placement strategy.
    pub fn with_placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Choose the gossip overlay topology (default: full mesh).
    pub fn with_overlay(mut self, overlay: OverlayTopology) -> Self {
        self.overlay = overlay;
        self
    }

    /// Choose the wire encoding for gossip byte accounting.
    pub fn with_encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Enable fairness-health monitoring (SLO burn-rate alerting + per-link
    /// gossip health map) with the given configuration.
    pub fn with_health(mut self, cfg: aequus_telemetry::SloConfig) -> Self {
        self.health = Some(cfg);
        self
    }

    /// Track only the first `cap` policy users (see
    /// [`GridScenario::metrics_user_cap`]).
    pub fn with_metrics_user_cap(mut self, cap: usize) -> Self {
        self.metrics_user_cap = Some(cap);
        self
    }

    /// Choose the submission-host routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Configure every site's queue dispatch (order, predictor, overrun
    /// policy).
    pub fn with_dispatch(mut self, dispatch: DispatchConfig) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Set the walltime-request padding factor applied to trace jobs.
    pub fn with_request_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "request factor must be positive");
        self.request_factor = factor;
        self
    }

    /// Enable continuous profiling. Any mode other than `Off` implies
    /// telemetry — the profiler folds the per-site service histograms
    /// (USS ingest/publish, gossip merge, UMS/FCS refresh, WAL
    /// append/replay) into the run profile.
    pub fn with_profiling(mut self, mode: aequus_telemetry::ProfileMode) -> Self {
        self.profile = mode;
        if mode != aequus_telemetry::ProfileMode::Off {
            self.telemetry = true;
        }
        self
    }

    /// Inject an artificial sleep at every epoch barrier (debug/selftest
    /// only — see [`GridScenario::debug_barrier_sleep_ns`]).
    pub fn with_debug_barrier_sleep(mut self, ns: u64) -> Self {
        self.debug_barrier_sleep_ns = ns;
        self
    }

    /// The users the run tracks: each policy leaf with its *absolute*
    /// target share (product of normalized shares along the path), in
    /// policy order, cut at `metrics_user_cap`. One walk of the policy tree.
    pub fn tracked_users(&self) -> Vec<(String, f64)> {
        let mut users = self.policy.user_shares();
        if let Some(cap) = self.metrics_user_cap {
            users.truncate(cap);
        }
        users
            .into_iter()
            .map(|(user, share)| (user.0, share))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn national_testbed_matches_paper() {
        let s = GridScenario::national_testbed(&[("U65", 0.65)], 1);
        assert_eq!(s.clusters.len(), 6);
        assert_eq!(s.total_cores(), 240);
        assert_eq!(s.projection, ProjectionKind::Percental);
        assert_eq!(s.fairshare.k_weight, 0.5);
        assert_eq!(s.weights, PriorityWeights::fairshare_only());
        assert_eq!(s.routing, RoutingPolicy::Stochastic);
        assert_eq!(s.dispatch, DispatchConfig::default());
        assert_eq!(s.request_factor, 1.0);
    }

    #[test]
    fn production_cluster_is_hpc2n_sized() {
        let s = GridScenario::production_cluster(&[("a", 1.0)], 1);
        assert_eq!(s.total_cores(), 544);
    }

    #[test]
    fn placement_covers_all_workers_and_sites() {
        for placement in [ShardPlacement::RoundRobin, ShardPlacement::Blocked] {
            for n_workers in [1, 2, 3, 8] {
                let assigned: Vec<usize> = (0..10)
                    .map(|site| placement.worker_for(site, 10, n_workers))
                    .collect();
                assert!(assigned.iter().all(|&w| w < n_workers), "{assigned:?}");
                // Round-robin keeps every worker busy whenever workers ≤
                // sites; blocked may idle trailing workers (ceil division)
                // but must still use more than one when several exist.
                if placement == ShardPlacement::RoundRobin {
                    for w in 0..n_workers.min(10) {
                        assert!(assigned.contains(&w), "{n_workers}: {assigned:?}");
                    }
                } else if n_workers > 1 {
                    assert!(assigned.iter().any(|&w| w > 0), "{assigned:?}");
                }
            }
        }
    }

    #[test]
    fn blocked_placement_is_contiguous() {
        let p = ShardPlacement::Blocked;
        let assigned: Vec<usize> = (0..10).map(|s| p.worker_for(s, 10, 4)).collect();
        let mut sorted = assigned.clone();
        sorted.sort_unstable();
        assert_eq!(assigned, sorted, "blocks are monotone: {assigned:?}");
    }
}
