//! The outside-in traced run: a serial epoch loop that rebuilds
//! `GridSimulation::new` and `GridSimulation::run` from the simulator's
//! public pieces and times every call into a layer. Nothing inside the
//! program is instrumented beyond what it already records; the service
//! stages come from the per-site histograms `ProfileMode::Full` keeps.
//!
//! The loop mirrors the engine step for step (pre-routing order, epoch
//! schedule, barrier sampling, delivery order, the SLO hook), so its output
//! digest must equal the engine's. If it does not, its timings describe a
//! different computation and are void.

use crate::digest::Outputs;
use aequus_core::SiteId;
use aequus_services::HealthMap;
use aequus_sim::barrier::EpochSchedule;
use aequus_sim::cluster::SimCluster;
use aequus_sim::dispatch::Dispatcher;
use aequus_sim::shard::{Outgoing, SampleSpec, Shard};
use aequus_sim::{Event, GridScenario, MetricsLog, Sample};
use aequus_telemetry::slo::StarvationClock;
use aequus_telemetry::{ShardProfiler, SloEngine, SloRule, Snapshot};
use aequus_workload::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Host seconds spent in each driver-side span. The spans are disjoint, so
/// their sum never exceeds the driver's wall time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// Scenario (policy tree) construction.
    pub policy_build_s: f64,
    /// The mirror of `GridSimulation::new`.
    pub new_s: f64,
    /// Run prologue: `tracked_users` → `MetricsLog::new`, `Dispatcher`
    /// pre-routing, the schedule and the SLO rule set.
    pub prologue_s: f64,
    /// Σ `Shard::advance`.
    pub advance_s: f64,
    /// Σ `Shard::sample_fragment`.
    pub sample_fragment_s: f64,
    /// Σ `Sample::assemble` + `MetricsLog::record`.
    pub sample_assemble_s: f64,
    /// Σ barrier delivery pushes into the destination queues.
    pub deliver_s: f64,
    /// Σ SLO/health barrier hook (zero without health monitoring).
    pub hook_s: f64,
    /// Result assembly: stats, utilization, views, alerts.
    pub result_s: f64,
    /// Wall time of the whole run, prologue through result assembly.
    pub run_wall_s: f64,
}

impl Spans {
    /// Seconds covered by a timed span inside `run_wall_s`.
    pub fn covered_s(&self) -> f64 {
        self.prologue_s
            + self.advance_s
            + self.sample_fragment_s
            + self.sample_assemble_s
            + self.deliver_s
            + self.hook_s
            + self.result_s
    }
}

/// Everything the traced run hands back.
pub struct DriverRun {
    /// Driver-side spans.
    pub spans: Spans,
    /// Output digest (must equal the engine's).
    pub digest: u64,
    /// Peak cross-shard deliveries pending at one barrier.
    pub mailbox_hwm: u64,
    /// Peak event-queue depth over all shards.
    pub queue_hwm: u64,
    /// Job arrivals.
    pub arrivals: u64,
    /// Cluster ticks.
    pub ticks: u64,
    /// Gossip data deliveries.
    pub gossip_deliveries: u64,
    /// Encoded gossip bytes put on the wire.
    pub wire_bytes: u64,
    /// Cumulative FCS tree nodes recomputed (last sample, all sites).
    pub fcs_nodes_recomputed: u64,
    /// Each site's final telemetry registry.
    pub site_telemetry: Vec<Snapshot>,
}

/// Build the scenario with `build`, then run `trace` through the traced
/// serial loop for `drain_s` seconds past the last submission. The scenario
/// should enable `ProfileMode::Full` so the service histograms are kept.
pub fn run(build: impl FnOnce() -> GridScenario, trace: &Trace, drain_s: f64) -> DriverRun {
    let mut spans = Spans::default();
    let t = Instant::now();
    let scenario = build();
    spans.policy_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (scenario, mut shards) = new_shards(scenario);
    spans.new_s = t.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let end_s = trace.last_submit() + drain_s;
    let mut metrics = MetricsLog::new(scenario.tracked_users().into_iter().collect());
    let mut dispatcher = Dispatcher::new(scenario.routing, &scenario.capacities(), scenario.seed);
    let jobs = trace.jobs();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .submit_s
            .total_cmp(&jobs[b].submit_s)
            .then(a.cmp(&b))
    });
    for idx in order {
        let job = &jobs[idx];
        if job.submit_s > end_s {
            break;
        }
        let target = dispatcher.pick();
        shards[target]
            .queue
            .push(job.submit_s, Event::JobArrival(job.clone()));
        metrics.count_submission(job.submit_s);
    }
    for shard in &mut shards {
        shard.queue.push(0.0, Event::ClusterTick);
    }
    let lookahead = if scenario.timings.exchange_latency_s > 0.0 {
        scenario.timings.exchange_latency_s
    } else {
        scenario.tick_interval_s.max(1e-9)
    };
    let mut schedule = EpochSchedule::new(end_s, lookahead, scenario.sample_interval_s);
    let total_cores = scenario.total_cores();
    let tracked = scenario.tracked_users();
    let mut hook = scenario
        .health
        .as_ref()
        .map(|_| SloHook::new(&scenario, &tracked));
    spans.prologue_s = run_start.elapsed().as_secs_f64();

    // The serial epoch loop of `barrier::drive`, one timed call at a time.
    let mut outgoing: Vec<Outgoing> = Vec::new();
    let mut mailbox_hwm: u64 = 0;
    let mut epoch_idx: u64 = 0;
    while let Some(epoch) = schedule.next() {
        for shard in &mut shards {
            let t = Instant::now();
            let before = shard.stats.events;
            shard.prof.begin_epoch(epoch_idx, epoch.limit_s, before);
            shard.advance(epoch.limit_s, epoch.inclusive, end_s, &mut outgoing);
            let after = shard.stats.events;
            shard.prof.end_epoch(after);
            spans.advance_s += t.elapsed().as_secs_f64();
        }
        if epoch.sample {
            let t = Instant::now();
            let fragments: Vec<_> = shards
                .iter_mut()
                .map(|s| s.sample_fragment(epoch.limit_s))
                .collect();
            spans.sample_fragment_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let sample = Sample::assemble(epoch.limit_s, fragments, total_cores);
            let assembled = t.elapsed().as_secs_f64();

            let t = Instant::now();
            if let Some(h) = hook.as_mut() {
                h.observe(epoch.limit_s, &sample, &tracked);
            }
            spans.hook_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            metrics.record(sample);
            spans.sample_assemble_s += assembled + t.elapsed().as_secs_f64();
        }
        mailbox_hwm = mailbox_hwm.max(outgoing.len() as u64);
        let t = Instant::now();
        for o in outgoing.drain(..) {
            shards[o.dest]
                .queue
                .push(o.arrival_s, Event::UssDeliver(o.msg));
        }
        spans.deliver_s += t.elapsed().as_secs_f64();
        epoch_idx += 1;
    }

    let t = Instant::now();
    let cluster_counts: Vec<(u64, u64)> = shards
        .iter()
        .map(|s| {
            let st = s.cluster.rms.stats();
            (st.submitted, st.completed)
        })
        .collect();
    // Not part of the digest; computed because the engine's result
    // assembly pays for it.
    for s in &mut shards {
        let _ = s.cluster.rms.utilization(end_s);
    }
    let views: Vec<_> = shards
        .iter()
        .map(|s| s.cluster.site.uss.grid_view())
        .collect();
    let alerts = hook.map(SloHook::finish).unwrap_or_default();
    let site_telemetry: Vec<Snapshot> = shards
        .iter()
        .filter_map(|s| s.cluster.telemetry.snapshot())
        .collect();
    spans.result_s = t.elapsed().as_secs_f64();
    spans.run_wall_s = run_start.elapsed().as_secs_f64();

    let events: u64 = shards.iter().map(|s| s.stats.events).sum();
    let events_processed = events + metrics.samples().len() as u64;
    let digest = Outputs {
        cluster_counts,
        events_processed,
        end_s,
        samples: metrics.samples(),
        views: &views,
        alerts: &alerts,
    }
    .digest();
    DriverRun {
        spans,
        digest,
        mailbox_hwm,
        queue_hwm: shards
            .iter()
            .map(|s| s.queue.high_water() as u64)
            .max()
            .unwrap_or(0),
        arrivals: shards.iter().map(|s| s.stats.arrivals).sum(),
        ticks: shards.iter().map(|s| s.stats.ticks).sum(),
        gossip_deliveries: shards.iter().map(|s| s.stats.gossip_deliveries).sum(),
        wire_bytes: shards.iter().map(|s| s.stats.gossip_bytes).sum(),
        fcs_nodes_recomputed: metrics
            .samples()
            .last()
            .map_or(0, |s| s.fcs_nodes_recomputed),
        site_telemetry,
    }
}

/// The mirror of `GridSimulation::new`: one cluster per site, the exchange
/// topology registered, one profiled shard per cluster.
fn new_shards(scenario: GridScenario) -> (Arc<GridScenario>, Vec<Shard>) {
    let mut clusters: Vec<SimCluster> = scenario
        .clusters
        .iter()
        .enumerate()
        .map(|(i, spec)| SimCluster::new(i, spec, &scenario))
        .collect();
    let n = clusters.len();
    let overlay = scenario.overlay;
    for (i, cluster) in clusters.iter_mut().enumerate() {
        let nbrs = overlay.neighbors(i, n);
        let tx: Vec<SiteId> = nbrs
            .iter()
            .copied()
            .filter(|&j| scenario.clusters[j].participation.reads_global())
            .map(|j| SiteId(j as u32))
            .collect();
        let rx: Vec<SiteId> = nbrs
            .iter()
            .copied()
            .filter(|&j| scenario.clusters[j].participation.contributes() || overlay.forwards(j, n))
            .map(|j| SiteId(j as u32))
            .collect();
        cluster.site.configure_exchange(
            &tx,
            &rx,
            scenario.retry,
            scenario.stale_policy,
            scenario.seed,
        );
        cluster.site.uss.set_forwarding(overlay.forwards(i, n));
    }
    let scenario = Arc::new(scenario);
    let spec = Arc::new(SampleSpec::from_scenario(&scenario));
    let origin = Instant::now();
    let shards = clusters
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let prof = ShardProfiler::new(i, scenario.profile, origin);
            Shard::new(i, c, Arc::clone(&scenario), Arc::clone(&spec), prof)
        })
        .collect();
    (scenario, shards)
}

/// The engine's SLO/health barrier hook: the same auto-derived thresholds,
/// rule order and per-barrier values, so the alert stream is identical.
struct SloHook {
    engine: SloEngine,
    health_map: HealthMap,
    starvation: StarvationClock,
    diverged_since: Option<f64>,
    link_rule_idx: BTreeMap<(u32, u32), usize>,
}

impl SloHook {
    fn new(scenario: &GridScenario, tracked: &[(String, f64)]) -> Self {
        let mut cfg = scenario.health.clone().expect("health monitoring on");
        let n_sites = scenario.clusters.len();
        let mut links: Vec<(u32, u32)> = Vec::new();
        for i in 0..n_sites {
            for j in scenario.overlay.neighbors(i, n_sites) {
                if scenario.clusters[j].participation.reads_global() {
                    links.push((i as u32, j as u32));
                }
            }
        }
        if cfg.staleness_threshold_s <= 0.0 {
            cfg.staleness_threshold_s = 3.0
                * (scenario.timings.uss_publish_interval_s
                    + scenario.timings.exchange_latency_s
                    + scenario.retry.ack_timeout_s);
        }
        if cfg.divergence_threshold <= 0.0 {
            let max_cores = scenario
                .clusters
                .iter()
                .map(aequus_sim::ClusterSpec::cores)
                .max()
                .unwrap_or(1);
            cfg.divergence_threshold = 2.0
                * f64::from(max_cores)
                * (scenario.usage_slot_s
                    + scenario.timings.uss_publish_interval_s
                    + scenario.timings.exchange_latency_s);
        }
        let mut rules = Vec::new();
        for (name, _) in tracked {
            rules.push(SloRule {
                id: format!("fairness:{name}"),
                threshold: cfg.fairness_threshold,
            });
        }
        for (name, _) in tracked {
            rules.push(SloRule {
                id: format!("starvation:{name}"),
                threshold: cfg.starvation_age_s,
            });
        }
        rules.push(SloRule {
            id: "divergence".to_string(),
            threshold: cfg.divergence_threshold,
        });
        rules.push(SloRule {
            id: "convergence_lag".to_string(),
            threshold: cfg.convergence_lag_s,
        });
        for &(from, to) in &links {
            rules.push(SloRule {
                id: format!("staleness:{from}->{to}"),
                threshold: cfg.staleness_threshold_s,
            });
        }
        let staleness_base = 2 * tracked.len() + 2;
        let link_rule_idx = links
            .iter()
            .enumerate()
            .map(|(k, &link)| (link, staleness_base + k))
            .collect();
        Self {
            engine: SloEngine::new(cfg, rules),
            health_map: HealthMap::default(),
            starvation: StarvationClock::default(),
            diverged_since: None,
            link_rule_idx,
        }
    }

    fn observe(&mut self, now: f64, sample: &Sample, tracked: &[(String, f64)]) {
        self.health_map.observe_all(&sample.link_health);
        let starv_frac = self.engine.config().starvation_frac;
        let div_eps = self.engine.config().divergence_threshold;
        let achieved = |name: &str| sample.users.get(name).map_or(0.0, |u| u.usage_share);
        let mut values = Vec::with_capacity(self.engine.rules().len());
        for (name, target) in tracked {
            values.push((achieved(name) - target).abs());
        }
        for (name, target) in tracked {
            values.push(
                self.starvation
                    .age(name, achieved(name), *target, starv_frac, now),
            );
        }
        values.push(sample.usage_view_divergence);
        if sample.usage_view_divergence > div_eps {
            self.diverged_since.get_or_insert(now);
        } else {
            self.diverged_since = None;
        }
        values.push(self.diverged_since.map_or(0.0, |s| now - s));
        values.resize(self.engine.rules().len(), 0.0);
        for o in &sample.link_health {
            if o.heard_age_s < 0.0 {
                if let Some(&k) = self.link_rule_idx.get(&(o.from, o.to)) {
                    values[k] = o.staleness_s;
                }
            }
        }
        let _ = self.engine.observe(now, &values);
    }

    fn finish(self) -> Vec<aequus_telemetry::AlertEvent> {
        let _ = self.health_map.finalize();
        self.engine.into_events()
    }
}
