//! The grid simulation coordinator: builds one shard per site, pre-routes
//! the workload trace, drives the shards through the epoch-barrier schedule
//! (serially or on scoped worker threads), and assembles the results — the
//! in-silico equivalent of the paper's 7-machine test bed, scaled out.
//!
//! All simulation mechanics live in [`crate::shard`] (per-site event
//! processing) and [`crate::barrier`] (epoch schedule + worker pool); this
//! module only wires them together. The worker count never changes results:
//! see DESIGN.md §4h for the determinism argument.

use crate::barrier::{drive, BarrierFragments, EpochSchedule};
use crate::cluster::SimCluster;
use crate::dispatch::Dispatcher;
use crate::event::Event;
use crate::metrics::{MetricsLog, Sample};
use crate::scenario::GridScenario;
use crate::shard::{SampleSpec, Shard, ShardStats};
use aequus_core::{GridUser, SiteId};
use aequus_rms::SchedulerStats;
use aequus_services::{HealthMap, HealthReport, StoreStats};
use aequus_telemetry::export::series_name;
use aequus_telemetry::flight::{dump_jsonl, FlightRecorder};
use aequus_telemetry::provenance::ProvenanceRecord;
use aequus_telemetry::slo::StarvationClock;
use aequus_telemetry::{
    AlertEvent, ProfileMode, RunProfile, ShardProfiler, SloEngine, SloRule, Snapshot, SpanRecord,
    Telemetry,
};
use aequus_workload::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-site service histograms folded into [`RunProfile::services`]: the
/// registry metric name and the profile stage it reports as. Histogram
/// *counts* are deterministic (how often each stage ran is a function of
/// the schedule); histogram *sums* are wall seconds and feed the wall half.
const SERVICE_STAGES: &[(&str, &str)] = &[
    ("aequus_uss_ingest_s", "uss.ingest"),
    ("aequus_uss_publish_s", "uss.publish"),
    ("aequus_uss_receive_s", "gossip.merge"),
    ("aequus_ums_refresh_s", "ums.refresh"),
    ("aequus_fcs_refresh_full_s", "fcs.refresh_full"),
    (
        "aequus_fcs_refresh_incremental_s",
        "fcs.refresh_incremental",
    ),
    ("aequus_rms_dispatch_s", "rms.dispatch"),
    ("aequus_store_wal_append_s", "wal.append"),
    ("aequus_store_wal_replay_s", "wal.replay"),
];

/// The outcome of a simulation run.
#[derive(Debug)]
pub struct SimResult {
    /// Time-series metrics.
    pub metrics: MetricsLog,
    /// Final per-cluster scheduler statistics.
    pub cluster_stats: Vec<SchedulerStats>,
    /// Final mean utilization per cluster over the whole run.
    pub cluster_utilization: Vec<f64>,
    /// Core capacity per cluster (weights for grid-wide utilization).
    pub cluster_capacities: Vec<u32>,
    /// Simulated end time, seconds.
    pub end_s: f64,
    /// Events processed (engine observability).
    pub events_processed: u64,
    /// Final telemetry snapshot of each site's registry, in cluster order.
    /// Empty when the scenario ran without telemetry.
    pub site_telemetry: Vec<Snapshot>,
    /// Final snapshot of the engine's own registry (epoch spans).
    /// `None` when the scenario ran without telemetry.
    pub engine_telemetry: Option<Snapshot>,
    /// Each site's final raw per-user view of grid usage (local + merged
    /// remote), in cluster order — what the chaos suite's convergence
    /// invariant compares against a fault-free run.
    pub site_usage_views: Vec<BTreeMap<GridUser, f64>>,
    /// Each site's bounded span store at the end of the run, in cluster
    /// order. `SpanTree::assemble` merges them into end-to-end causal trees.
    /// Empty per site unless the scenario enabled tracing.
    pub site_spans: Vec<Vec<SpanRecord>>,
    /// Each site's captured decision provenance, in cluster order. Empty
    /// per site unless the scenario enabled provenance capture.
    pub site_provenance: Vec<Vec<ProvenanceRecord>>,
    /// JSONL flight records dumped by the anomaly detector, in detection
    /// order. Empty without a configured flight recorder.
    pub flight_records: Vec<String>,
    /// Each site's durable-store health counters (cumulative across crash
    /// incarnations), in cluster order. `None` per site unless the scenario
    /// attached a store.
    pub site_store_stats: Vec<Option<StoreStats>>,
    /// The continuous-profiling artifact: per-shard stage accounting,
    /// barrier-wait attribution, queue high-water marks, gossip bytes on
    /// the wire, and the aggregated service stages. `None` unless the
    /// scenario enabled profiling ([`GridScenario::with_profiling`]).
    /// Export with [`RunProfile::to_chrome_trace`] / [`RunProfile::to_folded`].
    pub profile: Option<RunProfile>,
    /// The finalized gossip health report: per-link staleness/bytes/retry
    /// aggregates and the per-depth convergence-lag attribution. `None`
    /// unless the scenario enabled health monitoring
    /// ([`GridScenario::with_health`]). Deterministic at any worker count.
    pub health_report: Option<HealthReport>,
    /// The SLO alert stream: every lifecycle transition
    /// (pending/firing/resolved/cleared) stamped with sim time, in emission
    /// order. Empty unless the scenario enabled health monitoring.
    /// Bit-identical across worker counts.
    pub alerts: Vec<AlertEvent>,
}

impl SimResult {
    /// Total jobs completed across clusters.
    pub fn total_completed(&self) -> u64 {
        self.cluster_stats.iter().map(|s| s.completed).sum()
    }

    /// Total jobs submitted across clusters.
    pub fn total_submitted(&self) -> u64 {
        self.cluster_stats.iter().map(|s| s.submitted).sum()
    }

    /// Grid-wide mean utilization: capacity-weighted mean over clusters, so
    /// heterogeneous fleets (one 544-core site among 40-core sites) report
    /// the true grid-wide busy fraction rather than a per-site average.
    pub fn mean_utilization(&self) -> f64 {
        let total: u64 = self.cluster_capacities.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return 0.0;
        }
        self.cluster_utilization
            .iter()
            .zip(&self.cluster_capacities)
            .map(|(u, &c)| u * c as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Per-user completed usage across all clusters.
    pub fn usage_by_user(&self) -> BTreeMap<GridUser, f64> {
        let mut out: BTreeMap<GridUser, f64> = BTreeMap::new();
        for s in &self.cluster_stats {
            for (u, v) in &s.usage_by_user {
                *out.entry(u.clone()).or_insert(0.0) += v;
            }
        }
        out
    }
}

/// The simulation coordinator.
pub struct GridSimulation {
    scenario: Arc<GridScenario>,
    shards: Vec<Shard>,
    /// The engine's own telemetry domain: epoch spans and event counters,
    /// separate from the per-site registries.
    telemetry: Telemetry,
    /// Handle onto the reference site's registry (shared `Arc`), so the
    /// flight recorder can dump site-0 spans/events from the coordinator
    /// while the shard itself may live on a worker thread.
    site0_telemetry: Telemetry,
    /// The anomaly detector, when the scenario configured one.
    recorder: Option<FlightRecorder>,
}

impl GridSimulation {
    /// Build the grid from a scenario: one shard per site, each owning its
    /// cluster stack, event queue, and fault stream.
    pub fn new(scenario: GridScenario) -> Self {
        let mut clusters: Vec<SimCluster> = scenario
            .clusters
            .iter()
            .enumerate()
            .map(|(i, spec)| SimCluster::new(i, spec, &scenario))
            .collect();
        // Register the reliable-exchange topology: each site delivers to the
        // peers that read global data and expects summaries from the peers
        // that contribute it (participation modes, §IV-A-4).
        let n = clusters.len();
        let overlay = scenario.overlay;
        for (i, cluster) in clusters.iter_mut().enumerate() {
            // Links come from the overlay topology (full mesh by default);
            // participation modes then filter within the linked set. A site
            // expects summaries from linked peers that either contribute
            // their own data or forward others' (overlay interior nodes).
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
                .filter(|&j| {
                    scenario.clusters[j].participation.contributes() || overlay.forwards(j, n)
                })
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
        let telemetry = if scenario.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let recorder = scenario.flight.map(FlightRecorder::new);
        let site0_telemetry = clusters
            .first()
            .map(|c| c.telemetry.clone())
            .unwrap_or_else(Telemetry::disabled);
        let scenario = Arc::new(scenario);
        let spec = Arc::new(SampleSpec::from_scenario(&scenario));
        // One run-start instant shared by every shard profiler, so all
        // trace spans land on a single wall-clock timeline.
        let origin = Instant::now();
        let shards = clusters
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let prof = ShardProfiler::new(i, scenario.profile, origin);
                Shard::new(i, c, Arc::clone(&scenario), Arc::clone(&spec), prof)
            })
            .collect();
        Self {
            scenario,
            shards,
            telemetry,
            site0_telemetry,
            recorder,
        }
    }

    /// Run the trace through the grid, continuing `drain_s` seconds past the
    /// last submission so queued work completes.
    pub fn run(mut self, trace: &Trace, drain_s: f64) -> SimResult {
        let end_s = trace.last_submit() + drain_s;
        let tracked = self.scenario.tracked_users();
        let mut metrics = MetricsLog::new(tracked.iter().cloned().collect());

        // Pre-route every arrival to its shard, consuming the dispatcher in
        // submission-time order (ties by trace index) — the exact order the
        // serial event loop popped arrivals in, so placement is unchanged.
        let mut dispatcher = Dispatcher::new(
            self.scenario.routing,
            &self.scenario.capacities(),
            self.scenario.seed,
        );
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
            self.shards[target]
                .queue
                .push(job.submit_s, Event::JobArrival(job.clone()));
            metrics.count_submission(job.submit_s);
        }
        for shard in &mut self.shards {
            shard.queue.push(0.0, Event::ClusterTick);
        }

        let h_epoch = self.telemetry.histogram("aequus_sim_event_s");
        let c_samples = self.telemetry.counter("aequus_sim_metrics_samples_total");
        let lookahead = if self.scenario.timings.exchange_latency_s > 0.0 {
            self.scenario.timings.exchange_latency_s
        } else {
            self.scenario.tick_interval_s.max(1e-9)
        };
        let schedule = EpochSchedule::new(end_s, lookahead, self.scenario.sample_interval_s);
        let total_cores = self.scenario.total_cores();
        let mut recorder = self.recorder.take();
        let mut flight_records: Vec<String> = Vec::new();
        let site0_telemetry = self.site0_telemetry.clone();

        // Fairness-health monitoring: resolve auto thresholds from the
        // scenario's cadences, then fix the rule set up front — fairness and
        // starvation per tracked user, the grid-wide divergence and
        // convergence-lag rules, and one staleness rule per directed overlay
        // link. A fixed rule set means a fixed observation order, so the
        // alert stream is bit-identical at any worker count.
        let n_sites = self.scenario.clusters.len();
        let mut health_links: Vec<(u32, u32)> = Vec::new();
        if self.scenario.health.is_some() {
            for i in 0..n_sites {
                for j in self.scenario.overlay.neighbors(i, n_sites) {
                    if self.scenario.clusters[j].participation.reads_global() {
                        health_links.push((i as u32, j as u32));
                    }
                }
            }
        }
        let mut slo = self.scenario.health.clone().map(|mut cfg| {
            if cfg.staleness_threshold_s <= 0.0 {
                // Three missed delivery opportunities end-to-end.
                cfg.staleness_threshold_s = 3.0
                    * (self.scenario.timings.uss_publish_interval_s
                        + self.scenario.timings.exchange_latency_s
                        + self.scenario.retry.ack_timeout_s);
            }
            if cfg.divergence_threshold <= 0.0 {
                // The structural divergence floor: the biggest site can
                // accrue a full slot of usage locally before a publish +
                // exchange round carries it to the peers.
                let max_cores = self
                    .scenario
                    .clusters
                    .iter()
                    .map(crate::scenario::ClusterSpec::cores)
                    .max()
                    .unwrap_or(1);
                cfg.divergence_threshold = 2.0
                    * f64::from(max_cores)
                    * (self.scenario.usage_slot_s
                        + self.scenario.timings.uss_publish_interval_s
                        + self.scenario.timings.exchange_latency_s);
            }
            let mut rules = Vec::new();
            for (name, _) in &tracked {
                rules.push(SloRule {
                    id: format!("fairness:{name}"),
                    threshold: cfg.fairness_threshold,
                });
            }
            for (name, _) in &tracked {
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
            for &(from, to) in &health_links {
                rules.push(SloRule {
                    id: format!("staleness:{from}->{to}"),
                    threshold: cfg.staleness_threshold_s,
                });
            }
            SloEngine::new(cfg, rules)
        });
        let slo_starv_frac = slo.as_ref().map_or(0.0, |e| e.config().starvation_frac);
        let slo_div_eps = slo
            .as_ref()
            .map_or(0.0, |e| e.config().divergence_threshold);
        // Rule index of each link's staleness value, so the barrier hook
        // fills the value vector with one pass over the observation rows
        // instead of a per-link search.
        let staleness_base = 2 * tracked.len() + 2;
        let link_rule_idx: BTreeMap<(u32, u32), usize> = health_links
            .iter()
            .enumerate()
            .map(|(k, &link)| (link, staleness_base + k))
            .collect();
        let mut health_map = HealthMap::default();
        let mut starvation = StarvationClock::default();
        let mut diverged_since: Option<f64> = None;

        let at_barrier = |now: f64, frags: BarrierFragments| {
            c_samples.inc();
            let suppressed = frags.iter().any(|(_, s)| *s);
            let fragments = frags.into_iter().map(|(f, _)| f).collect();
            let sample = Sample::assemble(now, fragments, total_cores);
            // Feed the flight recorder this barrier's observations; any
            // newly fired anomaly dumps the reference site's retained
            // telemetry as JSONL.
            if let Some(rec) = recorder.as_mut() {
                let mut anomalies = Vec::new();
                for (name, target) in &tracked {
                    let achieved = sample.users.get(name).map(|u| u.usage_share).unwrap_or(0.0);
                    anomalies.extend(rec.observe_user_share(name, achieved, *target, now));
                }
                anomalies.extend(rec.observe_degradation(suppressed, now));
                anomalies.extend(rec.observe_divergence(sample.usage_view_divergence, now));
                for a in anomalies {
                    flight_records.push(dump_jsonl(&a, &site0_telemetry));
                }
            }
            if let Some(engine) = slo.as_mut() {
                health_map.observe_all(&sample.link_health);
                // One value per rule, in the order the rules were built.
                let mut values = Vec::with_capacity(engine.rules().len());
                for (name, target) in &tracked {
                    let achieved = sample.users.get(name).map(|u| u.usage_share).unwrap_or(0.0);
                    values.push((achieved - target).abs());
                }
                for (name, target) in &tracked {
                    let achieved = sample.users.get(name).map(|u| u.usage_share).unwrap_or(0.0);
                    values.push(starvation.age(name, achieved, *target, slo_starv_frac, now));
                }
                values.push(sample.usage_view_divergence);
                // Convergence lag: how long the views have continuously
                // disagreed beyond the divergence threshold.
                if sample.usage_view_divergence > slo_div_eps {
                    diverged_since.get_or_insert(now);
                } else {
                    diverged_since = None;
                }
                values.push(diverged_since.map_or(0.0, |s| now - s));
                // Staleness rules default to 0.0 (no outstanding data),
                // then one pass over the tx rows fills the observed links.
                values.resize(engine.rules().len(), 0.0);
                for o in &sample.link_health {
                    if o.heard_age_s < 0.0 {
                        if let Some(&k) = link_rule_idx.get(&(o.from, o.to)) {
                            values[k] = o.staleness_s;
                        }
                    }
                }
                for ev in engine.observe(now, &values) {
                    if let Some(rec) = recorder.as_mut() {
                        if let Some(a) = rec.observe_alert(&ev.rule, ev.transition, ev.value, now) {
                            flight_records.push(dump_jsonl(&a, &site0_telemetry));
                        }
                    }
                }
            }
            metrics.record(sample);
        };

        let (mut shards, mailbox_hwm) = drive(
            std::mem::take(&mut self.shards),
            self.scenario.num_threads,
            self.scenario.placement,
            schedule,
            end_s,
            &h_epoch,
            self.scenario.debug_barrier_sleep_ns,
            at_barrier,
        );

        // Fold per-shard counters into the engine registry (the serial
        // engine incremented these inline; totals are identical).
        let mut totals = ShardStats::default();
        for shard in &shards {
            totals.merge(&shard.stats);
        }
        self.telemetry
            .counter("aequus_sim_job_arrivals_total")
            .add(totals.arrivals);
        self.telemetry
            .counter("aequus_sim_cluster_ticks_total")
            .add(totals.ticks);
        self.telemetry
            .counter("aequus_sim_gossip_deliveries_total")
            .add(totals.gossip_deliveries);
        self.telemetry
            .counter("aequus_sim_gossip_partitioned_total")
            .add(totals.partitioned);
        self.telemetry
            .counter("aequus_sim_gossip_dropped_total")
            .add(totals.dropped);
        self.telemetry
            .counter("aequus_sim_crashes_total")
            .add(totals.crashes);
        // Queue-depth high-water marks: visible in both exporters via the
        // engine registry, so depth blowups at scale surface long before
        // they become OOMs.
        let queue_hwm = shards
            .iter()
            .map(|s| s.queue.high_water())
            .max()
            .unwrap_or(0) as u64;
        self.telemetry
            .gauge("aequus_sim_event_queue_hwm")
            .set(queue_hwm as f64);
        self.telemetry
            .gauge("aequus_sim_mailbox_hwm")
            .set(mailbox_hwm as f64);
        let events_processed = totals.events + metrics.samples().len() as u64;

        let profile = (self.scenario.profile != ProfileMode::Off).then(|| {
            let mut rp = RunProfile {
                shards: shards
                    .iter()
                    .map(|s| {
                        let mut p = s.prof.to_profile();
                        p.queue_hwm = s.queue.high_water() as u64;
                        // Deterministic event-count stages from the shard's
                        // plain counters — always present, even in Counters
                        // mode, so the folded profile has a full skeleton.
                        for (name, calls) in [
                            ("events.arrivals", s.stats.arrivals),
                            ("events.ticks", s.stats.ticks),
                            ("events.gossip", s.stats.gossip_deliveries),
                            ("gossip.dropped", s.stats.dropped),
                            ("gossip.partitioned", s.stats.partitioned),
                        ] {
                            p.stages.entry(name.to_string()).or_default().calls += calls;
                        }
                        p
                    })
                    .collect(),
                services: BTreeMap::new(),
                mailbox_hwm,
            };
            for shard in &shards {
                let Some(snap) = shard.cluster.telemetry.snapshot() else {
                    continue;
                };
                for (metric, stage) in SERVICE_STAGES {
                    if let Some(h) = snap.histograms.get(*metric) {
                        let e = rp.services.entry((*stage).to_string()).or_default();
                        e.calls += h.count;
                        e.wall_ns = e
                            .wall_ns
                            .saturating_add((h.sum.max(0.0) * 1e9).min(u64::MAX as f64) as u64);
                    }
                }
            }
            rp
        });

        // Finalize the health subsystem: render the per-link report, export
        // the labeled series into the engine registry (both exporters pick
        // them up), and take the full alert log.
        let (health_report, alerts) = match slo {
            Some(engine) => {
                let report = health_map.finalize();
                for link in &report.links {
                    let from = link.from.to_string();
                    let to = link.to.to_string();
                    let depth = link.depth.to_string();
                    let labels = [
                        ("depth", depth.as_str()),
                        ("from", from.as_str()),
                        ("to", to.as_str()),
                    ];
                    self.telemetry
                        .gauge(&series_name("aequus_health_link_staleness_p99_s", &labels))
                        .set(link.staleness_p99_s);
                    self.telemetry
                        .counter(&series_name("aequus_health_link_bytes_total", &labels))
                        .add(link.bytes);
                }
                for d in &report.depths {
                    let depth = d.depth.to_string();
                    self.telemetry
                        .gauge(&series_name(
                            "aequus_health_depth_lag_s",
                            &[("depth", depth.as_str())],
                        ))
                        .set(d.convergence_lag_s);
                }
                let events = engine.into_events();
                let mut transitions: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
                for ev in &events {
                    *transitions
                        .entry((ev.rule.clone(), ev.transition))
                        .or_default() += 1;
                }
                for ((rule, to), count) in transitions {
                    self.telemetry
                        .counter(&series_name(
                            "aequus_slo_alert_transitions_total",
                            &[("rule", &rule), ("to", to)],
                        ))
                        .add(count);
                }
                (Some(report), events)
            }
            None => (None, Vec::new()),
        };

        let cluster_utilization: Vec<f64> = shards
            .iter_mut()
            .map(|s| s.cluster.rms.utilization(end_s))
            .collect();
        SimResult {
            metrics,
            cluster_stats: shards
                .iter()
                .map(|s| s.cluster.rms.stats().clone())
                .collect(),
            cluster_utilization,
            cluster_capacities: self.scenario.capacities(),
            end_s,
            events_processed,
            site_telemetry: shards
                .iter()
                .filter_map(|s| s.cluster.telemetry.snapshot())
                .collect(),
            engine_telemetry: self.telemetry.snapshot(),
            site_usage_views: shards
                .iter()
                .map(|s| s.cluster.site.uss.grid_view())
                .collect(),
            site_spans: shards.iter().map(|s| s.cluster.telemetry.spans()).collect(),
            site_provenance: shards
                .iter()
                .map(|s| s.cluster.telemetry.provenance_records())
                .collect(),
            site_store_stats: shards
                .iter()
                .map(|s| s.cluster.site.store_stats())
                .collect(),
            flight_records,
            profile,
            health_report,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_workload::users::baseline_policy_shares;
    use aequus_workload::TraceJob;

    fn small_scenario() -> GridScenario {
        let mut s = GridScenario::national_testbed(&baseline_policy_shares(), 7);
        // Shrink for unit-test speed: 2 clusters × 4 cores.
        s.clusters.truncate(2);
        for c in &mut s.clusters {
            c.nodes = 4;
        }
        s
    }

    fn uniform_trace(n: usize, spacing: f64, dur: f64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| TraceJob {
                    user: ["U65", "U30", "U3", "Uoth"][i % 4].to_string(),
                    submit_s: i as f64 * spacing,
                    duration_s: dur,
                    cores: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn all_jobs_complete() {
        let trace = uniform_trace(40, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 2000.0);
        assert_eq!(result.total_submitted(), 40);
        assert_eq!(result.total_completed(), 40);
        assert!(result.events_processed > 0);
    }

    #[test]
    fn usage_conservation() {
        // Work completed == work submitted (all jobs single-core).
        let trace = uniform_trace(24, 5.0, 50.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 3000.0);
        let total: f64 = result.usage_by_user().values().sum();
        assert!((total - trace.total_work()).abs() < 1e-6, "{total}");
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = uniform_trace(30, 7.0, 40.0);
        let r1 = GridSimulation::new(small_scenario()).run(&trace, 1000.0);
        let r2 = GridSimulation::new(small_scenario()).run(&trace, 1000.0);
        assert_eq!(r1.total_completed(), r2.total_completed());
        assert_eq!(r1.metrics.samples().len(), r2.metrics.samples().len());
        for (a, b) in r1.metrics.samples().iter().zip(r2.metrics.samples()) {
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.users, b.users);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The tentpole invariant at unit scale: 2 threads over 2 shards must
        // replay the serial run bit-for-bit (the dedicated equivalence suite
        // covers the chaos matrix; this is the smoke check).
        let trace = uniform_trace(40, 7.0, 40.0);
        let serial = GridSimulation::new(small_scenario()).run(&trace, 1500.0);
        let parallel = GridSimulation::new(small_scenario().with_threads(2)).run(&trace, 1500.0);
        assert_eq!(serial.total_completed(), parallel.total_completed());
        assert_eq!(serial.events_processed, parallel.events_processed);
        assert_eq!(serial.site_usage_views, parallel.site_usage_views);
        for (a, b) in serial
            .metrics
            .samples()
            .iter()
            .zip(parallel.metrics.samples())
        {
            assert_eq!(a.users, b.users);
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.per_site_priority, b.per_site_priority);
        }
    }

    #[test]
    fn gossip_spreads_usage_between_sites() {
        // All jobs land on cluster 0 (cluster 1 has zero capacity), yet
        // cluster 1 learns the usage through the exchange.
        let mut sc = small_scenario();
        sc.clusters[1].nodes = 0;
        let trace = uniform_trace(16, 5.0, 60.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        let last = result.metrics.samples().last().unwrap();
        // Site 1's tree has non-trivial priorities (it saw remote usage).
        let site1 = &last.per_site_priority[1];
        assert!(
            site1.values().any(|p| p.abs() > 1e-6),
            "site 1 should see remote usage: {site1:?}"
        );
    }

    #[test]
    fn telemetry_tracer_p99_within_configured_pipeline_bound() {
        // Sustained submissions keep libaequus queries flowing long enough
        // for sampled traces to complete the whole delay chain; the measured
        // end-to-end p99 must then respect the §IV-A-2 worst-case bound.
        let sc = small_scenario().with_telemetry();
        let bound = sc.timings.worst_case_pipeline_s();
        let trace = uniform_trace(160, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        assert_eq!(result.site_telemetry.len(), 2, "one snapshot per site");
        let completed: u64 = result
            .site_telemetry
            .iter()
            .filter_map(|s| s.counters.get("aequus_tracer_completed_total"))
            .sum();
        assert!(completed > 0, "some sampled traces must complete");
        for snap in &result.site_telemetry {
            let e2e = match snap.histograms.get("aequus_tracer_end_to_end_s") {
                Some(h) if h.count > 0 => h,
                _ => continue,
            };
            assert!(
                e2e.p99 <= bound * 1.0625 + 1e-9,
                "e2e p99 {} exceeds configured worst case {bound} \
                 (bucket width allows 6.25% overestimate)",
                e2e.p99
            );
            // Each stage histogram exists alongside the end-to-end one.
            for stage in ["report", "publish", "ums", "fcs", "lib"] {
                let name = format!("aequus_tracer_{stage}_delay_s");
                assert!(snap.histograms.contains_key(&name), "missing {name}");
            }
        }
        // The engine registry saw the epoch loop.
        let engine = result.engine_telemetry.expect("engine telemetry on");
        assert!(engine.histograms["aequus_sim_event_s"].count > 0);
        assert!(engine.counters["aequus_sim_cluster_ticks_total"] > 0);
        // Per-sample snapshots ride along in the metrics log.
        let last = result.metrics.samples().last().unwrap();
        assert_eq!(last.site_telemetry.len(), 2);
    }

    #[test]
    fn full_tracing_builds_cross_site_causal_trees() {
        use aequus_core::Explanation;
        use aequus_telemetry::SpanTree;
        let sc = small_scenario().with_full_tracing();
        let trace = uniform_trace(60, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        // Every site holds a span store; merged, they form causal trees
        // whose deepest chain crosses the whole pipeline.
        assert_eq!(result.site_spans.len(), 2);
        assert!(result.site_spans.iter().all(|s| !s.is_empty()));
        let stores: Vec<&[aequus_telemetry::SpanRecord]> =
            result.site_spans.iter().map(Vec::as_slice).collect();
        let trees = SpanTree::assemble(&stores);
        assert!(!trees.is_empty());
        assert!(
            trees.iter().any(|t| t.depth() >= 4),
            "some trace reaches report → ingest → publish → … depth, got {:?}",
            trees.iter().map(SpanTree::depth).max()
        );
        // Gossip linked at least one trace across sites.
        fn sites_of(t: &SpanTree, out: &mut std::collections::BTreeSet<u32>) {
            out.insert(t.record.site);
            for c in &t.children {
                sites_of(c, out);
            }
        }
        let cross_site = trees.iter().any(|t| {
            let mut sites = std::collections::BTreeSet::new();
            sites_of(t, &mut sites);
            sites.len() >= 2
        });
        assert!(cross_site, "no causal tree spans two sites");
        // Every captured explanation replays its served factor bit-for-bit.
        let mut replayed = 0;
        for recs in &result.site_provenance {
            for rec in recs {
                let ex = Explanation::from_json(&rec.json).expect("parseable provenance");
                assert!(ex.verify(), "tampered/lossy capture for {}", rec.user);
                assert_eq!(
                    ex.replay().to_bits(),
                    rec.factor.to_bits(),
                    "replay mismatch for {}",
                    rec.user
                );
                replayed += 1;
            }
        }
        assert!(replayed > 0, "provenance was captured");
    }

    #[test]
    fn flight_recorder_dumps_on_divergence() {
        use aequus_telemetry::flight::AnomalyConfig;
        // One contributing site is partitioned long enough for views to
        // diverge past a tiny threshold → the recorder must fire and the
        // dump must carry events and spans.
        let mut sc = small_scenario()
            .with_full_tracing()
            .with_flight_recorder(AnomalyConfig {
                divergence_threshold: 1e-6,
                ..AnomalyConfig::default()
            });
        sc.faults.outages.push(crate::faults::Outage {
            cluster: 1,
            from_s: 0.0,
            to_s: 4000.0,
        });
        let trace = uniform_trace(40, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 3000.0);
        assert!(
            !result.flight_records.is_empty(),
            "divergence above threshold must dump a flight record"
        );
        let dump = &result.flight_records[0];
        assert!(dump
            .lines()
            .next()
            .unwrap()
            .contains("\"type\":\"anomaly\""));
        assert!(dump.contains("\"type\":\"span\""), "spans ride along");
    }

    #[test]
    fn durable_store_journals_and_recovers_through_crash() {
        let mut sc = small_scenario().with_durable_store();
        sc.faults.crashes.push(crate::faults::Outage {
            cluster: 1,
            from_s: 400.0,
            to_s: 700.0,
        });
        let trace = uniform_trace(40, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        assert_eq!(result.site_store_stats.len(), 2);
        let s1 = result.site_store_stats[1].expect("store attached");
        assert!(s1.frames_appended > 0, "{s1:?}");
        assert_eq!(s1.torn_tails, 1, "one crash, one torn tail: {s1:?}");
        assert!(
            s1.frames_replayed > 0,
            "recovery replayed the journal: {s1:?}"
        );
        // The un-crashed site journals too but never replays.
        let s0 = result.site_store_stats[0].expect("store attached");
        assert_eq!((s0.torn_tails, s0.frames_replayed), (0, 0), "{s0:?}");
    }

    #[test]
    fn store_off_reports_no_stats() {
        let trace = uniform_trace(8, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 500.0);
        assert!(result.site_store_stats.iter().all(Option::is_none));
    }

    #[test]
    fn telemetry_off_yields_no_snapshots() {
        let trace = uniform_trace(8, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 1000.0);
        assert!(result.site_telemetry.is_empty());
        assert!(result.engine_telemetry.is_none());
        assert!(result
            .metrics
            .samples()
            .iter()
            .all(|s| s.site_telemetry.is_empty()));
    }

    #[test]
    fn utilization_reported_in_unit_range() {
        let trace = uniform_trace(60, 2.0, 100.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 4000.0);
        for s in result.metrics.samples() {
            assert!((0.0..=1.0).contains(&s.utilization));
        }
        assert!(result.mean_utilization() > 0.0);
    }

    #[test]
    fn profiled_run_assembles_run_profile() {
        let trace = uniform_trace(40, 10.0, 30.0);
        let sc = small_scenario().with_profiling(ProfileMode::Counters);
        assert!(sc.telemetry, "profiling implies telemetry");
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        let profile = result.profile.expect("profile assembled");
        assert_eq!(profile.shards.len(), 2);
        for sp in &profile.shards {
            assert!(sp.stages["events.ticks"].calls > 0);
            assert!(sp.stages["gossip.wire"].bytes > 0, "wire bytes accounted");
            assert!(!sp.link_bytes.is_empty(), "per-link budget present");
            assert!(sp.queue_hwm > 0);
            assert!(sp.spans.is_empty(), "no span ring in Counters mode");
        }
        assert!(profile.services["uss.ingest"].calls > 0);
        assert!(profile.services["gossip.merge"].calls > 0);
        assert!(profile.mailbox_hwm > 0);
        // The hwm gauges ride the engine registry into both exporters.
        let engine = result.engine_telemetry.expect("telemetry on");
        assert!(engine.gauges["aequus_sim_event_queue_hwm"] > 0.0);
        assert!(engine.gauges["aequus_sim_mailbox_hwm"] > 0.0);
    }

    #[test]
    fn unprofiled_run_has_no_profile() {
        let trace = uniform_trace(8, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 500.0);
        assert!(result.profile.is_none());
    }

    #[test]
    fn health_monitoring_yields_report_and_quiet_alerts() {
        use aequus_telemetry::SloConfig;
        let trace = uniform_trace(40, 10.0, 30.0);
        // An 8-core grid needs a longer fairness warmup than the default:
        // with so few cores the first completions swing shares for ~10 min.
        let cfg = SloConfig {
            warmup_s: 600.0,
            ..SloConfig::default()
        };
        let sc = small_scenario().with_health(cfg.clone());
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        let report = result.health_report.expect("health report assembled");
        assert_eq!(report.links.len(), 2, "both directed links observed");
        assert_eq!(report.depths.len(), 1, "full mesh is one depth class");
        assert!(report.links.iter().all(|l| l.bytes > 0 && l.msgs > 0));
        // Fault-free: nothing fires (early pendings may clear, never fire).
        assert!(
            result.alerts.iter().all(|a| a.transition != "firing"),
            "{:?}",
            result.alerts
        );
        // The report and alert stream are worker-count invariant.
        let par = GridSimulation::new(small_scenario().with_health(cfg).with_threads(2))
            .run(&trace, 2000.0);
        assert_eq!(
            par.health_report.expect("report").to_json(),
            report.to_json()
        );
        assert_eq!(par.alerts, result.alerts);
        // Health off leaves both fields empty.
        let off = GridSimulation::new(small_scenario()).run(&trace, 2000.0);
        assert!(off.health_report.is_none() && off.alerts.is_empty());
    }

    #[test]
    fn mean_utilization_is_capacity_weighted() {
        // A big busy cluster and a tiny idle one: the plain mean would say
        // 50%; the capacity-weighted truth is ~99%.
        let result = SimResult {
            metrics: MetricsLog::default(),
            cluster_stats: vec![],
            cluster_utilization: vec![0.99, 0.0],
            cluster_capacities: vec![990, 10],
            end_s: 0.0,
            events_processed: 0,
            site_telemetry: vec![],
            engine_telemetry: None,
            site_usage_views: vec![],
            site_spans: vec![],
            site_provenance: vec![],
            flight_records: vec![],
            site_store_stats: vec![],
            profile: None,
            health_report: None,
            alerts: vec![],
        };
        assert!((result.mean_utilization() - 0.9801).abs() < 1e-12);
    }
}
