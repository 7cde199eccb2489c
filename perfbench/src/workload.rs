//! The three benchmark workloads. Each one is a pure function of the seed:
//! the trace is the input (generated once, outside any timed region), the
//! scenario is the set-up (rebuilt inside the timed region, because building
//! the policy tree is part of what a user waits for).

use aequus_services::{RetryPolicy, ServiceTimings};
use aequus_sim::{GridScenario, MetricsLog, Outage};
use aequus_telemetry::SloConfig;
use aequus_workload::users::baseline_policy_shares;
use aequus_workload::{test_trace, TestTraceConfig, Trace, TraceJob};

/// Balance band and dwell of the paper's convergence readout (the same
/// values the figure binaries use).
const BALANCE_EPS: f64 = 0.12;
const BALANCE_DWELL_S: f64 = 1800.0;
/// Cross-site view agreement that counts as converged after faults.
const VIEW_EPS: f64 = 1e-6;

/// Seconds every workload keeps running past its last submission.
pub const DRAIN_S: f64 = 1800.0;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 10 baseline: 6 sites × 40 hosts, four users.
    PaperTestbed,
    /// 20,000 equal-share users over 16 sites × 16 hosts.
    NationMid,
    /// 16 sites × 40 hosts under drops, a partition, a crash, the WAL and
    /// the SLO/health hook.
    ChaosWal,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Self::PaperTestbed, Self::NationMid, Self::ChaosWal];

    /// Look a workload up by its name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperTestbed => "paper_testbed",
            Self::NationMid => "nation_mid",
            Self::ChaosWal => "chaos_wal",
        }
    }

    /// The workload's job trace.
    pub fn trace(self, seed: u64) -> Trace {
        match self {
            Self::PaperTestbed => paper_trace(43_200, seed),
            // Generated for the 240-core test bed, so the 640-core chaos
            // fleet runs at about a third of the paper's load.
            Self::ChaosWal => paper_trace(16_000, seed),
            Self::NationMid => {
                let users = synthetic_users(NATION_USERS);
                let jobs = 6_000;
                let horizon_s = 3600.0;
                Trace::new(
                    (0..jobs)
                        .map(|i| TraceJob {
                            user: users[i % users.len()].clone(),
                            submit_s: i as f64 * horizon_s / jobs as f64,
                            duration_s: 120.0,
                            cores: 1,
                        })
                        .collect(),
                )
            }
        }
    }

    /// Build the workload's scenario (policy tree included). Serial engine
    /// always: `num_threads` stays at the default of 1.
    pub fn scenario(self, seed: u64) -> GridScenario {
        match self {
            Self::PaperTestbed => GridScenario::national_testbed(&baseline_policy_shares(), seed),
            Self::NationMid => {
                let names = synthetic_users(NATION_USERS);
                let share = 1.0 / NATION_USERS as f64;
                let shares: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), share)).collect();
                let mut sc = GridScenario::national_testbed(&shares, seed);
                resize_fleet(&mut sc, 16, 16);
                sc.with_metrics_user_cap(8)
            }
            Self::ChaosWal => {
                let mut sc = GridScenario::national_testbed(&baseline_policy_shares(), seed);
                resize_fleet(&mut sc, 16, 40);
                compress(&mut sc);
                sc.faults.drop_probability = 0.3;
                sc.faults.outages.push(Outage {
                    cluster: 1,
                    from_s: 3_600.0,
                    to_s: 4_500.0,
                });
                sc.faults.crashes.push(Outage {
                    cluster: 2,
                    from_s: 7_200.0,
                    to_s: 7_800.0,
                });
                sc.with_durable_store().with_health(SloConfig::default())
            }
        }
    }

    /// Simulated convergence time of a finished run: the paper's balance
    /// window for the test bed, cross-site view agreement for the others.
    pub fn converge_s(self, metrics: &MetricsLog) -> Option<f64> {
        match self {
            Self::PaperTestbed => metrics.convergence_time(BALANCE_EPS, BALANCE_DWELL_S),
            Self::NationMid | Self::ChaosWal => metrics.view_convergence_time(VIEW_EPS),
        }
    }
}

const NATION_USERS: usize = 20_000;

fn paper_trace(jobs: usize, seed: u64) -> Trace {
    test_trace(&TestTraceConfig {
        total_jobs: jobs,
        seed,
        ..Default::default()
    })
}

fn synthetic_users(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("u{i:06}")).collect()
}

/// Exactly `sites` homogeneous sites of `nodes` single-core hosts.
fn resize_fleet(sc: &mut GridScenario, sites: usize, nodes: u32) {
    let template = sc.clusters[0].clone();
    sc.clusters = vec![template; sites];
    for c in &mut sc.clusters {
        c.nodes = nodes;
    }
}

/// The chaos suites' compressed delay chain (5 s exchange latency, 30 s
/// service cadences, 60 s slots, 5 s ticks) with the tight retry policy
/// (15 s ack timeout, 60 s backoff ceiling, 20% jitter, caps of 8).
fn compress(sc: &mut GridScenario) {
    sc.timings = ServiceTimings {
        report_delay_s: 5.0,
        uss_publish_interval_s: 30.0,
        ums_refresh_interval_s: 30.0,
        fcs_refresh_interval_s: 30.0,
        lib_cache_ttl_s: 10.0,
        lib_identity_ttl_s: 60.0,
        exchange_latency_s: 5.0,
    };
    sc.usage_slot_s = 60.0;
    sc.tick_interval_s = 5.0;
    sc.retry = RetryPolicy {
        ack_timeout_s: 15.0,
        max_backoff_s: 60.0,
        jitter_frac: 0.2,
        history_cap: 8,
        outbox_cap: 8,
    };
}
