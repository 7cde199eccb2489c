//! `aequus-health` — render and gate a run's fairness-health report.
//!
//! Default mode runs the chaos grid (3 sites, 30% drop + a 300 s outage)
//! with health monitoring on and prints the gossip health map plus the SLO
//! alert stream. `--check` is the CI gate; it verifies the subsystem's
//! contract end to end:
//!
//! 1. the fault-free baseline fires zero alerts,
//! 2. the 30%-drop chaos scenario fires a staleness alert during the outage
//!    and resolves it after recovery (detection lag reported),
//! 3. health report and alert stream are byte-identical across worker
//!    counts {1, 2, 4},
//! 4. enabling the SLO engine + health map costs ≤ 5% sim wall time.
//!
//! Seeded by `AEQUUS_TEST_SEED` (default 42), like the test suites.

use aequus_bench::harness;
use aequus_services::RetryPolicy;
use aequus_sim::{FaultPlan, GridScenario, GridSimulation, Outage, SimResult};
use aequus_telemetry::slo::alerts_to_jsonl;
use aequus_telemetry::SloConfig;
use aequus_workload::{Trace, TraceJob};
use std::hint::black_box;
use std::time::Instant;

const OVERHEAD_BUDGET: f64 = 1.05;
const OVERHEAD_ROUNDS: usize = 12;
const OUTAGE_FROM_S: f64 = 300.0;
const OUTAGE_TO_S: f64 = 600.0;

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The chaos suite's 3-site grid (see `tests/chaos.rs`): fast cadences so
/// faults land between publishes, small retention so outages overflow into
/// resync/snapshot traffic.
fn chaos_scenario(seed: u64) -> GridScenario {
    let mut sc = GridScenario::national_testbed(
        &[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ],
        seed,
    );
    sc.clusters.truncate(3);
    for c in &mut sc.clusters {
        c.nodes = 4;
    }
    sc.timings.report_delay_s = 5.0;
    sc.timings.uss_publish_interval_s = 30.0;
    sc.timings.ums_refresh_interval_s = 30.0;
    sc.timings.fcs_refresh_interval_s = 30.0;
    sc.timings.lib_cache_ttl_s = 10.0;
    sc.timings.exchange_latency_s = 5.0;
    sc.usage_slot_s = 60.0;
    sc.tick_interval_s = 5.0;
    sc.retry = RetryPolicy {
        ack_timeout_s: 15.0,
        max_backoff_s: 60.0,
        jitter_frac: 0.2,
        history_cap: 8,
        outbox_cap: 8,
    };
    sc
}

/// The 30%-drop chaos fault plan: heavy loss plus one 300 s outage of
/// site 1 while jobs are still submitting.
fn chaos_faults() -> FaultPlan {
    FaultPlan {
        drop_probability: 0.30,
        outages: vec![Outage {
            cluster: 1,
            from_s: OUTAGE_FROM_S,
            to_s: OUTAGE_TO_S,
        }],
        crashes: vec![],
    }
}

fn chaos_trace() -> Trace {
    Trace::new(
        (0..48)
            .map(|i| TraceJob {
                user: ["U65", "U30", "U3", "Uoth"][i % 4].to_string(),
                submit_s: i as f64 * 15.0,
                duration_s: 40.0,
                cores: 1,
            })
            .collect(),
    )
}

fn run(sc: GridScenario) -> SimResult {
    GridSimulation::new(sc).run(&chaos_trace(), 1800.0)
}

fn health_run(faults: FaultPlan, threads: usize) -> SimResult {
    let mut sc = chaos_scenario(base_seed())
        .with_health(SloConfig::default())
        .with_threads(threads);
    sc.faults = faults;
    run(sc)
}

fn render(result: &SimResult) {
    let report = result.health_report.as_ref().expect("health enabled");
    println!("{}", report.render());
    if result.alerts.is_empty() {
        println!("alerts: none");
    } else {
        println!("alerts:");
        print!("{}", alerts_to_jsonl(&result.alerts));
    }
}

/// A production-density trace for the overhead gate: the health subsystem's
/// cost is per sample barrier, so the honest overhead question is "what does
/// it cost on a run where the simulator is actually working?" — a 2000-job
/// backlog on the chaos grid, not the 48-job alert-calibration trace whose
/// whole run is ~1 ms of wall time.
fn dense_trace() -> Trace {
    Trace::new(
        (0..2000)
            .map(|i| TraceJob {
                user: ["U65", "U30", "U3", "Uoth"][i % 4].to_string(),
                submit_s: i as f64 * 1.5,
                duration_s: 120.0,
                cores: 2,
            })
            .collect(),
    )
}

/// Sim wall seconds of one dense chaos run with the given health
/// configuration.
fn timed_run(health: bool) -> f64 {
    let mut sc = chaos_scenario(base_seed());
    sc.faults = chaos_faults();
    if health {
        sc = sc.with_health(SloConfig::default());
    }
    let trace = dense_trace();
    let start = Instant::now();
    black_box(GridSimulation::new(sc).run(&trace, 1800.0));
    start.elapsed().as_secs_f64()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut failed = false;
    let mut gate = |ok: bool, label: String| {
        println!("{} {label}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failed = true;
        }
    };

    // The headline run: chaos faults, health on.
    let chaos = health_run(chaos_faults(), 1);
    println!(
        "# aequus-health: chaos grid (30% drop + outage {OUTAGE_FROM_S:.0}-{OUTAGE_TO_S:.0}s), \
         seed {}",
        base_seed()
    );
    render(&chaos);
    if !check {
        return;
    }

    println!("# --check gates");

    // Gate 1: the fault-free baseline fires zero alerts.
    let clean = health_run(FaultPlan::none(), 1);
    let clean_firing = clean
        .alerts
        .iter()
        .filter(|a| a.transition == "firing")
        .count();
    gate(
        clean_firing == 0 && clean.alerts.is_empty(),
        format!(
            "fault-free baseline quiet ({} alert events, {} firing)",
            clean.alerts.len(),
            clean_firing
        ),
    );

    // Gate 2: the chaos run fires a staleness alert for a link into the
    // outaged site and resolves it after recovery.
    let fired = chaos
        .alerts
        .iter()
        .find(|a| a.transition == "firing" && a.rule.starts_with("staleness:"));
    let resolved = fired.is_some_and(|f| {
        chaos
            .alerts
            .iter()
            .any(|a| a.rule == f.rule && a.transition == "resolved" && a.t_s > f.t_s)
    });
    match fired {
        Some(f) => {
            let lag = f.t_s - OUTAGE_FROM_S;
            gate(
                resolved,
                format!(
                    "staleness alert {} fired t={:.0}s (detection lag {lag:.0}s) and resolved",
                    f.rule, f.t_s
                ),
            );
        }
        None => gate(false, "no staleness alert fired under chaos".to_string()),
    }

    // Gate 3: health report and alert stream are byte-identical across
    // worker counts.
    let report_json = chaos.health_report.as_ref().expect("report").to_json();
    let alerts_jsonl = alerts_to_jsonl(&chaos.alerts);
    let mut identical = true;
    for threads in [2, 4] {
        let par = health_run(chaos_faults(), threads);
        identical &= par.health_report.as_ref().expect("report").to_json() == report_json
            && alerts_to_jsonl(&par.alerts) == alerts_jsonl;
    }
    gate(
        identical,
        "health report + alert stream byte-identical at 1/2/4 workers".to_string(),
    );

    // Gate 4: the health subsystem costs ≤ 5% sim wall time on a
    // production-density run. Interleaved min-of-N — comparing the two
    // arms' floors discards scheduler and allocator noise, which on a
    // ~20 ms run is far larger than the subsystem's real cost.
    let samples = harness::interleaved(&[false, true], 1, OVERHEAD_ROUNDS, |&h| timed_run(h));
    let (off, on) = (harness::min(&samples[0]), harness::min(&samples[1]));
    let mut pair_ratios: Vec<f64> = samples[1]
        .iter()
        .zip(&samples[0])
        .map(|(h, o)| h / o)
        .collect();
    pair_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    let median = pair_ratios[OVERHEAD_ROUNDS / 2];
    let ratio = on / off;
    gate(
        ratio <= OVERHEAD_BUDGET,
        format!(
            "telemetry_overhead ratio {ratio:.4} (budget {OVERHEAD_BUDGET:.2}, \
             off {:.1}ms on {:.1}ms, median pair ratio {median:.4})",
            off * 1e3,
            on * 1e3
        ),
    );

    if failed {
        std::process::exit(1);
    }
    println!("OK: all health gates passed");
}
