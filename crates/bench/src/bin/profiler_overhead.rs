//! Continuous-profiler overhead smoke check, the profiler's analogue of
//! `telemetry_overhead`: a full (small) simulation with the profiler in
//! `Counters` mode must stay within 5% of the telemetry-only baseline, and
//! `Full` mode (wall timers + the bounded span ring) within 10%. Run with
//! `--check` to exit non-zero when either mode exceeds its budget (the CI
//! gate).
//!
//! The timing is `telemetry_overhead`'s ([`aequus_bench::harness::interleaved`]):
//! interleave one baseline and both profiled configurations each round so
//! drift (thermal, host scheduler) hits all equally, then compare *minima*
//! — the noise-robust statistic for "how fast can this configuration go".
//!
//! Unlike `telemetry_overhead`'s microbenchmark of one scheduler advance,
//! the sample here is a whole serial simulation: the profiler hooks live in
//! the engine's epoch loop and the cross-shard send path, which no
//! single-component harness exercises.

use aequus_bench::harness::{interleaved, min};
use aequus_bench::{uniform_trace, ScenarioBuilder};
use aequus_sim::{GridScenario, GridSimulation};
use aequus_telemetry::ProfileMode;
use aequus_workload::users::baseline_policy_shares;
use std::hint::black_box;
use std::time::Instant;

const JOBS: usize = 960;
const ROUNDS: usize = 30;
const WARMUP: usize = 3;
/// `Counters` promises zero clock reads on the hot path — same budget as
/// the metrics registry.
const COUNTERS_BUDGET: f64 = 1.05;
/// `Full` reads the wall clock at epoch granularity and keeps a bounded
/// span ring; twice the allowance.
const FULL_BUDGET: f64 = 1.10;

/// The compressed 3-site chaos-suite grid, serial, telemetry on — the
/// profiler rides on telemetry, so telemetry-only is the honest baseline.
fn scenario(mode: ProfileMode) -> GridScenario {
    ScenarioBuilder::testbed(&baseline_policy_shares(), 42)
        .sites(3)
        .nodes_per_site(4)
        .compressed()
        .telemetry()
        .profiling(mode)
        .build()
}

/// One sample: a full simulation of the fixed workload, timed end to end.
/// The trace is dense on purpose (a job every 1.5 s): the profiler's cost
/// is per *epoch*, so the gate must measure epochs that carry a
/// representative amount of work, not idle barrier crossings.
fn sample_ns(mode: ProfileMode) -> f64 {
    let trace = uniform_trace(JOBS, 0.75, 40.0);
    let start = Instant::now();
    let result = GridSimulation::new(scenario(mode)).run(&trace, 1800.0);
    black_box(&result);
    start.elapsed().as_nanos() as f64
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("# profiler overhead: {JOBS}-job serial simulation, minima over {ROUNDS} rounds");
    let modes = [ProfileMode::Off, ProfileMode::Counters, ProfileMode::Full];
    let samples = interleaved(&modes, WARMUP, ROUNDS, |&m| sample_ns(m));
    let base = min(&samples[0]);
    let mut failed = false;
    let mut gate = |name: &str, ratio: f64, budget: f64| {
        println!("ratio     {ratio:.4} (budget {budget:.2}) [{name}]");
        if ratio > budget {
            eprintln!("FAIL: {name} overhead {ratio:.4} exceeds budget {budget:.2}");
            failed = true;
        }
    };
    gate(
        "profiler-counters",
        min(&samples[1]) / base,
        COUNTERS_BUDGET,
    );
    gate("profiler-full", min(&samples[2]) / base, FULL_BUDGET);

    if check && failed {
        std::process::exit(1);
    }
    if check {
        println!("OK: within budget");
    }
}
