//! Benchmark regression differ: compares two `BENCH_*.json` snapshots with
//! the shared direction-aware gate table ([`aequus_bench::snapshot`]) and,
//! when a wall-clock key regressed, attributes the regression to the
//! profiled pipeline stage whose share of total wall time grew most between
//! the snapshots' `PROFILE_*.json` sidecars.
//!
//! Usage:
//!
//! * `bench_diff` — compare the two newest `BENCH_*.json` in the working
//!   directory by their `"pr"` field (current vs previous). Fewer than two
//!   snapshots passes with a note, so the gate bootstraps cleanly.
//! * `bench_diff PREV.json CUR.json` — compare an explicit pair.
//! * `bench_diff --selftest` — run the attribution machinery end to end:
//!   the same serial scenario is profiled twice, the second run with a
//!   deliberate stall injected at the epoch barrier
//!   (`GridScenario::with_debug_barrier_sleep`), and the differ must blame
//!   `barrier.wait`. Exits non-zero if the attribution misses — this is the
//!   CI proof that a real scheduling stall would be named, not just noticed.

use aequus_bench::snapshot::{
    attribute_regression, compare, sibling_profile, skip_scaling_keys, snapshots,
};
use aequus_bench::{uniform_trace, ScenarioBuilder};
use aequus_sim::GridSimulation;
use aequus_telemetry::export::JsonValue;
use aequus_telemetry::ProfileMode;
use aequus_workload::users::baseline_policy_shares;

/// The selftest scenario: the chaos suite's compressed 3-site grid, serial,
/// fully profiled. Serial keeps the injected stall's accounting exact (the
/// sleep is charged to every shard's `barrier.wait` directly) and makes the
/// run reproducible on any host.
fn selftest_profile(stall_ns: u64) -> aequus_telemetry::RunProfile {
    let scenario = ScenarioBuilder::testbed(&baseline_policy_shares(), 42)
        .sites(3)
        .nodes_per_site(4)
        .compressed()
        .profiling(ProfileMode::Full)
        .build()
        .with_debug_barrier_sleep(stall_ns);
    let trace = uniform_trace(48, 15.0, 40.0);
    GridSimulation::new(scenario)
        .run(&trace, 1800.0)
        .profile
        .expect("profiled run carries a profile")
}

fn selftest() {
    println!("# bench_diff selftest: inject a barrier stall, expect it named");
    let clean = selftest_profile(0);
    // 200 µs per epoch — small against the run, huge against the compute
    // share of a smoke-sized serial simulation.
    let stalled = selftest_profile(200_000);
    let Some((stage, delta)) = attribute_regression(&clean, &stalled) else {
        eprintln!("FAIL: profiles carried no wall time to attribute");
        std::process::exit(1);
    };
    println!(
        "attributed to {stage} (+{:.1} pp of wall share)",
        delta * 100.0
    );
    if stage != "barrier.wait" {
        eprintln!("FAIL: expected the injected stall to be attributed to barrier.wait");
        std::process::exit(1);
    }
    println!("OK: injected barrier stall correctly attributed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selftest") {
        selftest();
        return;
    }
    let [(prev_name, prev), (cur_name, cur)] = if let [p, c] = &args[..] {
        let read = |name: &str| {
            let body = std::fs::read_to_string(name)
                .unwrap_or_else(|e| panic!("read snapshot {name}: {e}"));
            let doc = JsonValue::parse(&body)
                .unwrap_or_else(|| panic!("snapshot {name} is not valid JSON"));
            (name.to_string(), doc)
        };
        [read(p), read(c)]
    } else {
        let mut all = snapshots(std::path::Path::new("."));
        match (all.pop(), all.pop()) {
            (Some(cur), Some(prev)) => [prev, cur],
            _ => {
                println!("OK: fewer than two BENCH_*.json snapshots; nothing to diff");
                return;
            }
        }
    };
    println!("diffing {prev_name} -> {cur_name}");
    let failures = compare(&prev, &cur, skip_scaling_keys(&prev, &cur));
    if failures.is_empty() {
        println!("OK: {cur_name} within tolerance of {prev_name}");
        return;
    }
    for f in &failures {
        eprintln!(
            "  FAIL {}: {:?} -> {:?} exceeds tolerance x{}",
            f.key, f.prev, f.cur, f.tol
        );
    }
    // Name the culprit when both snapshots carry a profile sidecar: the
    // stage whose share of total wall time grew most is where the
    // regression lives (an injected barrier stall shows as `barrier.wait`,
    // a slow merge as `gossip.merge`, and so on).
    match (sibling_profile(&prev_name), sibling_profile(&cur_name)) {
        (Some(before), Some(after)) => match attribute_regression(&before, &after) {
            Some((stage, delta)) => eprintln!(
                "  likely culprit: {stage} (+{:.1} pp of wall share)",
                delta * 100.0
            ),
            None => eprintln!("  no wall time in the profiles to attribute"),
        },
        _ => eprintln!("  (no PROFILE_*.json sidecars on both sides; cannot attribute)"),
    }
    std::process::exit(1);
}
