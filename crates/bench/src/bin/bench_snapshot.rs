//! Machine-readable benchmark snapshot: writes `BENCH_PR10.json` with the
//! headline numbers of this revision (fairshare refresh latency, query p99,
//! gossip convergence under faults, the wire codec's bytes-per-user and the
//! overlay convergence time from the gossip sweep, causal-tracing overhead,
//! crash recovery with/without the durable store, the sharded engine's
//! smoke-sized scaling numbers, the fairness-health subsystem's
//! staleness/alert-lag/depth-rollup figures, and the PR-10 backfill
//! matrix's utilization/slowdown/convergence/predictor-accuracy headline
//! cells) plus `PROFILE_PR10.json`, the
//! continuous-profiler run profile that `bench_diff` uses to attribute
//! wall-clock regressions to a pipeline stage. With `--check` it compares each key against the
//! previous `BENCH_*.json` in the working directory, by `"pr"` field (shared gate
//! table: [`aequus_bench::snapshot`]) and exits non-zero on a regression
//! beyond tolerance. A missing previous snapshot (or a key absent from it)
//! passes with a note, so the gate bootstraps cleanly.
//!
//! The tracing ratios changed definition in PR 7. Previously they divided
//! the traced run's wall clock by a *no-telemetry* baseline, so they mostly
//! measured the metrics registry (PR 6 recorded 1.79× / 2.10× against a
//! ≤5% tracing budget — the two numbers weren't in the same unit). Now both
//! divide by the **telemetry-only** wall clock, isolating the tracing +
//! provenance increment the `telemetry_overhead` gate actually budgets.
//! See `crates/bench/README.md` for the unit definitions.
//!
//! Usage: `bench_snapshot [JOBS] [--check]` (default 4,000 jobs).

use aequus_bench::snapshot::{compare, host_cores, skip_scaling_keys, snapshots};
use aequus_bench::{
    baseline_trace, harness, jobs_arg, run_gossip_sweep, run_health_chaos, run_matrix,
    run_prediction_comparison, run_recovery_sweep, run_scale_sweep, run_with_faults,
    BackfillConfig, GossipConfig, ScaleConfig, ScenarioBuilder,
};
use aequus_core::projection::ProjectionKind;
use aequus_rms::DispatchOrder;
use aequus_sim::{GridScenario, GridSimulation, SimResult};
use aequus_telemetry::export::JsonValue;
use aequus_workload::users::baseline_policy_shares;
use std::time::Instant;

/// The revision this snapshot records: it names both output files and is
/// the `"pr"` field that orders snapshots.
const PR: u32 = 10;

/// The compact two-cluster testbed used for the timing ratios, so the
/// telemetry-only / unsampled / fully-traced runs are strictly comparable.
fn two_cluster_scenario(seed: u64) -> GridScenario {
    ScenarioBuilder::testbed(&baseline_policy_shares(), seed)
        .sites(2)
        .build()
}

/// The tracing stack wired (tracer + provenance recorder attached to every
/// site) but with span sampling off — the "enabled but unsampled" mode whose
/// cost is the per-report sampling branch, not span capture.
fn unsampled_scenario(seed: u64) -> GridScenario {
    let mut sc = two_cluster_scenario(seed).with_tracing(0);
    sc.capture_provenance = true;
    sc
}

fn timed_run(scenario: GridScenario, jobs: usize, seed: u64) -> (f64, SimResult) {
    let trace = baseline_trace(jobs, seed);
    let start = Instant::now();
    let result = GridSimulation::new(scenario).run(&trace, 1800.0);
    (start.elapsed().as_secs_f64(), result)
}

/// Merge the FCS refresh histograms (full + incremental) across all sites
/// into (mean, max p99); query p99 is the max across sites.
fn refresh_and_query_stats(result: &SimResult) -> (f64, f64, f64) {
    let (mut sum, mut count, mut refresh_p99, mut query_p99) = (0.0, 0u64, 0.0f64, 0.0f64);
    for snap in &result.site_telemetry {
        for name in [
            "aequus_fcs_refresh_full_s",
            "aequus_fcs_refresh_incremental_s",
        ] {
            if let Some(h) = snap.histograms.get(name) {
                sum += h.sum;
                count += h.count;
                refresh_p99 = refresh_p99.max(h.p99);
            }
        }
        if let Some(h) = snap.histograms.get("aequus_fcs_query_s") {
            query_p99 = query_p99.max(h.p99);
        }
    }
    let mean = if count > 0 { sum / count as f64 } else { 0.0 };
    (mean, refresh_p99, query_p99)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let out = format!("BENCH_PR{PR}.json");
    let profile_out = format!("PROFILE_PR{PR}.json");
    let jobs = jobs_arg(4_000);
    let seed = 42;
    let cores = host_cores();

    // Interleave the three timed configurations and compare minima, the
    // noise-robust statistic (same harness shape as the overhead gates) —
    // one-shot walls made the PR6 ratios swing with whichever run paid the
    // cache warmup. The first (untimed) run doubles as the warmup and the
    // telemetry source for the latency stats.
    let (_, telem) = timed_run(two_cluster_scenario(seed).with_telemetry(), jobs, seed);
    let configs: [fn(u64) -> GridScenario; 3] = [
        |seed| two_cluster_scenario(seed).with_telemetry(),
        unsampled_scenario,
        |seed| two_cluster_scenario(seed).with_full_tracing(),
    ];
    let walls = harness::interleaved(&configs, 0, 3, |config| {
        timed_run(config(seed), jobs, seed).0
    });
    let [telem_wall, unsampled_wall, full_wall] = [0, 1, 2].map(|i| harness::min(&walls[i]));
    let (refresh_mean, refresh_p99, query_p99) = refresh_and_query_stats(&telem);
    // Gossip convergence under a 10% drop fault plan: total seconds the
    // cross-site usage views spent divergent (> 1e-6). Lower means the
    // reliability layer reconverges the views faster.
    let faulted = run_with_faults(jobs, 0.1, seed);
    let series = faulted.metrics.view_divergence_series();
    let mut divergent_s = 0.0;
    for w in series.windows(2) {
        if w[0].1 >= 1e-6 {
            divergent_s += w[1].0 - w[0].0;
        }
    }
    // Whole-simulation tracing cost relative to the telemetry-only run
    // (same scenario, same trace): ~1.0 is healthy, and the unit finally
    // matches the tracing increment the overhead gates budget.
    let unsampled_ratio = unsampled_wall / telem_wall;
    let full_ratio = full_wall / telem_wall;
    // Crash recovery: the chaos-suite crash plan with and without the
    // durable store. WAL replay must reconverge the crashed site's views
    // earlier than the surcharged snapshot-only path; both times gate.
    let recovery = &run_recovery_sweep(48, &[seed])[0];
    let recovery_wal = recovery.durable_convergence_s.unwrap_or(-1.0);
    let recovery_snap = recovery.volatile_convergence_s.unwrap_or(-1.0);
    // Scale-out gossip, smoke-sized (the 100k-user × 32-site curves are
    // `gossip_sweep`'s job): bytes-per-active-user of the production
    // configuration (full mesh on the Delta codec) and the latest
    // convergence time across the hierarchical overlays — both
    // lower-is-better, both quantized to the 60 s sample cadence.
    let gossip = run_gossip_sweep(&GossipConfig::smoke());
    let gossip_bytes_per_user = gossip
        .point(
            aequus_services::OverlayTopology::FullMesh,
            aequus_core::codec::Encoding::Delta,
        )
        .map_or(-1.0, |p| p.bytes_per_user);
    let overlay_convergence = gossip.worst_convergence_s().unwrap_or(-1.0);
    if gossip.worst_divergence() > 1e-9 {
        eprintln!(
            "FAIL: gossip smoke sweep views diverged from the full mesh by {:.2e}",
            gossip.worst_divergence()
        );
        std::process::exit(1);
    }
    // Sharded-engine scaling, smoke-sized (the full 100k-user × 32-site
    // sweep is `scale_sweep`'s job): events/second serial and on 8 workers,
    // plus the best wall-clock speedup. Honest numbers — on a single-core
    // host the speedup sits at or below 1×, and the shared gate table
    // skips the thread-scaling keys there entirely (`host_cores` below
    // records which kind of host produced this snapshot).
    let scale = run_scale_sweep(&ScaleConfig::smoke());
    if let Some(why) = &scale.mismatch {
        eprintln!("FAIL: scale smoke run not thread-count deterministic: {why}");
        std::process::exit(1);
    }
    if let Some(why) = scale.folded_mismatch() {
        eprintln!("FAIL: profiler not thread-count deterministic: {why}");
        std::process::exit(1);
    }
    let scale_eps_1t = scale.events_per_sec(1).unwrap_or(-1.0);
    let scale_eps_8t = scale.events_per_sec(8).unwrap_or(-1.0);
    let scale_speedup = scale.best_speedup();
    // Fairness-health figures from the chaos-calibration grid (the same
    // runs `aequus-health --check` gates): worst per-link staleness p99 and
    // the staleness alert's detection lag on the full mesh, plus the
    // depth-2 convergence-lag rollup on a fanout-2 tree overlay. All three
    // are sim-time-deterministic per revision; −1.0 marks "did not fire /
    // no depth-2 links", which the gate table skips.
    let health = run_health_chaos(seed, 3, None);
    let health_report = health.health_report.as_ref().expect("health run reports");
    let staleness_p99 = health_report
        .links
        .iter()
        .map(|l| l.staleness_p99_s)
        .fold(0.0f64, f64::max);
    let alert_detection_lag = health
        .alerts
        .iter()
        .find(|a| a.transition == "firing" && a.rule.starts_with("staleness:"))
        .map_or(-1.0, |a| a.t_s - 300.0);
    let tree = run_health_chaos(
        seed,
        6,
        Some(aequus_services::OverlayTopology::Tree { fanout: 2 }),
    );
    let depth2_lag = tree
        .health_report
        .as_ref()
        .and_then(|r| r.depth_lag(2))
        .unwrap_or(-1.0);
    // Backfill dispatch matrix, smoke-sized (the full 6k-job sweep is
    // `backfill_sweep`'s job): FIFO and EASY utilization, EASY bounded
    // slowdown and convergence time on the Percental column of the bursty
    // mixed-width workload, plus the running-average predictor's accuracy
    // under 3×-padded requests. All sim-time-deterministic per revision;
    // convergence uses the −1.0 sentinel when the cell never balances.
    let backfill_cfg = BackfillConfig::smoke();
    let matrix = run_matrix(&backfill_cfg);
    let backfill_cell = |order: DispatchOrder| {
        matrix
            .iter()
            .find(|c| c.order == order && c.projection == ProjectionKind::Percental)
            .expect("full matrix")
    };
    let backfill_fifo_util = 100.0 * backfill_cell(DispatchOrder::Fifo).utilization;
    let easy = backfill_cell(DispatchOrder::Easy);
    let backfill_easy_util = 100.0 * easy.utilization;
    let backfill_easy_slowdown = easy.mean_slowdown;
    let backfill_easy_conv = easy.converge_s.unwrap_or(-1.0);
    let backfill_predict_err = run_prediction_comparison(&backfill_cfg).avg_err;

    // The serial smoke run's profile is this snapshot's attribution
    // sidecar: when a later `bench_diff` sees a wall-clock key regress, it
    // diffs the two PROFILE files' stage shares to name the culprit.
    if let Some((_, profile)) = scale.profiles.first() {
        std::fs::write(&profile_out, profile.to_json()).expect("write profile sidecar");
        println!("wrote {profile_out}");
    }

    let json = format!(
        "{{\n  \"pr\": {PR},\n  \"jobs\": {jobs},\n  \"host_cores\": {cores},\n  \
         \"refresh_mean_s\": {refresh_mean:?},\n  \
         \"refresh_p99_s\": {refresh_p99:?},\n  \"query_p99_s\": {query_p99:?},\n  \
         \"gossip_divergent_s\": {divergent_s:?},\n  \
         \"gossip_bytes_per_user\": {gossip_bytes_per_user:?},\n  \
         \"overlay_convergence_s\": {overlay_convergence:?},\n  \
         \"tracing_unsampled_ratio\": {unsampled_ratio:?},\n  \
         \"tracing_full_ratio\": {full_ratio:?},\n  \
         \"recovery_wal_replay_s\": {recovery_wal:?},\n  \
         \"recovery_snapshot_only_s\": {recovery_snap:?},\n  \
         \"scale_speedup_x\": {scale_speedup:?},\n  \
         \"events_per_sec_1t\": {scale_eps_1t:?},\n  \
         \"events_per_sec_8t\": {scale_eps_8t:?},\n  \
         \"staleness_p99_s\": {staleness_p99:?},\n  \
         \"alert_detection_lag_s\": {alert_detection_lag:?},\n  \
         \"depth2_convergence_lag_s\": {depth2_lag:?},\n  \
         \"backfill_fifo_util_pct\": {backfill_fifo_util:?},\n  \
         \"backfill_easy_util_pct\": {backfill_easy_util:?},\n  \
         \"backfill_easy_slowdown\": {backfill_easy_slowdown:?},\n  \
         \"backfill_easy_conv_s\": {backfill_easy_conv:?},\n  \
         \"backfill_predict_rel_err\": {backfill_predict_err:?}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write benchmark snapshot");
    println!("wrote {out}:");
    print!("{json}");

    if !check {
        return;
    }
    let cur = JsonValue::parse(&json).expect("benchmark snapshot is valid JSON");
    let previous = snapshots(std::path::Path::new("."))
        .into_iter()
        .rfind(|(name, _)| *name != out);
    let Some((prev_name, prev)) = previous else {
        println!("OK: no previous BENCH_*.json to compare against; gate passes");
        return;
    };
    println!("comparing against {prev_name}");
    let failures = compare(&prev, &cur, skip_scaling_keys(&prev, &cur));
    for f in &failures {
        eprintln!(
            "  FAIL {}: {:?} -> {:?} exceeds tolerance x{}",
            f.key, f.prev, f.cur, f.tol
        );
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("OK: within tolerance of {prev_name}");
}
