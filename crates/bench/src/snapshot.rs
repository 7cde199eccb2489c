//! Shared machinery for the benchmark snapshots (`BENCH_*.json`) and their
//! regression gates: the gate table with direction-aware tolerances, the
//! snapshot key reader, snapshot discovery ordered by PR number, the
//! comparison itself, and profile-based regression attribution.
//!
//! Both `bench_snapshot` (writes this PR's snapshot and self-gates) and
//! `bench_diff` (compares any two snapshots and attributes regressions to
//! the profiler stage whose wall share moved most) build on this module, so
//! the two binaries can never disagree about what counts as a regression.

use aequus_telemetry::export::JsonValue;
use aequus_telemetry::RunProfile;
use std::path::Path;

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Latency-shaped: regression = current grew past tolerance.
    LowerIsBetter,
    /// Throughput-shaped: regression = current shrank past tolerance.
    HigherIsBetter,
}

/// One gated snapshot key: a regression must exceed both the relative
/// tolerance (`prev * tol`, or fall below `prev / tol`) and the absolute
/// slack, so noise near zero never trips.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The snapshot key.
    pub key: &'static str,
    /// Regression direction.
    pub dir: Dir,
    /// Relative tolerance (multiplicative).
    pub tol: f64,
    /// Absolute slack in the key's own unit.
    pub slack: f64,
}

const fn gate(key: &'static str, dir: Dir, tol: f64, slack: f64) -> Gate {
    Gate {
        key,
        dir,
        tol,
        slack,
    }
}

/// The snapshot regression gates. Tolerances are deliberately wide for
/// wall-clock-derived keys (shared CI hosts are noisy); the tight hard
/// gates live in the dedicated binaries (`telemetry_overhead`,
/// `profiler_overhead`, `scale_sweep --check`) which measure with an
/// interleaved-minima harness instead of one-shot walls.
///
/// The tracing ratios are *whole-simulation* wall ratios against the
/// telemetry-only run (see `crates/bench/README.md` for the unit), so a
/// healthy value sits near 1.0 and the 0.10 slack absorbs run-to-run noise.
pub const GATES: &[Gate] = &[
    gate("refresh_mean_s", Dir::LowerIsBetter, 1.5, 0.005),
    gate("refresh_p99_s", Dir::LowerIsBetter, 1.5, 0.005),
    gate("query_p99_s", Dir::LowerIsBetter, 1.5, 0.005),
    gate("gossip_divergent_s", Dir::LowerIsBetter, 1.25, 300.0),
    // Wire-format efficiency: codec-encoded bytes per active user on the
    // smoke sweep's full-mesh/Delta point. Deterministic per revision, so
    // the tolerance only absorbs workload-shape drift, not host noise.
    gate("gossip_bytes_per_user", Dir::LowerIsBetter, 1.25, 16.0),
    // Latest cross-site convergence across the hierarchical overlays;
    // quantized to the 60 s sample interval — one extra sample of drift is
    // tolerated, two is a regression.
    gate("overlay_convergence_s", Dir::LowerIsBetter, 1.2, 90.0),
    gate("tracing_unsampled_ratio", Dir::LowerIsBetter, 1.5, 0.10),
    gate("tracing_full_ratio", Dir::LowerIsBetter, 1.5, 0.10),
    // Convergence times quantize to the 60 s sample interval; one extra
    // sample of drift is tolerated, two is a regression.
    gate("recovery_wal_replay_s", Dir::LowerIsBetter, 1.2, 90.0),
    gate("recovery_snapshot_only_s", Dir::LowerIsBetter, 1.2, 90.0),
    gate("scale_speedup_x", Dir::HigherIsBetter, 1.5, 0.5),
    gate("events_per_sec_1t", Dir::HigherIsBetter, 2.0, 50_000.0),
    gate("events_per_sec_8t", Dir::HigherIsBetter, 2.0, 50_000.0),
    // Fairness-health figures from the chaos-calibration runs. All three
    // are sim-time measurements (deterministic per revision), quantized to
    // the 60 s sample cadence — the slack tolerates one to two samples of
    // drift; −1.0 ("did not fire / no such depth") skips via the negative
    // sentinel rule above.
    gate("staleness_p99_s", Dir::LowerIsBetter, 1.25, 90.0),
    gate("alert_detection_lag_s", Dir::LowerIsBetter, 1.25, 90.0),
    gate("depth2_convergence_lag_s", Dir::LowerIsBetter, 1.25, 120.0),
    // Backfill dispatch matrix headline cells (smoke shape, Percental
    // column). Sim-time-deterministic per revision, so the tolerances only
    // absorb workload-shape drift. Utilization is throughput-shaped; the
    // slowdown/convergence/predictor keys are latency-shaped, convergence
    // quantized to the 60 s sample cadence with the −1.0 "never balanced"
    // sentinel skipping via the negative rule above.
    gate("backfill_fifo_util_pct", Dir::HigherIsBetter, 1.15, 3.0),
    gate("backfill_easy_util_pct", Dir::HigherIsBetter, 1.15, 3.0),
    gate("backfill_easy_slowdown", Dir::LowerIsBetter, 1.25, 0.5),
    gate("backfill_easy_conv_s", Dir::LowerIsBetter, 1.2, 120.0),
    gate("backfill_predict_rel_err", Dir::LowerIsBetter, 1.25, 0.1),
];

/// Keys that only measure something real on a multi-core host: wall-clock
/// thread scaling on a 1-core container is a property of the container, not
/// the engine, so these are skipped when either side of a comparison ran
/// with fewer than [`SCALING_MIN_CORES`] cores.
pub const SCALING_KEYS: &[&str] = &["scale_speedup_x", "events_per_sec_8t"];

/// Minimum host cores for the thread-scaling keys to gate.
pub const SCALING_MIN_CORES: usize = 8;

/// The host's available parallelism (1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The numeric value of top-level `key` in a parsed snapshot document.
pub fn extract(doc: &JsonValue, key: &str) -> Option<f64> {
    doc.get(key)?.as_f64()
}

/// Every `BENCH_*.json` in `dir` as `(file name, parsed document)`, oldest
/// first by the `"pr"` field inside each file (ties by name). Modification
/// times are not used: a fresh checkout gives every file the same one.
/// Files that do not parse or carry no `"pr"` are skipped.
pub fn snapshots(dir: &Path) -> Vec<(String, JsonValue)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u64, String, JsonValue)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                return None;
            }
            let doc = JsonValue::parse(&std::fs::read_to_string(e.path()).ok()?)?;
            let pr = doc.get("pr")?.as_u64()?;
            Some((pr, name, doc))
        })
        .collect();
    found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    found
        .into_iter()
        .map(|(_, name, doc)| (name, doc))
        .collect()
}

/// One regressed key of a snapshot comparison.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The gated key.
    pub key: &'static str,
    /// Previous value.
    pub prev: f64,
    /// Current value.
    pub cur: f64,
    /// The gate's relative tolerance, for the failure message.
    pub tol: f64,
}

/// Compare two snapshot documents key by key against [`GATES`], printing one
/// line per key, and return the regressions (empty = gate passes). When
/// `skip_scaling` is set (a host with fewer than [`SCALING_MIN_CORES`] cores
/// on either side), the [`SCALING_KEYS`] are reported but not gated.
pub fn compare(prev: &JsonValue, cur: &JsonValue, skip_scaling: bool) -> Vec<Regression> {
    let mut failures = Vec::new();
    for g in GATES {
        if skip_scaling && SCALING_KEYS.contains(&g.key) {
            println!(
                "  {}: thread-scaling key on a <{SCALING_MIN_CORES}-core host, skipped",
                g.key
            );
            continue;
        }
        let (Some(prev_v), Some(cur_v)) = (extract(prev, g.key), extract(cur, g.key)) else {
            println!("  {}: missing in one snapshot, skipped", g.key);
            continue;
        };
        if prev_v < 0.0 || cur_v < 0.0 {
            println!(
                "  {}: not measured on one side ({prev_v:?} -> {cur_v:?}), skipped",
                g.key
            );
            continue;
        }
        let regressed = match g.dir {
            Dir::LowerIsBetter => cur_v > prev_v * g.tol && cur_v > prev_v + g.slack,
            Dir::HigherIsBetter => cur_v < prev_v / g.tol && cur_v < prev_v - g.slack,
        };
        if regressed {
            failures.push(Regression {
                key: g.key,
                prev: prev_v,
                cur: cur_v,
                tol: g.tol,
            });
        } else {
            println!("  ok {}: {prev_v:?} -> {cur_v:?}", g.key);
        }
    }
    failures
}

/// Whether the comparison should skip the thread-scaling keys: true when
/// either snapshot records (or, absent a record, the running host has) fewer
/// than [`SCALING_MIN_CORES`] cores. Snapshots before the `host_cores` key
/// existed fall back to the current host's count — the best available proxy,
/// since CI re-runs on the same class of machine.
pub fn skip_scaling_keys(prev: &JsonValue, cur: &JsonValue) -> bool {
    let cores = |doc: &JsonValue| {
        extract(doc, "host_cores")
            .map(|c| c as usize)
            .unwrap_or_else(host_cores)
    };
    cores(prev) < SCALING_MIN_CORES || cores(cur) < SCALING_MIN_CORES
}

/// Attribute a wall-clock regression to the profiled stage whose share of
/// total wall time grew most between two runs: `(stage, share delta)`.
///
/// Shares (not absolute nanoseconds) make the attribution robust to the two
/// runs having different total durations — an injected stall shows up as
/// `barrier.wait` taking a larger *fraction* of the run, whatever the run's
/// length. Returns `None` when either profile carries no wall time at all
/// (counters-only profiles can't attribute).
pub fn attribute_regression(prev: &RunProfile, cur: &RunProfile) -> Option<(String, f64)> {
    let (before, after) = (prev.wall_shares(), cur.wall_shares());
    if before.is_empty() || after.is_empty() {
        return None;
    }
    let mut best: Option<(String, f64)> = None;
    for (stage, share) in &after {
        let delta = share - before.get(stage).copied().unwrap_or(0.0);
        if best.as_ref().is_none_or(|(_, d)| delta > *d) {
            best = Some((stage.clone(), delta));
        }
    }
    best
}

/// Load the `PROFILE_*.json` sibling of a `BENCH_*.json` snapshot, if one
/// was written next to it (`BENCH_PR7.json` → `PROFILE_PR7.json`).
pub fn sibling_profile(bench_name: &str) -> Option<RunProfile> {
    let profile_name = bench_name.replace("BENCH_", "PROFILE_");
    if profile_name == bench_name {
        return None;
    }
    let body = std::fs::read_to_string(profile_name).ok()?;
    RunProfile::from_json(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_telemetry::StageStats;

    fn doc(text: &str) -> JsonValue {
        JsonValue::parse(text).expect("test document parses")
    }

    #[test]
    fn extract_reads_flat_keys() {
        let doc = doc("{\n \"a\": 1.5,\n \"b\": -2,\n \"c\": 3e-4\n}");
        assert_eq!(extract(&doc, "a"), Some(1.5));
        assert_eq!(extract(&doc, "b"), Some(-2.0));
        assert_eq!(extract(&doc, "c"), Some(3e-4));
        assert_eq!(extract(&doc, "missing"), None);
    }

    #[test]
    fn snapshots_order_by_pr_not_mtime() {
        // A fresh checkout: every file has the same mtime, and by name
        // `BENCH_PR10` sorts before `BENCH_PR9`.
        let dir = std::env::temp_dir().join(format!(
            "aequus-bench-snapshots-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mtime = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        for (name, body) in [
            ("BENCH_PR9.json", "{\"pr\": 9}"),
            ("BENCH_PR10.json", "{\"pr\": 10}"),
            ("BENCH_broken.json", "{\"pr\": "),
            ("NOTES.json", "{\"pr\": 11}"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            std::fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(mtime)
                .unwrap();
        }
        let names: Vec<String> = snapshots(&dir).into_iter().map(|(name, _)| name).collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(names, ["BENCH_PR9.json", "BENCH_PR10.json"]);
    }

    #[test]
    fn compare_is_direction_aware() {
        let prev = &doc("{\"refresh_mean_s\": 0.010, \"events_per_sec_1t\": 1000000.0}");
        // refresh doubled past tol+slack, throughput halved past tol+slack.
        let cur = &doc("{\"refresh_mean_s\": 0.050, \"events_per_sec_1t\": 400000.0}");
        let failures = compare(prev, cur, false);
        let keys: Vec<_> = failures.iter().map(|f| f.key).collect();
        assert_eq!(keys, vec!["refresh_mean_s", "events_per_sec_1t"]);
        // Improvements in both directions pass.
        let better = &doc("{\"refresh_mean_s\": 0.001, \"events_per_sec_1t\": 2000000.0}");
        assert!(compare(prev, better, false).is_empty());
    }

    #[test]
    fn scaling_keys_skip_on_small_hosts() {
        let prev = &doc(
            "{\"scale_speedup_x\": 4.0, \"events_per_sec_8t\": 1000000.0, \"host_cores\": 16}",
        );
        let cur =
            &doc("{\"scale_speedup_x\": 0.9, \"events_per_sec_8t\": 100000.0, \"host_cores\": 1}");
        assert!(skip_scaling_keys(prev, cur), "1-core side must skip");
        assert!(compare(prev, cur, true).is_empty());
        assert!(
            !compare(prev, cur, false).is_empty(),
            "same numbers gate when not skipped"
        );
        let both_big = &doc("{\"host_cores\": 8}");
        assert!(!skip_scaling_keys(prev, both_big));
    }

    #[test]
    fn attribution_picks_the_stage_whose_share_grew() {
        let mut before = RunProfile::default();
        let mut shard = aequus_telemetry::ShardProfile {
            shard: 0,
            ..Default::default()
        };
        shard.stages.insert(
            "epoch".into(),
            StageStats {
                calls: 10,
                wall_ns: 900,
                bytes: 0,
            },
        );
        shard.stages.insert(
            "barrier.wait".into(),
            StageStats {
                calls: 10,
                wall_ns: 100,
                bytes: 0,
            },
        );
        before.shards.push(shard.clone());
        let mut after = RunProfile::default();
        shard.stages.insert(
            "barrier.wait".into(),
            StageStats {
                calls: 10,
                wall_ns: 2100,
                bytes: 0,
            },
        );
        after.shards.push(shard);
        let (stage, delta) = attribute_regression(&before, &after).expect("both have wall time");
        assert_eq!(stage, "barrier.wait");
        assert!(delta > 0.5, "{delta}");
        // Counters-only profiles can't attribute.
        assert!(attribute_regression(&RunProfile::default(), &after).is_none());
    }
}
