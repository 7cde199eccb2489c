//! Benchmark of the Aequus grid simulation: three workloads through the
//! serial engine, end-to-end metrics from untraced runs, per-layer metrics
//! from an outside-in traced run.
//!
//! ```text
//! perfbench --workload <paper_testbed|nation_mid|chaos_wal> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable detail goes to standard output first; the last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. See README.md for every metric's definition.

mod digest;
mod driver;
mod workload;

use aequus_sim::GridSimulation;
use aequus_telemetry::{ProfileMode, Snapshot};
use aequus_workload::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Workload, DRAIN_S};

/// Set-ups timed per invocation at least.
const MIN_SETUPS: usize = 5;
/// Each repeat times set-ups for at least this long (and at least once)
/// before its run, so the set-up samples span the whole invocation instead
/// of one short window of a host whose speed drifts.
const SETUP_SLICE_S: f64 = 0.025;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One timed `GridSimulation::run`.
struct EngineRun {
    run_s: f64,
    digest: u64,
    events: u64,
    submitted: u64,
    completed: u64,
    converge_s: Option<f64>,
}

/// Build the workload's simulation (scenario and policy construction plus
/// `GridSimulation::new`) until `SETUP_SLICE_S` has passed, recording each
/// set-up time; the last one built is returned.
fn timed_setup(w: Workload, seed: u64, setups: &mut Vec<f64>) -> GridSimulation {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let sim = GridSimulation::new(w.scenario(seed));
        setups.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return sim;
        }
    }
}

fn engine_run(w: Workload, sim: GridSimulation, trace: &Trace) -> EngineRun {
    let t = Instant::now();
    let result = sim.run(trace, DRAIN_S);
    let run_s = t.elapsed().as_secs_f64();
    let digest = digest::Outputs {
        cluster_counts: result
            .cluster_stats
            .iter()
            .map(|s| (s.submitted, s.completed))
            .collect(),
        events_processed: result.events_processed,
        end_s: result.end_s,
        samples: result.metrics.samples(),
        views: &result.site_usage_views,
        alerts: &result.alerts,
    }
    .digest();
    EngineRun {
        run_s,
        digest,
        events: result.events_processed,
        submitted: result.total_submitted(),
        completed: result.total_completed(),
        converge_s: w.converge_s(&result.metrics),
    }
}

/// Checks every run's digest against the recorded one for this seed, or,
/// for a seed without a recorded digest, against the first run's.
struct DigestCheck {
    expected: Option<u64>,
    recorded: bool,
}

impl DigestCheck {
    fn new(w: Workload, seed: u64) -> Self {
        let expected = digest::recorded(w.name(), seed);
        Self {
            expected,
            recorded: expected.is_some(),
        }
    }

    fn ok(&mut self, d: u64) -> bool {
        *self.expected.get_or_insert(d) == d
    }

    fn describe(&self) -> String {
        let d = self
            .expected
            .map_or("none".to_string(), |d| format!("{d:016x}"));
        if self.recorded {
            format!("{d} (recorded for this seed)")
        } else {
            format!("{d} (no recorded digest for this seed: runs checked against each other)")
        }
    }
}

/// Attempted and failed runs of one benchmark invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Run `f` once, counting a panic or a `false` verdict as a failure.
    fn attempt<T>(&mut self, f: impl FnOnce() -> T, verdict: impl FnOnce(&T) -> bool) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) if verdict(&v) => Some(v),
            Ok(v) => {
                self.failed += 1;
                Some(v)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

/// Repeat `body` until one more repeat as long as the last would end past
/// `seconds`. The first repeat always runs, so a run never stops midway and
/// a whole invocation stays near `seconds` even when one repeat is long.
fn repeat_for(seconds: f64, mut body: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        body();
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median and the highest percentile with at least ten samples beyond
/// it, as one line. Below 20 samples that percentile would not be above the
/// median, so the maximum is shown instead.
fn spread_line(name: &str, values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut line = format!("{name}: median {:.6} over n={n}", median(&v));
    if n >= 20 {
        let p = ((1.0 - 10.0 / n as f64) * 100.0).floor();
        let idx = ((p / 100.0) * n as f64).ceil() as usize;
        line += &format!(", p{p:.0} {:.6}", v[idx.saturating_sub(1).min(n - 1)]);
    } else {
        line += &format!(
            ", max {:.6} (too few samples for a tail percentile)",
            v[n - 1]
        );
    }
    line
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Print the JSON result line. A value that could not be measured (no run
/// finished) prints as `null` and makes the result incorrect.
fn print_result(correct: bool, tally: &Tally, metrics: &Metrics) {
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// A run passes when its digest matches and it met the workload's basic
/// invariants: every job submitted, some completed.
fn sane(r: &EngineRun, jobs: usize) -> bool {
    r.submitted == jobs as u64 && r.completed > 0
}

fn untraced(args: &Args, trace: &Trace) -> (bool, Tally, Metrics) {
    let w = args.workload;
    let mut check = DigestCheck::new(w, args.seed);
    let mut tally = Tally::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut runs: Vec<EngineRun> = Vec::new();
    repeat_for(args.seconds, || {
        let run = tally.attempt(
            || engine_run(w, timed_setup(w, args.seed, &mut setups), trace),
            |r| sane(r, trace.len()) & check.ok(r.digest),
        );
        runs.extend(run);
    });
    while setups.len() < MIN_SETUPS {
        drop(timed_setup(w, args.seed, &mut setups));
    }
    let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let run_med = median(&run_s);
    let first = runs.first();
    let events = first.map_or(0, |r| r.events);
    let converge = first
        .and_then(|r| r.converge_s)
        .map_or("not reached".to_string(), |t| format!("{t} s"));
    let rss = peak_rss_mb();

    println!(
        "# workload {} seed {} (serial engine, untraced)",
        w.name(),
        args.seed
    );
    println!("digest: {}", check.describe());
    if let Some(r) = first {
        println!(
            "events {} | submitted {} | completed {} | sim_converge_s {converge}",
            r.events, r.submitted, r.completed
        );
    }
    println!("{}", spread_line("run_s", &run_s));
    println!("{}", spread_line("setup_s", &setups));
    println!("peak_rss_mb: {rss:.1}");
    println!(
        "runs: {} attempted, {} failed",
        tally.attempted, tally.failed
    );

    let correct = tally.failed == 0 && !runs.is_empty();
    let metrics = [
        ("run_s", run_med, "s"),
        ("setup_s", median(&setups), "s"),
        ("events_per_s", events as f64 / run_med, "1/s"),
        ("peak_rss_mb", rss, "MB"),
    ]
    .map(|(n, v, u)| (n.to_string(), v, u))
    .to_vec();
    (correct, tally, metrics)
}

/// Per-site service-stage histograms nested inside `Shard::advance` and
/// disjoint from each other, so their wall sums are subtracted once for the
/// advance self time. `aequus_fcs_query_s` (lib.query) is not among them: it
/// runs inside `rms.reprioritize`, job submission and `sample_fragment`.
const NESTED_STAGES: &[&str] = &[
    "aequus_uss_ingest_s",
    "aequus_uss_publish_s",
    "aequus_uss_receive_s",
    "aequus_ums_refresh_s",
    "aequus_fcs_refresh_full_s",
    "aequus_fcs_refresh_incremental_s",
    "aequus_rms_dispatch_s",
    "aequus_rms_reprioritize_s",
    "aequus_store_wal_append_s",
    "aequus_store_wal_replay_s",
];

/// `(calls, wall seconds, max per-site p99)` of one histogram over sites.
fn hist(snaps: &[Snapshot], name: &str) -> (u64, f64, f64) {
    snaps
        .iter()
        .filter_map(|s| s.histograms.get(name))
        .fold((0, 0.0, 0.0), |(c, s, p), h| {
            (c + h.count, s + h.sum, f64::max(p, h.p99))
        })
}

fn counter(snaps: &[Snapshot], name: &str) -> u64 {
    snaps.iter().filter_map(|s| s.counters.get(name)).sum()
}

fn mean_us(calls: u64, sum_s: f64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        sum_s / calls as f64 * 1e6
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer value of one traced round, by metric name.
fn layer_values(
    d: &driver::DriverRun,
    untraced_s: f64,
    engine_traced_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let snaps = &d.site_telemetry;
    let sp = &d.spans;
    let nested_s: f64 = NESTED_STAGES.iter().map(|h| hist(snaps, h).1).sum();
    let (uss_in_c, uss_in_s, _) = hist(snaps, "aequus_uss_ingest_s");
    let (uss_pub_c, uss_pub_s, _) = hist(snaps, "aequus_uss_publish_s");
    let (merge_c, merge_s, _) = hist(snaps, "aequus_uss_receive_s");
    let (ums_c, ums_s, _) = hist(snaps, "aequus_ums_refresh_s");
    let (full_c, full_s, _) = hist(snaps, "aequus_fcs_refresh_full_s");
    let (inc_c, inc_s, _) = hist(snaps, "aequus_fcs_refresh_incremental_s");
    let (disp_c, disp_s, _) = hist(snaps, "aequus_rms_dispatch_s");
    let (rep_c, rep_s, _) = hist(snaps, "aequus_rms_reprioritize_s");
    let (wal_c, wal_s, _) = hist(snaps, "aequus_store_wal_append_s");
    let (q_c, q_s, q_p99) = hist(snaps, "aequus_fcs_query_s");
    let received = counter(snaps, "aequus_uss_summaries_received_total");
    let duplicates = counter(snaps, "aequus_uss_duplicates_total");
    let hits = counter(snaps, "aequus_lib_fairshare_hits_total");
    let misses = counter(snaps, "aequus_lib_fairshare_misses_total");
    // The engine's private work: its traced run minus the driver's prologue
    // and epoch loop (the driver's own hook and result spans excluded).
    let driver_loop_s = sp.run_wall_s - sp.hook_s - sp.result_s;
    let v = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    vec![
        v("sim.policy_build_s", sp.policy_build_s, "s"),
        v("sim.new_s", sp.new_s, "s"),
        v("sim.run_prologue_s", sp.prologue_s, "s"),
        v("sim.advance_s", sp.advance_s, "s"),
        v("sim.advance_self_s", sp.advance_s - nested_s, "s"),
        v("sim.sample_fragment_s", sp.sample_fragment_s, "s"),
        v("sim.sample_assemble_s", sp.sample_assemble_s, "s"),
        v("sim.deliver_s", sp.deliver_s, "s"),
        v("sim.unattributed_s", engine_traced_s - driver_loop_s, "s"),
        v("sim.mailbox_hwm", d.mailbox_hwm as f64, "count"),
        v("sim.queue_hwm", d.queue_hwm as f64, "count"),
        v("sim.events.arrivals", d.arrivals as f64, "count"),
        v("sim.events.ticks", d.ticks as f64, "count"),
        v("sim.events.gossip", d.gossip_deliveries as f64, "count"),
        v("uss.ingest_us", mean_us(uss_in_c, uss_in_s), "us"),
        v("uss.ingest.calls", uss_in_c as f64, "count"),
        v("uss.publish_us", mean_us(uss_pub_c, uss_pub_s), "us"),
        v("uss.publish.calls", uss_pub_c as f64, "count"),
        v("gossip.merge_us", mean_us(merge_c, merge_s), "us"),
        v("gossip.merge.calls", merge_c as f64, "count"),
        v("gossip.wire_bytes", d.wire_bytes as f64, "bytes"),
        v(
            "gossip.useful_ratio",
            ratio(received.saturating_sub(duplicates), received),
            "ratio",
        ),
        v("ums.refresh_us", mean_us(ums_c, ums_s), "us"),
        v("ums.refresh.calls", ums_c as f64, "count"),
        v("fcs.refresh_full_us", mean_us(full_c, full_s), "us"),
        v("fcs.refresh_full.calls", full_c as f64, "count"),
        v("fcs.refresh_incremental_us", mean_us(inc_c, inc_s), "us"),
        v("fcs.refresh_incremental.calls", inc_c as f64, "count"),
        v(
            "fcs.nodes_recomputed",
            d.fcs_nodes_recomputed as f64,
            "count",
        ),
        v("lib.query_us", mean_us(q_c, q_s), "us"),
        v("lib.query_p99_us", q_p99 * 1e6, "us"),
        v("lib.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        v("rms.dispatch_us", mean_us(disp_c, disp_s), "us"),
        v("rms.dispatch.calls", disp_c as f64, "count"),
        v("rms.reprioritize_us", mean_us(rep_c, rep_s), "us"),
        v(
            "gossip.retries",
            counter(snaps, "aequus_uss_retries_total") as f64,
            "count",
        ),
        v(
            "gossip.resyncs",
            counter(snaps, "aequus_uss_resyncs_total") as f64,
            "count",
        ),
        v(
            "gossip.snapshots",
            counter(snaps, "aequus_uss_snapshots_total") as f64,
            "count",
        ),
        v(
            "store.frames_appended",
            counter(snaps, "aequus_store_frames_appended_total") as f64,
            "count",
        ),
        v("wal.append_us", mean_us(wal_c, wal_s), "us"),
        v("sim.barrier_hook_s", sp.hook_s, "s"),
        v("sim.result_s", sp.result_s, "s"),
        v("trace.coverage", sp.covered_s() / sp.run_wall_s, "ratio"),
        v("trace.overhead", engine_traced_s / untraced_s, "ratio"),
    ]
}

/// Times printed in the text table but kept out of the JSON line: on the
/// workloads without a durable store or SLO hook they would be a constant
/// zero, which is no measurement.
const TEXT_ONLY: &[&str] = &["wal.append_us", "sim.barrier_hook_s"];

fn traced(args: &Args, trace: &Trace) -> (bool, Tally, Metrics) {
    let w = args.workload;
    let mut check = DigestCheck::new(w, args.seed);
    let mut tally = Tally::default();
    let mut rounds: Vec<Vec<(String, f64, &'static str)>> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut void = false;
    repeat_for(args.seconds, || {
        let base = tally.attempt(
            || engine_run(w, GridSimulation::new(w.scenario(args.seed)), trace),
            |r| sane(r, trace.len()) & check.ok(r.digest),
        );
        let drv = tally.attempt(
            || {
                let scenario = || w.scenario(args.seed).with_profiling(ProfileMode::Full);
                driver::run(scenario, trace, DRAIN_S)
            },
            |d| check.ok(d.digest),
        );
        let eng = tally.attempt(
            || {
                let scenario = w.scenario(args.seed).with_profiling(ProfileMode::Full);
                engine_run(w, GridSimulation::new(scenario), trace)
            },
            |r| check.ok(r.digest),
        );
        // A round with a panicked run is dropped; the panic already counts
        // as a failed run.
        if let (Some(b), Some(d), Some(e)) = (base, drv, eng) {
            void |= !check.ok(d.digest);
            untraced_s.push(b.run_s);
            traced_s.push(e.run_s);
            rounds.push(layer_values(&d, b.run_s, e.run_s));
        }
    });

    println!(
        "# workload {} seed {} (outside-in traced run)",
        w.name(),
        args.seed
    );
    println!("digest: {}", check.describe());
    if void {
        println!("VOID: the traced driver's digest differs from the engine's; per-layer numbers describe another computation");
    }
    println!("{}", spread_line("untraced run_s", &untraced_s));
    println!("{}", spread_line("traced run_s", &traced_s));
    println!("peak_rss_mb (three runs per round): {:.1}", peak_rss_mb());
    let mut metrics: Metrics = Vec::new();
    if let Some(first) = rounds.first() {
        println!(
            "{:<32} {:>16} {:<6} {:>14}",
            "layer metric", "median", "unit", "IQR/median"
        );
        for (k, (name, _, unit)) in first.iter().enumerate() {
            let vals: Vec<f64> = rounds.iter().map(|r| r[k].1).collect();
            let med = median(&vals);
            println!("{name:<32} {med:>16.6} {unit:<6} {:>14}", rel_iqr(&vals));
            if !TEXT_ONLY.contains(&name.as_str()) {
                metrics.push((name.clone(), med, *unit));
            }
        }
    }
    let correct = tally.failed == 0 && !void && !rounds.is_empty();
    (correct, tally, metrics)
}

/// Interquartile range over the median, or `-` below four values.
fn rel_iqr(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 4 {
        return "-".to_string();
    }
    let q = |p: f64| v[((n - 1) as f64 * p).round() as usize];
    let spread = (q(0.75) - q(0.25)) / median(&v).abs().max(f64::MIN_POSITIVE);
    format!("{spread:.4}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let trace = args.workload.trace(args.seed);
    let (correct, tally, metrics) = if args.trace {
        traced(&args, &trace)
    } else {
        untraced(&args, &trace)
    };
    print_result(correct, &tally, &metrics);
}
