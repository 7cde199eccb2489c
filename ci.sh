#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Tier-1 tests under a 3-seed matrix: AEQUUS_TEST_SEED shifts every seeded
# suite — the chaos fault matrix's base seed (including its durability
# axis) and all property-test case generation, the store's WAL
# truncation/bit-flip properties among them — so the gate covers three
# seed families per run.
for seed in 1 2 3; do
  AEQUUS_TEST_SEED="$seed" cargo test -q --workspace
done

# Docs must build warning-free for the first-party crates (vendored shims
# are exempt — they mirror external APIs we don't own).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p aequus -p aequus-telemetry -p aequus-core -p aequus-services \
  -p aequus-rms -p aequus-sim -p aequus-workload -p aequus-stats \
  -p aequus-store -p aequus-bench

# Output-digest gate: every benchmark workload must reproduce the output
# digest recorded for seeds 42 and 1729 in perfbench/src/digest.rs (cluster
# counts, every metrics sample, the final usage views, the alert stream), so
# a change that moves any simulated output fails here, not only in the
# benchmark. `"correct": true` on the JSON line means no run failed.
for workload in paper_testbed nation_mid chaos_wal; do
  for seed in 42 1729; do
    line=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml \
      --bin perfbench -- --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
    case "$line" in
      *'"correct": true'*) ;;
      *)
        echo "digest gate: $workload seed $seed is not correct: $line" >&2
        exit 1
        ;;
    esac
  done
done

# Telemetry overhead smoke check: the instrumented dispatch hot path must
# stay within 5% of its baseline in all three modes — metrics-only vs
# disabled, and tracing+provenance enabled-but-unsampled / full-capture vs
# metrics-only.
cargo run -q --release -p aequus-bench --bin telemetry_overhead -- --check

# Continuous-profiler overhead gate: a profiled whole-simulation must stay
# within 5% of the telemetry-only baseline in Counters mode (zero clock
# reads) and 10% in Full mode (wall timers + bounded span ring).
cargo run -q --release -p aequus-bench --bin profiler_overhead -- --check

# Scale-out gossip gate (smoke-sized): every overlay topology and wire
# encoding must end with views within 1e-9 of the full-mesh baseline's,
# every point must converge inside the horizon, and the Delta codec must
# cut full-mesh bytes-on-wire by the shape's gated factor (the 3x headline
# gate runs at the full 100k-user x 32-site shape via `gossip_sweep`).
cargo run -q --release -p aequus-bench --bin gossip_sweep -- --check

# Fairness-health gate: the fault-free chaos grid must fire zero alerts,
# the 30%-drop + outage run must fire a staleness alert and resolve it
# after recovery, the health report and alert stream must be
# byte-identical across worker counts, and the SLO engine + health map
# must cost <= 5% sim wall time on a production-density run.
cargo run -q --release -p aequus-bench --bin aequus-health -- --check

# Backfill dispatch gate (smoke-sized): every dispatch order x projection
# cell must drain the bursty mixed-width trace with finite fairness error,
# EASY/SAF utilization must not fall below FIFO's, FIFO and EASY must be
# bit-identical on the single-core baseline, the learned predictors must
# beat request echo on mean |rel err| with the prediction-accuracy
# telemetry counter live, and the scheduler hot path must hold its budget
# (sub-us pick_next at 10k-deep queues, plan-scan growth well under O(n^2)).
cargo run -q --release -p aequus-bench --bin backfill_sweep -- --check

# Benchmark snapshot + regression gate: writes BENCH_PR10.json (and its
# PROFILE_PR10.json attribution sidecar) and compares against the most
# recent previous BENCH_*.json within tolerance (passes with a note when
# none exists yet). Thread-scaling keys skip on hosts with < 8 cores.
cargo run -q --release -p aequus-bench --bin bench_snapshot -- 1500 --check

# Regression differ: the attribution selftest injects a stall at the epoch
# barrier and must see it blamed on barrier.wait, then the real diff
# re-compares the two newest snapshots and names the profiled stage whose
# wall share grew most whenever a wall-clock key regresses.
cargo run -q --release -p aequus-bench --bin bench_diff -- --selftest
cargo run -q --release -p aequus-bench --bin bench_diff

# Crash-recovery gate: WAL replay must reconverge the crashed site's views
# strictly earlier than surcharged snapshot-only catch-up on every seed.
cargo run -q --release -p aequus-bench --bin recovery_sweep

# Sharded-engine gate (smoke-sized): every worker count must replay the
# serial run seed-for-seed, and the continuous profiler's folded stacks
# must be byte-identical across worker counts; on hosts with >= 8 cores
# the 4x wall-clock speedup target is enforced too (reported but skipped
# on smaller hosts — determinism is hardware-independent, speedup is not).
# Artifacts: SCALE_TRACE.json (Chrome trace) + SCALE_PROFILE.folded.
cargo run -q --release -p aequus-bench --bin scale_sweep -- --check
