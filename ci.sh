#!/usr/bin/env bash
# CI gate for the ATLAHS workspace. Run from the repo root.
#
# Stages:
#   1. cargo fmt --check          — formatting (config in rustfmt.toml)
#   2. cargo clippy -D warnings   — lints, all targets, no allowlist
#   3. cargo build --release      — the tier-1 build
#   4. cargo test -q              — unit + integration + doc tests (tier-1)
#   5. cargo doc --no-deps        — rustdoc must build warning-free
#   6. bench smoke                — criterion suites (shim) run + the
#      BENCH_engine.json / BENCH_lgs.json emitters produce parseable
#      output (docs/PERFORMANCE.md describes the tracked perf trajectory;
#      the checked-in reports are parse-validated by the
#      atlahs_bench::json unit tests in stage 4)
#   7. large-trace LGS fingerprint — the ~1M-op pipeline_parallel golden
#      (release-scale, so it runs here rather than in the debug suite)
#   8. sweep smoke                — `atlahs sweep --smoke` runs the fixed
#      24-cell CI grid on 2 threads and must reproduce the checked-in
#      tests/goldens/sweep_smoke.json byte for byte (docs/SCENARIOS.md)
#   9. fault smoke                — `atlahs sweep --fault-smoke` runs the
#      fixed 45-cell fault-injection grid (link flaps, degraded links,
#      stragglers, plus the distributional markov / rackfail / churn /
#      Weibull-straggler regimes) on 2 threads and must reproduce
#      tests/goldens/fault_smoke.json byte for byte (docs/SCENARIOS.md,
#      "Failure & variability axes")
#  10. cluster smoke              — `atlahs cluster --smoke` runs the fixed
#      24-cell dynamic-cluster grid on 2 threads and must reproduce
#      tests/goldens/cluster_smoke.json byte for byte (docs/SCENARIOS.md)
#  11. cluster fault smoke        — `atlahs cluster --fault-smoke` runs the
#      3-cell job-failure grid (clean / Bernoulli jobfail / MTBF) and must
#      reproduce tests/goldens/cluster_fault_smoke.json byte for byte
#  12. branch smoke               — `atlahs sweep --branch-smoke` runs the
#      fixed 24-cell branch-and-continue grid (8 shared prefixes simulated
#      once each, snapshot via the backend Snapshot contract, per-cell
#      fault overrides applied at the 60 µs branch point) and must
#      reproduce tests/goldens/branch_smoke.json byte for byte — including
#      the "prefix_runs": 8 work counter proving the prefix was not
#      re-simulated per cell (docs/SCENARIOS.md, "Branch-and-continue")
#  13. stochastic smoke           — `atlahs sweep --stochastic-smoke` runs
#      the fixed 75-cell per-packet stochastic grid (the 45 fault-smoke
#      cells byte-frozen inside, plus 30 loss/jitter cells drawing from
#      counter-based per-port streams) and must reproduce
#      tests/goldens/stochastic_smoke.json byte for byte
#      (docs/SCENARIOS.md, "Per-packet stochastic links")
#  14. determinism audit          — `atlahs lint` statically enforces the
#      bit-identity contract (docs/DETERMINISM.md): no floats,
#      default-hashed maps, hash-order iteration, wall clocks, ambient
#      randomness, or unsafe in result-affecting crates; det-lint allow
#      annotations must be well-formed and live; the golden corpus must
#      parse as JSON with no orphans and no dangling ci.sh references
#  15. benchmark harness          — `benchmark/` is a package of its own
#      (empty [workspace]), so stages 2-5 never compile it and a public-API
#      change in crates/* could break it unnoticed: run its unit tests and
#      one `--quick` report (small sizes, every workload plain and traced).
#      Read-only: builds into benchmark/target, edits nothing tracked.
#
# The build is fully offline: external deps are vendored shims under
# crates/shims/ (see README.md).

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release --workspace

step "cargo test"
cargo test -q --workspace

step "cargo doc (no warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "bench smoke (criterion shim + BENCH_engine.json emission)"
cargo bench -p atlahs_bench --bench engine
smoke_json="target/BENCH_engine_smoke.json"
cargo run --release -p atlahs_bench --bin bench_engine -- \
    --quick --out "$smoke_json" > /dev/null
for key in '"scenarios"' '"fig11_oversub_mprdma"' '"events_per_sec"'; do
    grep -q "$key" "$smoke_json" \
        || { echo "bench smoke: $key missing from $smoke_json" >&2; exit 1; }
done

step "bench smoke (lgs criterion suite + BENCH_lgs.json emission)"
cargo bench -p atlahs_bench --bench lgs
lgs_smoke_json="target/BENCH_lgs_smoke.json"
cargo run --release -p atlahs_bench --bin bench_lgs -- \
    --quick --out "$lgs_smoke_json" > /dev/null
for key in '"scenarios"' '"pipeline_1m"' '"tasks_per_sec"' '"bytes_per_task"'; do
    grep -q "$key" "$lgs_smoke_json" \
        || { echo "lgs bench smoke: $key missing from $lgs_smoke_json" >&2; exit 1; }
done

step "large-trace LGS fingerprint (~1M-op pipeline_parallel golden)"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release --test determinism_golden \
    lgs_pipeline_parallel_1m

step "sweep smoke (atlahs sweep --smoke vs golden report)"
sweep_json="target/sweep_smoke.json"
cargo run --release -p atlahs_bench --bin atlahs -- \
    sweep --smoke --threads 2 --quiet --out "$sweep_json"
diff -u tests/goldens/sweep_smoke.json "$sweep_json" \
    || { echo "sweep smoke: report drifted from tests/goldens/sweep_smoke.json" >&2; exit 1; }

step "fault smoke (atlahs sweep --fault-smoke vs golden report)"
fault_json="target/fault_smoke.json"
cargo run --release -p atlahs_bench --bin atlahs -- \
    sweep --fault-smoke --threads 2 --quiet --out "$fault_json"
diff -u tests/goldens/fault_smoke.json "$fault_json" \
    || { echo "fault smoke: report drifted from tests/goldens/fault_smoke.json" >&2; exit 1; }

step "cluster smoke (atlahs cluster --smoke vs golden report)"
cluster_json="target/cluster_smoke.json"
cargo run --release -p atlahs_bench --bin atlahs -- \
    cluster --smoke --threads 2 --quiet --out "$cluster_json"
diff -u tests/goldens/cluster_smoke.json "$cluster_json" \
    || { echo "cluster smoke: report drifted from tests/goldens/cluster_smoke.json" >&2; exit 1; }

step "cluster fault smoke (atlahs cluster --fault-smoke vs golden report)"
cluster_fault_json="target/cluster_fault_smoke.json"
cargo run --release -p atlahs_bench --bin atlahs -- \
    cluster --fault-smoke --threads 2 --quiet --out "$cluster_fault_json"
diff -u tests/goldens/cluster_fault_smoke.json "$cluster_fault_json" \
    || { echo "cluster fault smoke: report drifted from tests/goldens/cluster_fault_smoke.json" >&2; exit 1; }

step "branch smoke (atlahs sweep --branch-smoke vs golden report)"
branch_json="target/branch_smoke.json"
cargo run --release -p atlahs_bench --bin atlahs -- \
    sweep --branch-smoke --threads 2 --quiet --out "$branch_json"
diff -u tests/goldens/branch_smoke.json "$branch_json" \
    || { echo "branch smoke: report drifted from tests/goldens/branch_smoke.json" >&2; exit 1; }

step "stochastic smoke (atlahs sweep --stochastic-smoke vs golden report)"
stochastic_json="target/stochastic_smoke.json"
cargo run --release -p atlahs_bench --bin atlahs -- \
    sweep --stochastic-smoke --threads 2 --quiet --out "$stochastic_json"
diff -u tests/goldens/stochastic_smoke.json "$stochastic_json" \
    || { echo "stochastic smoke: report drifted from tests/goldens/stochastic_smoke.json" >&2; exit 1; }

step "determinism audit (atlahs lint, docs/DETERMINISM.md)"
cargo run --release -p atlahs_bench --bin atlahs -- lint

step "benchmark harness (unit tests + --quick report)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick > /dev/null

printf '\nCI gate passed.\n'
