#!/usr/bin/env bash
# CI gate for the ATLAHS workspace. Run from the repo root.
#
# Stages:
#   1. cargo fmt --check          — formatting (config in rustfmt.toml)
#   2. cargo clippy -D warnings   — lints, all targets, no allowlist
#   3. cargo build --release      — the tier-1 build, then the examples:
#      each one under examples/ is built in release and run, and must
#      exit 0 (`cargo test` only compiles them)
#   4. cargo test -q              — unit + integration + doc tests (tier-1),
#      the golden table among them: tests/golden_table/mod.rs holds the
#      run behind every report under tests/goldens/ — the `atlahs sweep`
#      and `atlahs cluster` flag lines of the sweep, stochastic (the 45
#      fault-smoke cells among its 75), branch, cluster and
#      cluster-fault smoke grids, parsed by the CLI's parser, and the
#      Fig. 8/10 fidelity cells — and one test per row runs it on 2
#      threads; each must reproduce its golden byte for byte, and each
#      flag line must match the command docs/SCENARIOS.md prints for it
#   5. cargo doc --no-deps        — rustdoc must build warning-free
#   6. large-trace LGS fingerprint — the ~1M-op pipeline_parallel golden
#      (release-scale, so it runs here rather than in the debug suite),
#      then the lowering memory ratchet: tests/lowering_footprint.rs
#      lowers the 3.19 M-task ai_lgs_trace input in a process of its own
#      and fails if VmHWM passes its recorded bound, and
#      tests/mpi_lowering_footprint.rs does the same with the 1024-rank
#      hpc_lgs_rendezvous input through mpi2goal; and the simulated-
#      phase one: tests/sim_footprint.rs runs the ai_htsim_spray input on
#      htsim (19.5 M events), likewise alone, and fails if VmHWM grows
#      during the run by more than its recorded bound; and the flow-table
#      one: tests/flow_table_footprint.rs does the same with the
#      storage_htsim_oversub input (389 560 flows), and fails if the flow
#      table passes 40 000 slots, or grows past 1.75x its slots when the
#      same input runs at twice the operations: a delivered flow's slot
#      is reused, so the table follows the flows in flight, not the
#      run's length; and the trace-parser oracle on the
#      benchmark's full-size inputs (LULESH 1024 x 70 ranks x iterations,
#      llama7b_dp128(0.002)): crates/tracers/tests/parse_oracle.rs checks
#      the byte-level MPI and nsys parsers give `==` results to the
#      `str`-method loops they replaced — an equality check, not a timing
#   7. figures                    — `atlahs fig` prints every figure but
#      fig08/fig10 (stage 4's fidelity golden covers their cells) at a
#      small scale, on 2 threads where it reads --threads, and each must
#      exit 0; then the release binary runs a job whose tags pass 2^24
#      (moe8x13b) randomly placed, inside `multi[…]` and as an
#      `atlahs cluster` catalog entry, and each must exit 0
#   8. determinism audit          — `atlahs lint` statically enforces the
#      bit-identity contract (docs/DETERMINISM.md): no floats,
#      default-hashed maps, hash-order iteration, wall clocks, ambient
#      randomness, or unsafe in result-affecting crates; det-lint allow
#      annotations must be well-formed and live, and their count may not
#      exceed MAX_ALLOWS below (a ratchet: float sites only go down)
#   9. benchmark harness          — `benchmark/` is a package of its own
#      (empty [workspace]), so stages 2-5 never compile it and a public-API
#      change in crates/* could break it unnoticed: run its unit tests and
#      one `--quick` report (small sizes, every workload plain and traced).
#      Timing is measured there too (benchmark/README.md; benchmark/ab.sh
#      is how a perf claim is made). Read-only, and checked: it builds
#      into benchmark/target, and its lock file must come out byte-identical
#      — a crate added to, dropped from or re-wired in the non-dev
#      dependency graph of crates/* would rewrite benchmark/Cargo.lock.
#  10. code size                  — prints the code-only line count of
#      each non-shim crates/*/src and their total (docs/PERFORMANCE.md,
#      "Measuring"); the total may not exceed MAX_CODE_LINES below (a
#      ratchet: lowering it is free, raising it needs a CHANGES.md line
#      that says why)
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

step "examples (release, each must exit 0)"
cargo build --release --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    ./target/release/examples/"$name" > /dev/null \
        || { echo "ci.sh: example $name failed" >&2; exit 1; }
done

step "cargo test"
cargo test -q --workspace

step "cargo doc (no warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "large-trace LGS fingerprint (~1M-op pipeline_parallel golden)"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release --test determinism_golden \
    lgs_pipeline_parallel_1m

step "lowering memory ratchet (3.19M-task nccl2goal trace, VmHWM bound)"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release --test lowering_footprint

step "MPI lowering memory ratchet (1024-rank mpi2goal trace, VmHWM bound)"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release --test mpi_lowering_footprint

step "simulated-phase memory ratchet (19.5M-event htsim run, VmHWM growth bound)"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release --test sim_footprint

step "flow-table memory ratchet (389 560-flow htsim run, VmHWM growth and flow-slot bounds)"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release --test flow_table_footprint

step "trace-parser oracle on the full-size benchmark inputs"
ATLAHS_LARGE_GOLDENS=1 cargo test -q --release -p atlahs_tracers --test parse_oracle

step "figures (atlahs fig; fig08/fig10 are pinned by tests/fidelity_smoke.rs)"
for fig in "fig01 --scale 0.001 --ranks 16" "fig09" "fig11 --ops 500 --threads 2" \
    "fig12 --scale 0.001 --threads 2" "fig13 --threads 2" "table1"; do
    # Word splitting is the point: each entry is a name and its flags.
    # shellcheck disable=SC2086
    ./target/release/atlahs fig $fig > /dev/null \
        || { echo "ci.sh: atlahs fig $fig failed" >&2; exit 1; }
done

step "composed jobs keep their own tags (release binary, each must exit 0)"
moe=llm:moe8x13b:0.002:10:false
for run in "sweep --topos ai-fattree:64:1 --workloads $moe --placements random --backends ideal" \
    "sweep --topos ai-fattree:64:1 --workloads multi[$moe+ring:8:1024:1] --backends ideal" \
    "cluster --topo ai-fattree:64:1 --catalog $moe --arrivals poisson:1:1000 --backends ideal"; do
    # shellcheck disable=SC2086
    ./target/release/atlahs $run > /dev/null \
        || { echo "ci.sh: atlahs $run failed" >&2; exit 1; }
done

step "determinism audit (atlahs lint, docs/DETERMINISM.md)"
# Ratchet: the number of honoured `det-lint: allow` annotations may only go
# down. Lower MAX_ALLOWS when a PR removes some; never raise it.
MAX_ALLOWS=41
cargo run --release -p atlahs_bench --bin atlahs -- lint | tee target/lint.txt
allows=$(sed -n 's/.* \([0-9][0-9]*\) allow annotations honoured.*/\1/p' target/lint.txt)
[ -n "$allows" ] || { echo "ci.sh: no allow count in the lint summary" >&2; exit 1; }
[ "$allows" -le "$MAX_ALLOWS" ] \
    || { echo "ci.sh: $allows allow annotations honoured, the ratchet is $MAX_ALLOWS" >&2; exit 1; }

step "benchmark harness (unit tests + --quick report, lock file untouched)"
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick > /dev/null
cmp target/benchmark-Cargo.lock benchmark/Cargo.lock \
    || { echo "ci.sh: building the benchmark rewrote benchmark/Cargo.lock" >&2; exit 1; }

step "code-only line count (ratchet; docs/PERFORMANCE.md, Measuring)"
# Ratchet: the code-only line count may only go down. Lower MAX_CODE_LINES
# when a PR removes code; raising it needs a CHANGES.md line saying why.
MAX_CODE_LINES=12999
find crates -path 'crates/*/src/*.rs' ! -path 'crates/shims/*' -exec awk '
    FNR == 1 { test = 0; split(FILENAME, path, "/") }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test && !/^[[:space:]]*(\/\/|$)/ { n++; per_crate[path[2]]++ }
    END {
        for (c in per_crate) printf "%6d  crates/%s/src\n", per_crate[c], c | "sort -k2"
        close("sort -k2")
        print n + 0 " code-only lines in non-shim crates/*/src"
    }' {} + | tee target/code_lines.txt
lines=$(sed -n 's/^\([0-9][0-9]*\) code-only lines.*/\1/p' target/code_lines.txt)
[ -n "$lines" ] || { echo "ci.sh: no code-only line count" >&2; exit 1; }
[ "$lines" -le "$MAX_CODE_LINES" ] \
    || { echo "ci.sh: $lines code-only lines, the ratchet is $MAX_CODE_LINES" >&2; exit 1; }

printf '\nCI gate passed.\n'
