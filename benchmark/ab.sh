#!/usr/bin/env bash
# A/B driver: measure a change against its parent with identical benchmark
# code, in alternating pairs, and print the verdict per workload and metric.
#
#   benchmark/ab.sh <parent-ref> <change-ref> [pairs]
#
# Each ref is checked out into its own `git worktree` under
# target/benchmark/ab/, this checkout's benchmark/ sources are copied over
# both (a change that claims a gain may not edit the benchmark, and the two
# sides must be measured by the same code), and each side is built into its
# own --target-dir. Then, `pairs` times (default and minimum for a claim:
# 10) and for every workload, both sides run once with the same seed; which
# side goes first alternates from pair to pair. Result lines accumulate in
# parent.tsv / change.tsv and `atlahs_benchmark --compare` judges them by
# the rule in the choosing-metrics guide, section 8.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-ref> <change-ref> [pairs]" >&2
    exit 2
fi
parent_ref=$1
change_ref=$2
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
work="$root/target/benchmark/ab"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
if [ -z "$seconds" ] || [ -z "$workloads" ]; then
    echo "$0: cannot read run_seconds and workloads from BENCHMARK.json" >&2
    exit 1
fi

cleanup() {
    for side in parent change; do
        git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$work"
mkdir -p "$work"

for side in parent change; do
    if [ "$side" = parent ]; then ref=$parent_ref; else ref=$change_ref; fi
    echo "== $side: $ref" >&2
    git -C "$root" worktree add --detach "$work/$side" "$ref" >&2
    rm -rf "$work/$side/benchmark"
    (cd "$root" && tar -c --exclude=benchmark/target benchmark) | tar -x -C "$work/$side"
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" --target-dir "$work/target-$side"
done

run_side() { # <side> <workload> <seed>
    local line
    line=$(cd "$work/$1" && "$work/target-$1/release/atlahs_benchmark" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    printf '%s\t%s\n' "$2" "$line" >>"$work/$1.tsv"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for w in $workloads; do
        echo "pair $pair/$pairs: $w ($order)" >&2
        for side in $order; do
            run_side "$side" "$w" "$pair"
        done
    done
done

"$work/target-change/release/atlahs_benchmark" --compare "$work/parent.tsv" "$work/change.tsv"
