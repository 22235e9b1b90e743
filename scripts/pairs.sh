#!/usr/bin/env bash
# Paired runs of the repo benchmark: this checkout against a base revision.
#
# Usage: scripts/pairs.sh --base <rev> [--workload W]... [--seconds S]
#                         [--pairs N] [--seed S] [--out FILE]
#
# Exports <rev> with `git archive` into a work directory outside the
# checkout, builds both trees' talus-benchmark binaries once, then runs N
# pairs (default 10) of every workload (default: all four) through each
# tree's own benchmark/run.sh — the base first in odd pairs, the checkout
# first in even ones — and keeps each run's last line, its JSON result.
# The table (one row per workload and end-to-end metric: both medians,
# head/base, wins k/N, the base's IQR and the verdict of
# talus_bench::pairs::verdict) goes to stdout and, with --out, to FILE.
#
# --seconds and --seed are passed to run.sh (its defaults otherwise). The
# script reads benchmark/ and never edits it. Exits non-zero if an
# argument, a build or a run fails; the verdicts never change the exit
# code.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
    sed -n 's/^# \{0,1\}//; 4,5p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

base="" pairs=10 out="" workloads=() pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --base) base="${2:-}"; shift 2 ;;
        --workload) workloads+=("${2:-}"); shift 2 ;;
        --pairs) pairs="${2:-}"; shift 2 ;;
        --out) out="${2:-}"; shift 2 ;;
        --seconds|--seed) pass+=("$1" "${2:-}"); shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$base" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(plane_local plane_rpc_journal producer_fed sim_paper)
fi

# Each tree builds into its own benchmark/target: never share one.
unset CARGO_TARGET_DIR
work="$(mktemp -d "${TMPDIR:-/tmp}/talus-pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive --format=tar "$base" | tar -x -C "$work/base"
declare -A tree=([base]="$work/base" [head]="$root")
for side in base head; do
    echo "# building the $side benchmark" >&2
    cargo build --release --offline --quiet \
        --manifest-path "${tree[$side]}/benchmark/Cargo.toml" >&2
done
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p talus-bench --bin bench_pairs >&2

samples="$work/samples.tsv"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order=(base head); else order=(head base); fi
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "# pair $pair/$pairs: $workload on $side" >&2
            bash "${tree[$side]}/benchmark/run.sh" --workload "$workload" \
                ${pass[@]+"${pass[@]}"} > "$work/run.out"
            printf '%s\t%s\t%s\t%s\n' "$workload" "$pair" "$side" \
                "$(tail -n 1 "$work/run.out")" >> "$samples"
        done
    done
done

"$root/target/release/bench_pairs" "$root/BENCHMARK.json" "$samples" > "$work/table.md"
cat "$work/table.md"
if [ -n "$out" ]; then
    cp "$work/table.md" "$out"
fi
