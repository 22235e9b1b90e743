#!/usr/bin/env bash
# Paired runs of this checkout against a base revision.
#
# Usage: scripts/pairs.sh --base <rev> [--workload W]... [--seconds S]
#                         [--pairs N] [--seed S] [--out FILE]
#        scripts/pairs.sh --base <rev> --criterion FILTER [--pairs N] [--out FILE]
#
# Exports <rev> with `git archive` into a work directory outside the
# checkout, builds both trees once, then runs N pairs (default 10), the
# base first in odd pairs and the checkout first in even ones, each side
# through its own tree's scripts. A pair runs every workload (default: all
# four) through benchmark/run.sh, which gets --seconds and --seed, and
# keeps each run's last line, its JSON result; the table has one row per
# workload and end-to-end metric. With --criterion a pair runs
# `scripts/bench_baseline.sh --runs 1` over the criterion benches whose
# names contain FILTER, and the table has one ns_per_iter row per bench.
# A row gives both medians, head/base, wins k/N, the base's IQR and the
# verdict of talus_bench::pairs::verdict. The table goes to stdout and,
# with --out, to FILE. The script reads benchmark/ and never edits it.
# Exits non-zero if an argument, a build or a run fails; the verdicts
# never change the exit code.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
    sed -n 's/^# \{0,1\}//; 4,6p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

base="" criterion="" pairs=10 out="" workloads=() pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --base) base="${2:-}"; shift 2 ;;
        --criterion) criterion="${2:-}"; [ -n "$criterion" ] || usage; shift 2 ;;
        --workload) workloads+=("${2:-}"); shift 2 ;;
        --pairs) pairs="${2:-}"; shift 2 ;;
        --out) out="${2:-}"; shift 2 ;;
        --seconds|--seed) pass+=("$1" "${2:-}"); shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$base" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
if [ -n "$criterion" ]; then
    [ $((${#workloads[@]} + ${#pass[@]})) -eq 0 ] || usage
    workloads=("$criterion")
elif [ ${#workloads[@]} -eq 0 ]; then
    workloads=(plane_local plane_rpc_journal producer_fed sim_paper)
fi

# Each tree builds into its own target directories: never share one.
unset CARGO_TARGET_DIR
work="$(mktemp -d "${TMPDIR:-/tmp}/talus-pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive --format=tar "$base" | tar -x -C "$work/base"
declare -A tree=([base]="$work/base" [head]="$root")
for side in base head; do
    echo "# building the $side tree" >&2
    if [ -n "$criterion" ]; then
        cargo bench --no-run --offline --quiet -p talus-bench \
            --manifest-path "${tree[$side]}/Cargo.toml" >&2
    else
        cargo build --release --offline --quiet \
            --manifest-path "${tree[$side]}/benchmark/Cargo.toml" >&2
    fi
done
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p talus-bench --bin bench_pairs >&2

samples="$work/samples.tsv"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order=(base head); else order=(head base); fi
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "# pair $pair/$pairs: $workload on $side" >&2
            if [ -n "$criterion" ]; then
                record="$work/$pair.$side.json"
                bash "${tree[$side]}/scripts/bench_baseline.sh" --runs 1 "$record" "$criterion" >&2
                printf '%s\t%s\t%s\n' "$pair" "$side" "$record" >> "$samples"
            else
                bash "${tree[$side]}/benchmark/run.sh" --workload "$workload" \
                    ${pass[@]+"${pass[@]}"} > "$work/run.out"
                printf '%s\t%s\t%s\t%s\n' "$workload" "$pair" "$side" \
                    "$(tail -n 1 "$work/run.out")" >> "$samples"
            fi
        done
    done
done

if [ -n "$criterion" ]; then table=(--criterion); else table=("$root/BENCHMARK.json"); fi
"$root/target/release/bench_pairs" "${table[@]}" "$samples" | tee ${out:+"$out"}
