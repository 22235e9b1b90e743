#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#
# Builds the benchmark crate (--release, offline), then runs each named
# workload — all four when --workload is absent — in its own process.
# Every metric is printed by name with its unit; the last line of a
# workload's output is its one-line JSON result. Exits non-zero if the
# build fails or any workload fails a check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

workloads=()
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads+=("$2"); shift 2 ;;
        --trace)
            # `--trace` alone means `--trace 1`.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                pass+=(--trace "$2"); shift 2
            else
                pass+=(--trace 1); shift
            fi ;;
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(plane_local plane_rpc_journal producer_fed sim_paper)
fi

# Build output goes to stderr so stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/talus-benchmark"

# One core for the whole process. The load is closed-loop — the RPC
# client and the server's connection thread take turns — so it never
# needs more, and on a virtual machine a wake-up across cores costs
# several times the work it wakes (sizing run: 10 k plans/s across two
# vCPUs, 24 k on one), which would drown the layers being measured.
pin=()
if command -v taskset >/dev/null 2>&1; then
    pin=(taskset -c "$(( $(nproc) - 1 ))")
fi

status=0
for workload in "${workloads[@]}"; do
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$workload" --out "$here/out" \
        ${pass[@]+"${pass[@]}"} || status=$?
done
exit "$status"
