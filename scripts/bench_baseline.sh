#!/usr/bin/env bash
# Regenerate results/bench_baseline.json from `cargo bench` runs.
#
# The vendored criterion shim prints one `<name>  time: <value> <unit>`
# line per benchmark; this script normalises every entry to nanoseconds
# and emits a sorted, diff-stable JSON map.
#
# One shim run is a single short sample per bench, and a shared box
# swings tens of percent between runs — always upwards: interference
# only ever adds time. So the script runs the suite N times and keeps
# each bench's *minimum*. A record is a trajectory point: to judge a
# change, `scripts/pairs.sh --base <rev> --criterion FILTER` runs this
# script with --runs 1 in both trees, alternating.
#
# Usage: scripts/bench_baseline.sh [--runs N] [output.json] [filter]
#
# --runs N (default 3) is the number of `cargo bench` runs; CI's
# bench-smoke passes --runs 1 (it checks that benches run and parse, not
# what they read). A filter substring restricts the runs to matching
# bench names (the shim's criterion-style filtering), e.g. the monitor
# rows only:
#   scripts/bench_baseline.sh /tmp/monitor.json monitor_
set -euo pipefail
cd "$(dirname "$0")/.."
runs=3
if [ "${1:-}" = "--runs" ]; then
    runs="${2:?--runs needs a count}"
    shift 2
fi
case "$runs" in
    '' | *[!0-9]* | 0) echo "bench_baseline.sh: --runs wants a positive integer, got '$runs'" >&2; exit 2 ;;
esac
out="${1:-results/bench_baseline.json}"
filter="${2:-}"

for ((run = 1; run <= runs; run++)); do
    echo "bench run $run of $runs" >&2
    cargo bench -p talus-bench -- "$filter"
done |
    awk '
        /time:/ {
            name = $1
            for (i = 1; i <= NF; i++) if ($i == "time:") { v = $(i + 1); u = $(i + 2) }
            ns = v + 0
            if (u == "µs") ns *= 1e3
            else if (u == "ms") ns *= 1e6
            else if (u == "s") ns *= 1e9
            if (!(name in best) || ns < best[name]) best[name] = ns
        }
        END { for (name in best) printf "%s %.2f\n", name, best[name] }' |
    sort |
    awk -v runs="$runs" '
        BEGIN {
            print "{"
            printf "  \"_note\": \"ns/iter per bench: the minimum over %d run(s) of the median the vendored criterion shim reports, from scripts/bench_baseline.sh. Regenerate on the same machine class before comparing.\",\n", runs
            print "  \"benches\": {"
        }
        {
            if (n++) printf ",\n"
            printf "    \"%s\": %s", $1, $2
        }
        END {
            print "\n  }"
            print "}"
        }' >"$out"

count=$(grep -c '": [0-9]' "$out")
echo "wrote $out ($count benches, best of $runs)"
