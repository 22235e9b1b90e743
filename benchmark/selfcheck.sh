#!/usr/bin/env bash
# A/A check of the benchmark against its own bounds.
#
#   benchmark/selfcheck.sh [--runs N] [--seconds S]
#
# Builds once, then runs the full set — every workload, N untraced runs
# on seeds 1..N plus one traced run on seed 1 — twice (sets A and B), and
# once more on seeds the other sets never use (set C: one untraced and
# one traced run per workload on seed 101). Prints both medians per
# metric × workload and fails if
#   - BENCHMARK.json differs from what the binary declares,
#   - any run fails a check, or prints a metric list other than the
#     manifest's,
#   - an end-to-end median of set B is worse than set A's by more than
#     the metric's bound (same rule for the single-workload results kept
#     in the per-layer list: restore_records_per_s, sim_accesses_per_s),
#   - an exact count differs between A and B in any digit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=3
seconds=""
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "selfcheck.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
"$CARGO_TARGET_DIR/release/talus-benchmark" --manifest | diff - "$here/../BENCHMARK.json" >&2 || {
    echo "selfcheck.sh: BENCHMARK.json is not what the binary declares (regenerate with --manifest)" >&2
    exit 1
}

HERE="$here" RUNS="$runs" SECONDS_ARG="$seconds" exec python3 - <<'PY'
import json, os, statistics, subprocess, sys

here = os.environ["HERE"]
runs = int(os.environ["RUNS"])
manifest = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
seconds = os.environ["SECONDS_ARG"] or str(manifest["run_seconds"])
workloads = [w["name"] for w in manifest["workloads"]]
e2e = {m["name"]: m for m in manifest["end_to_end"]}
layers = {m["name"]: m for m in manifest["per_layer"]}

# Results of one workload that the contract keeps out of end_to_end,
# gated here with the loosest end-to-end bound.
GATED_LAYERS = {"restore_records_per_s": 0.25, "sim_accesses_per_s": 0.25}
EXACT = {
    "journal_bytes_per_submission", "wire_bytes_per_submission", "failed_share",
    "talus_hull_gap_max", "mix_weighted_speedup", "sim.stats_digest",
    "serve.plane.dedup_noop_share", "serve.plane.plans_per_epoch", "serve.plane.deferred",
    "serve.wire.bytes_per_submission", "serve.rpc.round_trips", "serve.rpc.retries",
    "serve.rpc.busy", "store.bytes_per_submission", "store.records",
    "sim.monitor.sampled_share", "sim.talus_cache.reconfigurations", "multicore.llc_accesses",
} | {n for n in layers if n.startswith("sim.talus_cache.miss_rate.")}

failures = []

def run(workload, seed, trace):
    cmd = ["bash", os.path.join(here, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        failures.append(f"{workload} seed {seed} trace {trace}: no result line (exit {out.returncode})")
        return {}
    want = layers if trace else e2e
    if out.returncode != 0 or not result["correct"] or result["failed"]:
        failures.append(f"{workload} seed {seed} trace {trace}: failed checks (exit {out.returncode})")
    if set(result["metrics"]) != set(want):
        failures.append(f"{workload} seed {seed} trace {trace}: metric list differs from the manifest")
    return {k: v["value"] for k, v in result["metrics"].items()}

def full_set(label, seeds):
    print(f"# set {label}: seeds {seeds}, {seconds} s per run", flush=True)
    untraced, traced = {}, {}
    for w in workloads:
        untraced[w] = [run(w, s, 0) for s in seeds]
        traced[w] = run(w, seeds[0], 1)
    return untraced, traced

def worse_by(a, b, better):
    """Share of a by which b is worse (negative when b is better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (a - b) / abs(a) if better == "higher" else (b - a) / abs(a)

a_un, a_tr = full_set("A", list(range(1, runs + 1)))
b_un, b_tr = full_set("B", list(range(1, runs + 1)))
full_set("C", [101])

print(f"\n{'workload':<18} {'metric':<52} {'median A':>16} {'median B':>16} {'B worse by':>11} {'bound':>6}")
for w in workloads:
    for name, m in e2e.items():
        a = statistics.median(r.get(name, 0.0) for r in a_un[w])
        b = statistics.median(r.get(name, 0.0) for r in b_un[w])
        worse = worse_by(a, b, m["better"])
        flag = ""
        if worse > m["bound"]:
            flag = "  <-- beyond bound"
            failures.append(f"{w} {name}: set B worse by {worse:.3f} > {m['bound']}")
        print(f"{w:<18} {name:<52} {a:>16.6g} {b:>16.6g} {worse:>+11.3f} {m['bound']:>6}{flag}")
    for name, m in layers.items():
        a, b = a_tr[w].get(name, 0.0), b_tr[w].get(name, 0.0)
        if a == 0 and b == 0:
            continue
        flag, bound = "", ""
        if name in EXACT:
            bound = "exact"
            if a != b:
                flag = "  <-- differs"
                failures.append(f"{w} {name}: exact metric read {a!r} then {b!r}")
        elif name in GATED_LAYERS:
            bound = GATED_LAYERS[name]
            if worse_by(a, b, m["better"]) > bound:
                flag = "  <-- beyond bound"
                failures.append(f"{w} {name}: set B worse by {worse_by(a, b, m['better']):.3f} > {bound}")
        print(f"{w:<18} {name:<52} {a:>16.6g} {b:>16.6g} {worse_by(a, b, m['better']):>+11.3f} {bound:>6}{flag}")

if failures:
    print("\nselfcheck FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nselfcheck passed: both sets agree within the benchmark's own bounds")
PY
