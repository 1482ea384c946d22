#!/usr/bin/env bash
# bench.sh — capture the simulator's performance trajectory.
#
# Runs the internal/cache micro-benchmarks (per-access cost of the
# probe/fill hot path), the internal/forest + internal/deepforest
# training/prediction benchmarks (the stage-2 model's wall-clock floor),
# the internal/testbed + internal/queueing + internal/stats machine-loop
# and Stage-3 benchmarks (simulator runs and percentiles), the internal/mrc
# + internal/surrogate fast-path benchmarks (MRC ingestion, the
# surrogate-vs-replay per-plan cost, a full sweep) and the internal/fleet cluster
# benchmarks (fleet step rate, routing decision cost and the migrator's
# queueing-model decision latency), plus one end-to-end fig6
# regeneration and a serving loadtest sweep (stac loadtest against an
# in-process engine: cached capacity, cold batched path, and open-loop
# tail latency), and writes BENCH_cache.json, BENCH_forest.json,
# BENCH_queueing.json, BENCH_mrc.json, BENCH_fleet.json and
# BENCH_serve.json so successive PRs can compare against a recorded
# baseline with benchstat or by diffing the JSON.
# BENCH_fleet.json additionally records fleet_queries_per_second (the
# end-to-end fleet step rate from BenchmarkFleetRun's queries/s metric).
# BENCH_mrc.json additionally records surrogate_speedup_vs_replay: the
# measured ratio of a full testbed replay of one plan (default query
# count) to one surrogate evaluation — the honest per-plan speedup of
# `stac search`.
#
# Usage:
#   scripts/bench.sh            full run (8 samples per benchmark)
#   scripts/bench.sh -short     CI-sized run (3 samples, short benchtime)
#   scripts/bench.sh --compare  CI-sized run, then print a per-benchmark
#                               markdown delta table against the committed
#                               baselines (git show HEAD:BENCH_*.json)
#
# Environment:
#   BENCH_OUT         cache output path (default BENCH_cache.json)
#   BENCH_FOREST_OUT  forest output path (default BENCH_forest.json)
#   BENCH_QUEUE_OUT   testbed/queueing output path (default BENCH_queueing.json)
#   BENCH_MRC_OUT     mrc/surrogate output path (default BENCH_mrc.json)
#   BENCH_FLEET_OUT   fleet output path (default BENCH_fleet.json)
#   BENCH_SERVE_OUT   serving loadtest output path (default BENCH_serve.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
COUNT=8
BENCHTIME=1s
COMPARE=0
case "${1:-}" in
-short)
    MODE=short
    COUNT=3
    BENCHTIME=0.2s
    ;;
--compare)
    MODE=short
    COUNT=3
    BENCHTIME=0.2s
    COMPARE=1
    ;;
esac
CACHE_OUT=${BENCH_OUT:-BENCH_cache.json}
FOREST_OUT=${BENCH_FOREST_OUT:-BENCH_forest.json}
QUEUE_OUT=${BENCH_QUEUE_OUT:-BENCH_queueing.json}
MRC_OUT=${BENCH_MRC_OUT:-BENCH_mrc.json}
FLEET_OUT=${BENCH_FLEET_OUT:-BENCH_fleet.json}
SERVE_OUT=${BENCH_SERVE_OUT:-BENCH_serve.json}

# Snapshot the committed baselines before the run overwrites the outputs.
snapshot_baseline() { # <committed name> -> prints tmp path or nothing
    local tmp
    tmp=$(mktemp)
    if git show "HEAD:$1" > "$tmp" 2>/dev/null; then
        echo "$tmp"
    else
        echo "bench.sh: no committed $1 at HEAD; nothing to compare" >&2
        rm -f "$tmp"
    fi
}
CACHE_BASELINE=""
FOREST_BASELINE=""
QUEUE_BASELINE=""
MRC_BASELINE=""
FLEET_BASELINE=""
SERVE_BASELINE=""
if [[ "$COMPARE" == 1 ]]; then
    CACHE_BASELINE=$(snapshot_baseline BENCH_cache.json)
    FOREST_BASELINE=$(snapshot_baseline BENCH_forest.json)
    QUEUE_BASELINE=$(snapshot_baseline BENCH_queueing.json)
    MRC_BASELINE=$(snapshot_baseline BENCH_mrc.json)
    FLEET_BASELINE=$(snapshot_baseline BENCH_fleet.json)
    SERVE_BASELINE=$(snapshot_baseline BENCH_serve.json)
fi

RAW_CACHE=$(mktemp)
RAW_FOREST=$(mktemp)
RAW_QUEUE=$(mktemp)
RAW_MRC=$(mktemp)
RAW_FLEET=$(mktemp)
# The stac binary gets a private directory, so concurrent runs from two
# checkouts never share one.
BIN_DIR=$(mktemp -d)
STAC="$BIN_DIR/stac"
trap 'rm -f "$RAW_CACHE" "$RAW_FOREST" "$RAW_QUEUE" "$RAW_MRC" "$RAW_FLEET"; rm -rf "$BIN_DIR"' EXIT

echo "== micro-benchmarks (internal/cache, count=$COUNT, benchtime=$BENCHTIME) =="
go test -run '^$' -bench '.' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    ./internal/cache | tee "$RAW_CACHE"

echo "== training benchmarks (internal/forest + internal/deepforest) =="
go test -run '^$' -bench '.' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    ./internal/forest ./internal/deepforest | tee "$RAW_FOREST"

echo "== machine-loop benchmarks (internal/testbed + internal/queueing + internal/stats) =="
go test -run '^$' -bench '.' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    ./internal/testbed ./internal/queueing ./internal/stats | tee "$RAW_QUEUE"

echo "== fast-path benchmarks (internal/mrc + internal/surrogate) =="
go test -run '^$' -bench '.' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    ./internal/mrc ./internal/surrogate | tee "$RAW_MRC"

echo "== fleet benchmarks (internal/fleet) =="
go test -run '^$' -bench '.' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    ./internal/fleet | tee "$RAW_FLEET"

echo "== end-to-end: fig6 regeneration wall clock =="
go build -o "$STAC" ./cmd/stac
START=$(date +%s.%N)
"$STAC" experiment fig6 -seed 2022 > /dev/null
END=$(date +%s.%N)
FIG6=$(awk -v a="$START" -v b="$END" 'BEGIN { printf "%.3f", b - a }')
echo "fig6 wall clock: ${FIG6}s"

echo "== serving loadtests (stac loadtest, in-process engine) =="
if [[ "$MODE" == short ]]; then
    LOAD_DUR=3s
    OPEN_QPS=10000
else
    LOAD_DUR=10s
    OPEN_QPS=20000
fi
SERVE_DIR=$(mktemp -d)
trap 'rm -f "$RAW_CACHE" "$RAW_FOREST" "$RAW_QUEUE" "$RAW_MRC" "$RAW_FLEET"; rm -rf "$BIN_DIR" "$SERVE_DIR"' EXIT
"$STAC" profile -a redis -b bfs -points 6 -queries 30 -out "$SERVE_DIR/profile.json.gz"
"$STAC" train -in "$SERVE_DIR/profile.json.gz" -model "$SERVE_DIR/model.gob"
"$STAC" loadtest -model "$SERVE_DIR/model.gob" -data "$SERVE_DIR/profile.json.gz" \
    -duration "$LOAD_DUR" -warmup 1s -workers 4 -json "$SERVE_DIR/closed_cached.json"
"$STAC" loadtest -model "$SERVE_DIR/model.gob" -data "$SERVE_DIR/profile.json.gz" \
    -duration "$LOAD_DUR" -warmup 1s -workers 16 -nocache -json "$SERVE_DIR/closed_cold.json"
"$STAC" loadtest -model "$SERVE_DIR/model.gob" -data "$SERVE_DIR/profile.json.gz" \
    -duration "$LOAD_DUR" -warmup 1s -mode open -qps "$OPEN_QPS" -workers 32 \
    -json "$SERVE_DIR/open.json"

GIT_REV=$(git describe --always --dirty 2>/dev/null || echo unknown)
GO_VERSION=$(go env GOVERSION)

# emit_json <raw> <out> <withfig6> — aggregate one `go test -bench`
# capture into a baseline document. The fig6 wall clock rides along in
# the cache file only (it measures the whole pipeline, not the training
# stack in isolation).
emit_json() {
    python3 - "$1" "$2" "$MODE" "$FIG6" "$GIT_REV" "$GO_VERSION" "$3" <<'PYEOF'
import json
import re
import sys
import time

raw, out, mode, fig6, git_rev, go_version, withfig6 = sys.argv[1:8]

# Lines look like:
# BenchmarkAccessHit-8   274317721   4.593 ns/op   0 B/op   0 allocs/op
pat = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:\s+[\d.]+ queries/s)?"
    r"(?:\s+(\d+) B/op\s+(\d+) allocs/op)?"
)
bench = {}
fleet_qps = 0.0
for line in open(raw):
    # BenchmarkFleetRun reports a custom queries/s metric — the headline
    # fleet step rate. Keep the best sample (least scheduler noise).
    q = re.search(r"([\d.]+) queries/s", line)
    if q:
        fleet_qps = max(fleet_qps, float(q.group(1)))
    m = pat.match(line)
    if not m:
        continue
    name, ns = m.group(1), float(m.group(2))
    e = bench.setdefault(
        name,
        {"ns_per_op_min": ns, "ns_per_op_sum": 0.0, "samples": 0,
         "bytes_per_op": 0, "allocs_per_op": 0},
    )
    e["ns_per_op_min"] = min(e["ns_per_op_min"], ns)
    e["ns_per_op_sum"] += ns
    e["samples"] += 1
    if m.group(3) is not None:
        e["bytes_per_op"] = int(m.group(3))
        e["allocs_per_op"] = int(m.group(4))

for e in bench.values():
    e["ns_per_op_mean"] = round(e.pop("ns_per_op_sum") / e["samples"], 3)

doc = {
    "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git": git_rev,
    "go": go_version,
    "mode": mode,
    "benchmarks": dict(sorted(bench.items())),
}
if withfig6 == "1":
    doc["fig6_wall_clock_seconds"] = float(fig6)
# The surrogate fast path's headline number: how many times cheaper one
# surrogate plan evaluation is than one full testbed replay of the same
# plan (default query count). Setup (curves + per-way anchor
# calibrations) is a one-time cost reported separately via
# BenchmarkSearcherSetup and amortises over the whole sweep.
sur = bench.get("BenchmarkSurrogateEvaluate")
rep = bench.get("BenchmarkTestbedReplayPlan")
if sur and rep and sur["ns_per_op_min"] > 0:
    doc["surrogate_speedup_vs_replay"] = round(
        rep["ns_per_op_min"] / sur["ns_per_op_min"], 1)
if fleet_qps > 0:
    doc["fleet_queries_per_second"] = round(fleet_qps, 1)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
PYEOF
}

emit_json "$RAW_CACHE" "$CACHE_OUT" 1
emit_json "$RAW_FOREST" "$FOREST_OUT" 0
emit_json "$RAW_QUEUE" "$QUEUE_OUT" 0
emit_json "$RAW_MRC" "$MRC_OUT" 0
emit_json "$RAW_FLEET" "$FLEET_OUT" 0

# BENCH_serve.json: the three loadgen scenarios verbatim, plus the usual
# metadata. closed_cached is the headline serving capacity (prediction
# cache hot); closed_cold is the model-bound batched path; open is tail
# latency at a fixed offered load.
python3 - "$SERVE_DIR" "$SERVE_OUT" "$MODE" "$GIT_REV" "$GO_VERSION" <<'PYEOF'
import json
import sys
import time

d, out, mode, git_rev, go_version = sys.argv[1:6]
doc = {
    "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git": git_rev,
    "go": go_version,
    "mode": mode,
    "loadgen": {
        name: json.load(open(f"{d}/{name}.json"))
        for name in ("closed_cached", "closed_cold", "open")
    },
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
PYEOF

# --compare: render the per-benchmark delta tables. ns/op compares the
# per-benchmark minimum (least scheduler noise); memory columns only show
# when they changed. Informational only — the CI bench job is non-blocking.
compare_json() { # <baseline tmp> <current out> <committed name>
    local baseline=$1 current=$2 name=$3
    [[ -n "$baseline" ]] || return 0
    echo
    echo "== delta vs committed baseline (HEAD:$name) =="
    python3 - "$baseline" "$current" <<'PYEOF'
import json
import sys

base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
bb, cb = base.get("benchmarks", {}), cur.get("benchmarks", {})

print(f"baseline: {base.get('git', '?')} ({base.get('go', '?')}, {base.get('mode', '?')} mode)")
print(f"current:  {cur.get('git', '?')} ({cur.get('go', '?')}, {cur.get('mode', '?')} mode)")
print()
print("| benchmark | baseline ns/op | current ns/op | delta | alloc change |")
print("|---|---|---|---|---|")
for name in sorted(set(bb) | set(cb)):
    b, c = bb.get(name), cb.get(name)
    if b is None or c is None:
        status = "added" if b is None else "removed"
        print(f"| {name} | {'—' if b is None else b['ns_per_op_min']} "
              f"| {'—' if c is None else c['ns_per_op_min']} | {status} | |")
        continue
    b_ns, c_ns = b["ns_per_op_min"], c["ns_per_op_min"]
    delta = (c_ns - b_ns) / b_ns * 100 if b_ns else 0.0
    mem = ""
    if (b.get("bytes_per_op"), b.get("allocs_per_op")) != (c.get("bytes_per_op"), c.get("allocs_per_op")):
        mem = (f"{b.get('bytes_per_op', 0)}B/{b.get('allocs_per_op', 0)} -> "
               f"{c.get('bytes_per_op', 0)}B/{c.get('allocs_per_op', 0)}")
    print(f"| {name} | {b_ns:.2f} | {c_ns:.2f} | {delta:+.1f}% | {mem} |")

bw, cw = base.get("fig6_wall_clock_seconds"), cur.get("fig6_wall_clock_seconds")
if bw and cw:
    print(f"| fig6 wall clock | {bw:.2f}s | {cw:.2f}s | {(cw - bw) / bw * 100:+.1f}% | |")
bs, cs = base.get("surrogate_speedup_vs_replay"), cur.get("surrogate_speedup_vs_replay")
if bs and cs:
    print(f"| surrogate speedup vs replay | {bs}x | {cs}x | {(cs - bs) / bs * 100:+.1f}% | |")
bq, cq = base.get("fleet_queries_per_second"), cur.get("fleet_queries_per_second")
if bq and cq:
    print(f"| fleet queries/s | {bq:.0f} | {cq:.0f} | {(cq - bq) / bq * 100:+.1f}% | |")
# Fleet allocation budget: the machine-reuse fast path is pinned by
# allocs/op on the whole-run benchmark, not just ns/op (which is noisy
# on shared runners).
bf = bb.get("BenchmarkFleetRun", {}).get("allocs_per_op")
cf = cb.get("BenchmarkFleetRun", {}).get("allocs_per_op")
if bf and cf:
    print(f"| fleet run allocs/op | {bf} | {cf} | {(cf - bf) / bf * 100:+.1f}% | |")
PYEOF
    rm -f "$baseline"
}

compare_json "$CACHE_BASELINE" "$CACHE_OUT" BENCH_cache.json
compare_json "$FOREST_BASELINE" "$FOREST_OUT" BENCH_forest.json
compare_json "$QUEUE_BASELINE" "$QUEUE_OUT" BENCH_queueing.json
compare_json "$MRC_BASELINE" "$MRC_OUT" BENCH_mrc.json
compare_json "$FLEET_BASELINE" "$FLEET_OUT" BENCH_fleet.json

# compare_serve_json renders the loadgen delta table: achieved QPS and
# p99 per scenario. Higher QPS is better (positive delta), lower p99 is
# better (negative delta) — unlike the ns/op tables above.
compare_serve_json() { # <baseline tmp> <current out>
    local baseline=$1 current=$2
    [[ -n "$baseline" ]] || return 0
    echo
    echo "== delta vs committed baseline (HEAD:BENCH_serve.json) =="
    python3 - "$baseline" "$current" <<'PYEOF'
import json
import sys

base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
bl, cl = base.get("loadgen", {}), cur.get("loadgen", {})

print(f"baseline: {base.get('git', '?')} ({base.get('go', '?')}, {base.get('mode', '?')} mode)")
print(f"current:  {cur.get('git', '?')} ({cur.get('go', '?')}, {cur.get('mode', '?')} mode)")
print()
print("| scenario | baseline qps | current qps | qps delta | baseline p99 ms | current p99 ms | p99 delta |")
print("|---|---|---|---|---|---|---|")
for name in sorted(set(bl) | set(cl)):
    b, c = bl.get(name), cl.get(name)
    if b is None or c is None:
        status = "added" if b is None else "removed"
        print(f"| {name} | — | — | {status} | — | — | |")
        continue
    dq = (c["qps"] - b["qps"]) / b["qps"] * 100 if b["qps"] else 0.0
    dp = (c["p99_ms"] - b["p99_ms"]) / b["p99_ms"] * 100 if b["p99_ms"] else 0.0
    print(f"| {name} | {b['qps']:.0f} | {c['qps']:.0f} | {dq:+.1f}% "
          f"| {b['p99_ms']:.3f} | {c['p99_ms']:.3f} | {dp:+.1f}% |")
PYEOF
    rm -f "$baseline"
}

compare_serve_json "$SERVE_BASELINE" "$SERVE_OUT"
