#!/usr/bin/env bash
# difftest.sh — replay full experiment access streams through both cache
# implementations (the packed SWAR simulator in internal/cache and the
# naive reference model in internal/oracle) and fail on the first
# divergence in hit/miss results, per-CLOS statistics, recorder events,
# occupancy or resident-line content.
#
# This is the heavyweight entry point to the differential harness: the
# regular test suite replays ~1.9M accesses; this script scales the same
# tests up for pre-merge confidence on simulator changes.
#
# Usage:
#   scripts/difftest.sh            standard sweep (~10M accesses)
#   scripts/difftest.sh -quick     test-suite-sized sweep (~1.9M accesses)
#   scripts/difftest.sh -fuzz      standard sweep, then 2 minutes of
#                                  coverage-guided fuzzing per target
#   scripts/difftest.sh -surrogate surrogate-vs-simulator sweep only: the
#                                  surrogate search's differential gates
#                                  (anchor identity, Figure-8 top-k vs
#                                  exhaustive testbed measurement)
#
# Environment:
#   STAC_DIFFTEST_ACCESSES  override the per-test access budget
#   DIFFTEST_FUZZTIME       per-target fuzz budget with -fuzz (default 2m)
set -euo pipefail
cd "$(dirname "$0")/.."

ACCESSES=${STAC_DIFFTEST_ACCESSES:-}
FUZZ=0
SURROGATE_ONLY=0
case "${1:-}" in
-quick)
    ACCESSES=${ACCESSES:-}
    ;;
-fuzz)
    FUZZ=1
    ACCESSES=${ACCESSES:-10000000}
    ;;
-surrogate)
    SURROGATE_ONLY=1
    ;;
"")
    ACCESSES=${ACCESSES:-10000000}
    ;;
*)
    echo "usage: scripts/difftest.sh [-quick|-fuzz|-surrogate]" >&2
    exit 2
    ;;
esac

run() {
    echo "== $* =="
    "$@"
}

export STAC_DIFFTEST_ACCESSES="$ACCESSES"

# Surrogate-vs-simulator sweep: the analytical model against its
# solo-calibration ground truth, and the surrogate ranking against
# exhaustive testbed measurement of the Figure-8 grid. Runs standalone
# with -surrogate and rides along with the full sweep otherwise.
run_surrogate() {
    run go test ./internal/surrogate/ -count=1 -timeout 30m -v \
        -run 'TestModelMatchesSoloCalibration|TestFigure8TopKContainsBest|TestValidateTopPlans'
}
if [[ "$SURROGATE_ONLY" == 1 ]]; then
    run_surrogate
    echo "difftest: surrogate sweep clean"
    exit 0
fi

echo "differential access budget per test: ${ACCESSES:-suite default}"

# Randomized-geometry sweeps: single caches and full hierarchies.
run go test ./internal/oracle/ -count=1 -timeout 60m -v \
    -run 'TestDifferentialRandomizedConfigs|TestDifferentialRandomizedHierarchies'

# Experiment-shaped streams: Table 1 kernel pairs on the production
# geometry with chain-planned CAT masks and STAP boost switching.
run go test ./internal/oracle/ -count=1 -timeout 60m -v \
    -run 'TestDifferentialExperimentStreams'

# Minimized regressions and the recorder reconciliation layer.
run go test ./internal/cache/ -count=1 -run 'TestRegression' -v
run go test ./internal/oracle/ -count=1 -run 'TestCacheRecorder' -v

# Concurrency stress under the race detector.
run go test -race ./internal/oracle/ -count=1 -timeout 30m -run 'TestStress'

# Surrogate fast path against the simulator it replaces.
run_surrogate

if [[ "$FUZZ" == 1 ]]; then
    FUZZTIME=${DIFFTEST_FUZZTIME:-2m}
    run go test ./internal/oracle/ -run '^$' -fuzz '^FuzzCacheVsOracle$' -fuzztime "$FUZZTIME"
    run go test ./internal/oracle/ -run '^$' -fuzz '^FuzzHierarchyInclusion$' -fuzztime "$FUZZTIME"
    run go test ./internal/cat/ -run '^$' -fuzz '^FuzzCATLayout$' -fuzztime "$FUZZTIME"
fi

echo "difftest: zero divergence"
