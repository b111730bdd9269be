#!/bin/sh
# Repo check: the tier-1 suite plus a TSan pass over the concurrent
# tests. This is the command CI (and a pre-push human) should run.
#
#   scripts/check.sh            # tier-1 + TSan concurrent tests
#   SKIP_TSAN=1 scripts/check.sh  # tier-1 only
#
# Trees match CMakePresets.json: build/ (default) and build-tsan/.
set -eu

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> lint: metric naming conventions (scripts/lint_metrics.sh)"
scripts/lint_metrics.sh

echo "==> lint: docs links + documented metrics (scripts/lint_docs.sh)"
scripts/lint_docs.sh

echo "==> tier-1: configure + build + full test suite (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "==> goldens: end-to-end fixtures are in sync (tests/golden/)"
# The golden test itself ran under ctest above; this catches the other
# drift direction — a regenerated fixture that was never committed, or
# local edits to tests/golden/ that no code change explains.
if command -v git >/dev/null 2>&1 && [ -d .git ]; then
    if ! git diff --quiet -- tests/golden/; then
        echo "tests/golden/ differs from the committed fixtures:"
        git --no-pager diff --stat -- tests/golden/
        echo "(commit the regenerated goldens with the change that"
        echo " caused them, or revert them — see scripts/regen_goldens.sh)"
        exit 1
    fi
fi
echo "goldens: OK"

echo "==> exporters: trace_report smoke run on a generated trace"
trace_tmp="$(mktemp /tmp/sirius_trace.XXXXXX.jsonl)"
trap 'rm -f "$trace_tmp"' EXIT
# A hand-written three-span trace (root + queue wait + one stage) in
# the writeTraceJsonl format; trace_report must parse it and print the
# attribution table.
cat > "$trace_tmp" <<'EOF'
{"trace":1,"span":2,"parent":1,"kind":"queue_wait","name":"queue_wait","start_s":0.000000000,"dur_s":0.010000000,"attrs":{}}
{"trace":1,"span":3,"parent":1,"kind":"stage","name":"asr","start_s":0.010000000,"dur_s":0.080000000,"attrs":{"cut_short":"0"}}
{"trace":1,"span":1,"parent":0,"kind":"query","name":"query","start_s":0.000000000,"dur_s":0.100000000,"attrs":{"type":"vq","degradation":"none","text":"smoke test"}}
EOF
report="$(./build/examples/trace_report "$trace_tmp" --slowest 1)"
echo "$report" | grep -q "1 traces (1 with a root span" || {
    echo "trace_report smoke run failed:"; echo "$report"; exit 1; }
echo "$report" | grep -q "queue wait" || {
    echo "trace_report printed no attribution table"; exit 1; }
echo "trace_report smoke run: OK"

echo "==> sim: virtual-time chaos drill + fuzz corpus replay (scripts/sim_drill.sh)"
scripts/sim_drill.sh

echo "==> cluster: shard-outage smoke drill (scripts/cluster_smoke.sh)"
scripts/cluster_smoke.sh

echo "==> slo: fault-injection drill with burn-rate alerts (scripts/slo_smoke.sh)"
scripts/slo_smoke.sh

echo "==> load: replay, real and fig17 load-generator smokes (scripts/load_smoke.sh)"
scripts/load_smoke.sh

if [ "${SKIP_TSAN:-0}" = "1" ]; then
    echo "==> SKIP_TSAN=1: skipping the ThreadSanitizer pass"
    exit 0
fi

echo "==> TSan: concurrent server + robustness tests (build-tsan/)"
cmake -B build-tsan -S . -DSIRIUS_SANITIZE=thread >/dev/null
# Only the binaries the TSan gate needs — a full sanitized build of the
# bench/example targets would double the check's wall time for no
# additional thread coverage.
cmake --build build-tsan -j "$jobs" \
    --target test_server test_robustness test_common test_observability \
             test_batching test_cache test_cluster test_slo \
             test_sim test_fuzzer
(cd build-tsan &&
     ctest --output-on-failure -j "$jobs" \
           -R "Server|Robustness|Deadline|FaultInjector|LatencyHistogram|Profiler|ThreadPool|ParallelFor|Trace|Metrics|Observability|Batch|ManualTime|Cache|Zipf|ShardedLru|Cluster|RoutingPolicy|FleetProjection|ShardedQueueing|Slo|EventLog|FlightRecorder|CriticalPath|VirtualExecutor|SimCluster|ChaosDrill|Trial|PropertyFuzzer|ClockSeams|SeamFixture")

echo "==> all checks passed"
