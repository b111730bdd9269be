#!/bin/sh
# Load-generator smoke: run the single-server callers of the load
# generator and the service-time probe end to end, and check each
# prints its latency table:
#
#   1. load_test 0.5 — replay mode: measured service times through
#      dcsim::simulateQueueEmpirical's virtual-time queue;
#   2. load_test --real --requests 20 0.5 — a live ConcurrentServer
#      under the open-loop and closed-loop generators;
#   3. bench_fig17_mm1_load --measured — measured vs replayed vs M/M/1
#      sojourn. It exits nonzero when the fully sampled run drops spans
#      from the trace ring (sirius_trace_dropped_total must stay 0).
#
# The cluster callers (load_test --shards) are covered by
# cluster_smoke.sh and slo_smoke.sh. CI runs this after the tier-1
# build (see scripts/check.sh).
set -eu

cd "$(dirname "$0")/.."
load_test=./build/examples/load_test
fig17=./build/bench/bench_fig17_mm1_load
for bin in "$load_test" "$fig17"; do
    if [ ! -x "$bin" ]; then
        echo "load_smoke: $bin not built (run cmake --build build first)"
        exit 1
    fi
done

out="$(mktemp /tmp/sirius_load_smoke.XXXXXX)"
trap 'rm -f "$out"' EXIT

# expect <label> <pattern>: the last run's output must contain pattern.
status=0
expect() {
    if ! grep -q -- "$2" "$out"; then
        echo "load_smoke: FAIL — $1 printed no '$2' line"
        status=1
    fi
}

"$load_test" 0.5 | tee "$out"
expect "load_test replay mode" "offered qps.*mean latency.*p99 latency"

"$load_test" --real --requests 20 0.5 | tee "$out"
expect "load_test --real" "mean sojrn.*p99 sojrn.*shed"
expect "load_test --real" "^closed loop"

if ! "$fig17" --measured | tee "$out"; then
    echo "load_smoke: FAIL — bench_fig17_mm1_load --measured exited" \
         "nonzero (dropped trace spans?)"
    status=1
fi
expect "bench_fig17_mm1_load --measured" "measured mean.*replay mean"

if [ "$status" = "0" ]; then
    echo "load_smoke: OK (replay, real and fig17 measured runs)"
fi
exit "$status"
