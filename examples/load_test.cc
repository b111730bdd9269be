/**
 * @file
 * Leaf-server load test: the Section-3 characterization from the
 * operator's seat. Builds one Sirius leaf node, measures its capacity,
 * then sweeps offered load and reports latency inflation — the lived
 * experience of the queueing model behind Figure 17.
 *
 * Two modes:
 *   replay (default) — service times measured once, queue evolution by a
 *       virtual-time Lindley recursion (dcsim::simulateQueueEmpirical;
 *       fast, deterministic);
 *   real — a core::ConcurrentServer executes every request on worker
 *       threads while the open-loop generator submits Poisson arrivals
 *       in real time (slow, but actually concurrent).
 *
 * Real mode optionally applies the robustness policy: a per-query
 * deadline anchored at admission (queueing burns the budget) and a
 * seeded fault injector, with shed/degraded/deadline-miss counts
 * reported per load level. Try:
 *
 *   load_test --real --deadline-ms 200 --fault-rate 0.05
 *
 * Usage: ./build/examples/load_test [options] [max-load-fraction]
 *   --real            drive real pipeline executions (default: replay)
 *   --workers N       worker threads in --real mode        (default 4)
 *   --queue N         request-queue capacity in --real mode (default 64)
 *   --requests N      requests per load level in --real mode (default 150)
 *   --deadline-ms D   per-query latency budget from admission (default off)
 *   --fault-rate R    per-stage failure probability in [0,1] (default 0)
 *   --fault-seed S    fault-injector seed     (default: FaultConfig's)
 *   --retries N       stage retries before degrading        (default 1
 *                     when faults are on, else 0)
 *
 * Batching (--real mode; see docs/ARCHITECTURE.md "Batching"):
 *   --batch-size N    close a kernel batch at N items       (default 8)
 *   --batch-wait-us U close a partial batch after U µs      (default 200)
 *   --no-batching     serial kernels, for a before/after baseline
 *
 * Caching (--real mode; see docs/CACHING.md):
 *   --cache           enable the per-layer result caches (default off)
 *   --cache-bytes N   byte budget per cache            (default 64 MiB)
 *   --cache-ttl-ms T  entry time-to-live in ms          (default: none)
 *   --cache-shards N  mutex stripes per cache               (default 8)
 *   --no-cache        force caching off (overrides other cache flags)
 *   --zipf S          Zipf(S)-skewed query selection instead of round
 *                     robin (S = 1.0 is the classic skew; caches need
 *                     repetition to hit, and skew is what real
 *                     assistant traffic looks like)
 *
 * Observability (--real mode):
 *   --trace-out F     append per-query spans to F as JSONL
 *   --trace-sample R  head sampling rate in [0,1] (default 1 when
 *                     --trace-out is given, else 0)
 *   --metrics-out F   write the merged metrics registry to F in
 *                     Prometheus text exposition format
 *   --metrics-csv F   write the merged metrics registry to F as CSV
 *   --log-level L     log threshold: debug|info|warn|error
 *
 * SLO engine + flight recorder (--real mode; docs/OBSERVABILITY.md):
 *   --slo             track SLOs — availability 99.9% plus latency p99
 *                     under the deadline (250 ms when no deadline is
 *                     set) — with multi-window burn-rate alerts
 *   --slo-scale S     multiply every alert window by S, shrinking the
 *                     production 5m/1h + 6h/3d pairs to drill scale
 *                     (default 1; implies --slo)
 *   --slo-report      print the per-objective SLO report at the end
 *                     (windows, burn rates, alert transitions;
 *                     implies --slo)
 *   --events-out F    write the structured event log (alert fire and
 *                     clear, shard eject/recover/kill/revive, drill
 *                     switches, flight dumps) to F as JSONL
 *   --flight-out F    keep whole traces of the slowest + sampled
 *                     queries in the flight recorder and dump them to
 *                     F as JSONL on every alert fire and at exit
 *   --kill-mode M     what --kill-shard-at does: admin (clean drain,
 *                     the default) or fault (the shard stays routable
 *                     and fails queries loudly, so ejection and the
 *                     SLO burn-rate alerts see the outage)
 *
 * Scale-out (implies --real; see docs/SCALING.md):
 *   --shards M        route across M replicated shards, each its own
 *                     queue + workers + batcher + caches (default: the
 *                     single-server sweeps above)
 *   --policy P        routing policy: rr|least|p2c|affinity
 *                     (default least)
 *   --hedge-ms H      send a hedged copy of a query still outstanding
 *                     after H ms to a second shard (default off)
 *   --kill-shard-at K outage drill: administratively kill a shard just
 *                     before closed-loop request K (1-based; default off)
 *   --kill-shard I    which shard the drill kills (default 0)
 *   --revive-shard-at R revive the killed shard before request R
 *                     (default: stays dead)
 *
 * Feed the trace to the analyzer:
 *   load_test --real --trace-out t.jsonl --metrics-out m.prom
 *   trace_report t.jsonl
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/fault_injection.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/trace.h"
#include "core/load_generator.h"
#include "dcsim/simulation.h"

using namespace sirius;
using namespace sirius::core;

namespace {

/**
 * The outage drill: kill shard `shard` just before closed-loop request
 * `killAt` (1-based; 0 disables) and revive it at `reviveAt` (0: stays
 * dead). `byFault` arms the shard's fault injector instead of an admin
 * kill, so the shard fails queries loudly (--kill-mode fault).
 */
struct Drill
{
    size_t killAt = 0;
    size_t shard = 0;
    size_t reviveAt = 0;
    bool byFault = false;
};

/** Exporter destinations shared by every server the sweep creates. */
struct Observability
{
    std::string traceOut;
    std::string metricsOut;
    std::string metricsCsv;
    std::string eventsOut;
    std::string flightOut;
    double sampleRate = 0.0;
    MetricsRegistry registry;
    bool traceFileStarted = false;

    /** The SLO plane; null members mean the feature is off. */
    SloTracker *slo = nullptr;
    EventLog *events = nullptr;
    FlightRecorder *flight = nullptr;

    /** Drain one server's collector and registry into the sinks. */
    void
    collect(const ConcurrentServer &server)
    {
        server.exportMetrics(registry);
        if (traceOut.empty())
            return;
        const auto spans = server.traces().snapshot();
        if (spans.empty())
            return;
        // First write truncates any stale file; later levels append.
        writeTraceJsonl(traceOut, spans, traceFileStarted);
        traceFileStarted = true;
    }

    /** Cluster variant: fleet metrics plus router and shard spans. */
    void
    collect(const ClusterRouter &router)
    {
        router.exportMetrics(registry);
        if (traceOut.empty())
            return;
        std::vector<SpanRecord> spans = router.traces().snapshot();
        for (size_t i = 0; i < router.shardCount(); ++i) {
            const auto leaf =
                router.shard(i).server().traces().snapshot();
            spans.insert(spans.end(), leaf.begin(), leaf.end());
        }
        if (spans.empty())
            return;
        writeTraceJsonl(traceOut, spans, traceFileStarted);
        traceFileStarted = true;
    }

    void
    flush()
    {
        // The single-server sweeps never export the SLO plane through a
        // router, so fold it into the registry here (the delta-add
        // export idiom makes re-export after a cluster sweep a no-op).
        if (slo != nullptr)
            slo->exportTo(registry);
        if (events != nullptr)
            events->exportTo(registry);
        if (flight != nullptr)
            flight->exportTo(registry);
        if (!metricsOut.empty()) {
            std::FILE *f = std::fopen(metricsOut.c_str(), "w");
            if (f != nullptr) {
                const std::string text = registry.renderPrometheus();
                std::fwrite(text.data(), 1, text.size(), f);
                std::fclose(f);
                std::printf("wrote metrics to %s\n", metricsOut.c_str());
            }
        }
        if (!metricsCsv.empty()) {
            std::FILE *f = std::fopen(metricsCsv.c_str(), "w");
            if (f != nullptr) {
                const std::string text = registry.renderCsv();
                std::fwrite(text.data(), 1, text.size(), f);
                std::fclose(f);
                std::printf("wrote metrics CSV to %s\n",
                            metricsCsv.c_str());
            }
        }
        if (!traceOut.empty())
            std::printf("wrote trace spans to %s (analyze with "
                        "trace_report %s)\n", traceOut.c_str(),
                        traceOut.c_str());
        if (events != nullptr && !eventsOut.empty() &&
            events->writeJsonl(eventsOut))
            std::printf("wrote %zu events to %s\n",
                        events->snapshot().size(), eventsOut.c_str());
        if (flight != nullptr) {
            const auto stats = flight->stats();
            std::printf("flight: offered %llu, kept %llu (slowest %zu, "
                        "sample %zu retained), merged %llu, evicted "
                        "%llu, %.1f KiB\n",
                        static_cast<unsigned long long>(stats.offered),
                        static_cast<unsigned long long>(stats.kept),
                        stats.slowestCount, stats.sampleCount,
                        static_cast<unsigned long long>(stats.merged),
                        static_cast<unsigned long long>(stats.evicted),
                        static_cast<double>(stats.bytes) / 1024.0);
            if (!flightOut.empty() && flight->dumpJsonl(flightOut))
                std::printf("wrote flight traces to %s (analyze with "
                            "trace_report %s)\n", flightOut.c_str(),
                            flightOut.c_str());
        }
    }
};

/** The --slo-report body: every objective, window, and alert. */
void
printSloReport(const SloTracker &tracker)
{
    const SloSnapshot snap = tracker.snapshot();
    std::printf("\nslo report:\n");
    for (const SloObjectiveStatus &objective : snap.objectives) {
        const double lifetime = objective.total > 0
            ? static_cast<double>(objective.good) /
                static_cast<double>(objective.total)
            : 1.0;
        std::printf("slo[%s]: target %.4f%%, lifetime good %llu/%llu "
                    "(%.4f%%)\n", objective.objective.c_str(),
                    objective.target * 100.0,
                    static_cast<unsigned long long>(objective.good),
                    static_cast<unsigned long long>(objective.total),
                    lifetime * 100.0);
        for (const SloWindowStatus &window : objective.windows)
            std::printf("slo[%s] window %s: good %.4f%%, burn %.2f\n",
                        objective.objective.c_str(),
                        window.window.c_str(), window.goodRatio * 100.0,
                        window.burnRate);
        for (const SloAlertStatus &alert : objective.alerts)
            std::printf("slo[%s] alert %s: %s, fires %llu, clears "
                        "%llu\n", objective.objective.c_str(),
                        alert.alert.c_str(),
                        alert.firing ? "FIRING" : "ok",
                        static_cast<unsigned long long>(alert.fires),
                        static_cast<unsigned long long>(alert.clears));
    }
}

void
replaySweep(const SampleStats &service, double max_load)
{
    const double capacity = 1.0 / service.mean();
    std::printf("%-12s %12s %14s %14s %14s\n", "load", "offered qps",
                "mean latency", "p95 latency", "p99 latency");
    for (double rho = 0.1; rho <= max_load + 1e-9; rho += 0.2) {
        const double lambda = rho * capacity;
        const auto result =
            dcsim::simulateQueueEmpirical(service.samples(), lambda, 5000);
        std::printf("%-12.1f %12.1f %12.2fms %12.2fms %12.2fms\n", rho,
                    lambda,
                    result.sojournSeconds.mean() * 1e3,
                    result.sojournSeconds.percentile(95) * 1e3,
                    result.sojournSeconds.percentile(99) * 1e3);
    }
}

/** One per-layer line of the cache summary. */
void
printCacheLine(const char *name, const CacheStats &stats)
{
    std::printf("cache[%s]: %llu lookups, %llu hits (%.0f%% hit rate), "
                "%llu insertions, %llu evictions, %llu entries, "
                "%.1f KiB\n", name,
                static_cast<unsigned long long>(stats.lookups()),
                static_cast<unsigned long long>(stats.hits),
                stats.hitRate() * 100.0,
                static_cast<unsigned long long>(stats.insertions),
                static_cast<unsigned long long>(stats.evictedLru +
                                                stats.evictedExpired),
                static_cast<unsigned long long>(stats.entries),
                static_cast<double>(stats.bytes) / 1024.0);
}

void
realSweep(const SiriusPipeline &pipeline, double capacity,
          double max_load, ConcurrentServerConfig config,
          size_t requests, double zipf_skew, Observability &obs)
{
    config.traceSampleRate = obs.sampleRate;
    LoadOptions load;
    load.zipfSkew = zipf_skew;
    std::printf("real executions: %zu workers, queue capacity %zu, %zu "
                "requests per level\n", config.workers,
                config.queueCapacity, requests);
    if (config.batching.enabled)
        std::printf("batching: up to %zu queries per kernel call, "
                    "%.0f us window (--no-batching for the serial "
                    "baseline)\n", config.batching.maxBatchSize,
                    config.batching.maxWaitSeconds * 1e6);
    else
        std::printf("batching: disabled (serial kernels)\n");
    if (config.cache.enabled)
        std::printf("caching: %zu shards, %.0f MiB budget per cache%s "
                    "(--no-cache for the uncached baseline)\n",
                    config.cache.shards,
                    static_cast<double>(config.cache.byteBudget) /
                        (1024.0 * 1024.0),
                    config.cache.ttlSeconds > 0.0 ? ", TTL on" : "");
    if (zipf_skew > 0.0)
        std::printf("queries: Zipf(%.2f)-skewed over the standard set\n",
                    zipf_skew);
    if (config.deadlineSeconds > 0.0)
        std::printf("deadline: %.0f ms per query from admission\n",
                    config.deadlineSeconds * 1e3);
    if (config.faults != nullptr && config.faults->enabled())
        std::printf("faults: stage failure rate %.2f, seed %llu, "
                    "%d retr%s before degrading\n",
                    config.faults->config().failureRate,
                    static_cast<unsigned long long>(
                        config.faults->config().seed),
                    config.retry.maxRetries,
                    config.retry.maxRetries == 1 ? "y" : "ies");
    std::printf("%-8s %10s %12s %12s %12s %6s %9s %7s\n", "load",
                "offered", "mean sojrn", "p95 sojrn", "p99 sojrn",
                "shed", "degraded", "missed");
    size_t level = 0;
    for (double rho = 0.1; rho <= max_load + 1e-9; rho += 0.2) {
        // Load is per worker: rho * capacity saturates one worker.
        const double lambda =
            rho * capacity * static_cast<double>(config.workers);
        // Distinct id blocks per level keep the shared JSONL unambiguous.
        config.traceIdOffset = 1000000 * static_cast<uint64_t>(++level);
        ConcurrentServer server(pipeline, config);
        const auto result = runOpenLoop(server, lambda, requests, load);
        obs.collect(server);
        std::printf("%-8.1f %8.1fqps %10.2fms %10.2fms %10.2fms %6llu "
                    "%9llu %7llu\n",
                    rho, result.offeredQps,
                    result.sojournSeconds.mean() * 1e3,
                    result.sojournSeconds.percentile(95) * 1e3,
                    result.sojournSeconds.percentile(99) * 1e3,
                    static_cast<unsigned long long>(result.rejected),
                    static_cast<unsigned long long>(result.degraded),
                    static_cast<unsigned long long>(
                        result.deadlineMisses));
    }

    // One closed-loop run for contrast: per-session latency when every
    // user waits for their answer before asking again.
    config.traceIdOffset = 1000000 * static_cast<uint64_t>(level + 1);
    ConcurrentServer server(pipeline, config);
    const auto closed = runClosedLoop(
        server, config.workers, requests / config.workers, load);
    std::printf("\nclosed loop (%zu blocking clients): %.1f qps served, "
                "mean latency %.2f ms\n", config.workers,
                closed.achievedQps, closed.sojournSeconds.mean() * 1e3);
    obs.collect(server);

    const auto stats = server.snapshot();
    std::printf("per-stage p50/p95/p99 (ms): asr %.1f/%.1f/%.1f   "
                "qa %.1f/%.1f/%.1f   imm %.1f/%.1f/%.1f\n",
                stats.server.asrSeconds.p50() * 1e3,
                stats.server.asrSeconds.p95() * 1e3,
                stats.server.asrSeconds.p99() * 1e3,
                stats.server.qaSeconds.p50() * 1e3,
                stats.server.qaSeconds.p95() * 1e3,
                stats.server.qaSeconds.p99() * 1e3,
                stats.server.immSeconds.p50() * 1e3,
                stats.server.immSeconds.p95() * 1e3,
                stats.server.immSeconds.p99() * 1e3);
    if (config.batching.enabled) {
        for (size_t k = 0; k < kBatchKernels; ++k) {
            const auto &batch = stats.batching.kernels[k];
            if (batch.batches == 0)
                continue;
            std::printf("batch[%s]: %llu batches, %llu items, mean "
                        "occupancy %.2f, mean wait %.0f us\n",
                        batchKernelName(static_cast<BatchKernel>(k)),
                        static_cast<unsigned long long>(batch.batches),
                        static_cast<unsigned long long>(batch.items),
                        batch.meanOccupancy(),
                        batch.waitSeconds.mean() * 1e6);
        }
    }
    if (config.cache.enabled) {
        printCacheLine("acoustic_scores", stats.caches.acousticScores);
        printCacheLine("answers", stats.caches.answers);
        printCacheLine("matches", stats.caches.matches);
    }
    if (stats.server.degraded + stats.server.failed +
            stats.server.deadlineMisses > 0) {
        std::printf("degradation ladder: viq->vq %llu, vq->vc %llu, "
                    "viq->vc %llu, failed %llu; %llu deadline misses, "
                    "%llu stage retries\n",
                    static_cast<unsigned long long>(
                        stats.server.degradationCounts[1]),
                    static_cast<unsigned long long>(
                        stats.server.degradationCounts[2]),
                    static_cast<unsigned long long>(
                        stats.server.degradationCounts[3]),
                    static_cast<unsigned long long>(
                        stats.server.degradationCounts[4]),
                    static_cast<unsigned long long>(
                        stats.server.deadlineMisses),
                    static_cast<unsigned long long>(
                        stats.server.stageRetries));
    }
}

/**
 * Scale-out sweep: the realSweep shape against a ClusterRouter, then a
 * closed-loop run carrying the optional outage drill, then the fleet
 * summary the smoke script greps ("fleet: ... failed N ...").
 */
void
clusterSweep(const SiriusPipeline &pipeline, double capacity,
             double max_load, ConcurrentServerConfig shard_config,
             ClusterConfig cluster, size_t requests, double zipf_skew,
             const Drill &drill, Observability &obs)
{
    shard_config.traceSampleRate = obs.sampleRate;
    LoadOptions load;
    load.zipfSkew = zipf_skew;
    cluster.shard = shard_config;
    std::printf("cluster: %zu shards x %zu workers each, policy %s, "
                "hedge %s, failover retries %d\n", cluster.shards,
                shard_config.workers,
                routingPolicyName(cluster.policy),
                cluster.hedgeSeconds > 0.0 ? "on" : "off",
                cluster.failoverRetries);
    if (zipf_skew > 0.0)
        std::printf("queries: Zipf(%.2f)-skewed over the standard set\n",
                    zipf_skew);
    std::printf("%-8s %10s %12s %12s %12s %6s %9s %7s\n", "load",
                "offered", "mean sojrn", "p95 sojrn", "p99 sojrn",
                "shed", "degraded", "missed");
    size_t level = 0;
    for (double rho = 0.1; rho <= max_load + 1e-9; rho += 0.2) {
        // Load is per fleet: rho scales the whole fleet's capacity.
        const double lambda = rho * capacity *
            static_cast<double>(shard_config.workers) *
            static_cast<double>(cluster.shards);
        // Distinct id blocks per level (the router further offsets each
        // shard by 10^7 within the block).
        cluster.shard.traceIdOffset =
            1000000000ULL * static_cast<uint64_t>(++level);
        ClusterRouter router(pipeline, cluster);
        const auto result = runOpenLoop(router, lambda, requests, load);
        obs.collect(router);
        std::printf("%-8.1f %8.1fqps %10.2fms %10.2fms %10.2fms %6llu "
                    "%9llu %7llu\n",
                    rho, result.offeredQps,
                    result.sojournSeconds.mean() * 1e3,
                    result.sojournSeconds.percentile(95) * 1e3,
                    result.sojournSeconds.percentile(99) * 1e3,
                    static_cast<unsigned long long>(result.rejected),
                    static_cast<unsigned long long>(result.degraded),
                    static_cast<unsigned long long>(
                        result.deadlineMisses));
    }

    // Closed loop across the fleet; the outage drill (if any) runs here
    // so failover/ejection/recovery all happen under live traffic.
    cluster.shard.traceIdOffset =
        1000000000ULL * static_cast<uint64_t>(level + 1);
    ClusterRouter router(pipeline, cluster);
    const size_t clients = cluster.shards * shard_config.workers;
    const size_t per_client = std::max<size_t>(1, requests / clients);
    if (drill.killAt != 0)
        std::printf("\ndrill: killing shard %zu (%s mode) before "
                    "request %zu%s\n", drill.shard,
                    drill.byFault ? "fault" : "admin", drill.killAt,
                    drill.reviveAt != 0 ? " (revived later)" : "");
    load.beforeRequest = [&router, drill](size_t seq) {
        if (seq == drill.killAt) {
            if (drill.byFault)
                router.setShardFaults(drill.shard, true);
            else
                router.killShard(drill.shard);
        }
        if (seq == drill.reviveAt) {
            if (drill.byFault)
                router.setShardFaults(drill.shard, false);
            else
                router.reviveShard(drill.shard);
        }
    };
    const auto closed = runClosedLoop(router, clients, per_client, load);
    std::printf("\nclosed loop (%zu blocking clients): %.1f qps served, "
                "mean latency %.2f ms\n", clients, closed.achievedQps,
                closed.sojournSeconds.mean() * 1e3);
    obs.collect(router);

    const auto stats = router.snapshot();
    std::printf("fleet: accepted %llu, rejected %llu, failovers %llu, "
                "hedges %llu (won %llu), ejections %llu, probes %llu, "
                "recoveries %llu, healthy %zu/%zu, failed %llu\n",
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.failovers),
                static_cast<unsigned long long>(stats.hedgesFired),
                static_cast<unsigned long long>(stats.hedgeWins),
                static_cast<unsigned long long>(stats.ejections),
                static_cast<unsigned long long>(stats.probes),
                static_cast<unsigned long long>(stats.recoveries),
                stats.healthyShards, router.shardCount(),
                static_cast<unsigned long long>(
                    stats.outcomes[static_cast<size_t>(
                        Degradation::Failed)]));
    for (size_t i = 0; i < router.shardCount(); ++i) {
        const auto &shard = router.shard(i);
        std::printf("shard %zu: served %llu, healthy %s, ejections "
                    "%llu, admin %s\n", i,
                    static_cast<unsigned long long>(
                        stats.shards[i].server.served),
                    shard.healthy() ? "yes" : "no",
                    static_cast<unsigned long long>(shard.ejections()),
                    shard.adminDown() ? "down" : "up");
    }
    if (shard_config.cache.enabled) {
        printCacheLine("acoustic_scores", stats.caches.acousticScores);
        printCacheLine("answers", stats.caches.answers);
        printCacheLine("matches", stats.caches.matches);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool real = false;
    ConcurrentServerConfig config;
    ClusterConfig cluster;
    cluster.shards = 0; // 0: single-server mode (no cluster)
    Drill drill;
    FaultConfig fault_config;
    bool faults_requested = false;
    int retries = -1; // -1: pick a default after parsing
    size_t requests = 150;
    double max_load = 0.9;
    double zipf_skew = 0.0;
    bool no_cache = false;
    Observability obs;
    double trace_sample = -1.0; // -1: pick a default after parsing
    bool slo_enabled = false;
    bool slo_report = false;
    double slo_scale = 1.0;
    std::string kill_mode = "admin";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--real") == 0)
            real = true;
        else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
            config.workers = static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc)
            config.queueCapacity =
                static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
            requests = static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--deadline-ms") == 0 &&
                 i + 1 < argc)
            config.deadlineSeconds = std::atof(argv[++i]) * 1e-3;
        else if (std::strcmp(argv[i], "--fault-rate") == 0 &&
                 i + 1 < argc) {
            fault_config.failureRate = std::atof(argv[++i]);
            faults_requested = fault_config.failureRate > 0.0;
        } else if (std::strcmp(argv[i], "--fault-seed") == 0 &&
                   i + 1 < argc)
            fault_config.seed =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc)
            retries = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--batch-size") == 0 && i + 1 < argc)
            config.batching.maxBatchSize =
                static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--batch-wait-us") == 0 &&
                 i + 1 < argc)
            config.batching.maxWaitSeconds = std::atof(argv[++i]) * 1e-6;
        else if (std::strcmp(argv[i], "--no-batching") == 0)
            config.batching.enabled = false;
        else if (std::strcmp(argv[i], "--cache") == 0)
            config.cache.enabled = true;
        else if (std::strcmp(argv[i], "--cache-bytes") == 0 &&
                 i + 1 < argc) {
            config.cache.byteBudget =
                static_cast<size_t>(std::atoll(argv[++i]));
            config.cache.enabled = true;
        } else if (std::strcmp(argv[i], "--cache-ttl-ms") == 0 &&
                   i + 1 < argc) {
            config.cache.ttlSeconds = std::atof(argv[++i]) * 1e-3;
            config.cache.enabled = true;
        } else if (std::strcmp(argv[i], "--cache-shards") == 0 &&
                   i + 1 < argc) {
            config.cache.shards =
                static_cast<size_t>(std::atoi(argv[++i]));
            config.cache.enabled = true;
        } else if (std::strcmp(argv[i], "--no-cache") == 0)
            no_cache = true;
        else if (std::strcmp(argv[i], "--zipf") == 0 && i + 1 < argc)
            zipf_skew = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc)
            cluster.shards = static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
            if (!routingPolicyFromName(argv[++i], cluster.policy))
                fatal(std::string("unknown --policy '") + argv[i] +
                      "' (want rr|least|p2c|affinity)");
        } else if (std::strcmp(argv[i], "--hedge-ms") == 0 &&
                   i + 1 < argc)
            cluster.hedgeSeconds = std::atof(argv[++i]) * 1e-3;
        else if (std::strcmp(argv[i], "--kill-shard-at") == 0 &&
                 i + 1 < argc)
            drill.killAt = static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--kill-shard") == 0 &&
                 i + 1 < argc)
            drill.shard = static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--revive-shard-at") == 0 &&
                 i + 1 < argc)
            drill.reviveAt = static_cast<size_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
            obs.traceOut = argv[++i];
        else if (std::strcmp(argv[i], "--trace-sample") == 0 &&
                 i + 1 < argc)
            trace_sample = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--metrics-out") == 0 &&
                 i + 1 < argc)
            obs.metricsOut = argv[++i];
        else if (std::strcmp(argv[i], "--metrics-csv") == 0 &&
                 i + 1 < argc)
            obs.metricsCsv = argv[++i];
        else if (std::strcmp(argv[i], "--slo") == 0)
            slo_enabled = true;
        else if (std::strcmp(argv[i], "--slo-scale") == 0 && i + 1 < argc) {
            slo_scale = std::atof(argv[++i]);
            slo_enabled = true;
        } else if (std::strcmp(argv[i], "--slo-report") == 0) {
            slo_report = true;
            slo_enabled = true;
        } else if (std::strcmp(argv[i], "--events-out") == 0 &&
                   i + 1 < argc)
            obs.eventsOut = argv[++i];
        else if (std::strcmp(argv[i], "--flight-out") == 0 &&
                 i + 1 < argc)
            obs.flightOut = argv[++i];
        else if (std::strcmp(argv[i], "--kill-mode") == 0 &&
                 i + 1 < argc) {
            kill_mode = argv[++i];
            if (kill_mode != "admin" && kill_mode != "fault")
                fatal("unknown --kill-mode '" + kill_mode +
                      "' (want admin|fault)");
        }
        else if (std::strcmp(argv[i], "--log-level") == 0 &&
                 i + 1 < argc) {
            LogLevel level;
            if (logLevelFromName(argv[++i], level))
                setLogLevel(level);
            else
                std::fprintf(stderr, "unknown --log-level '%s' "
                             "(want debug|info|warn|error)\n", argv[i]);
        } else
            max_load = std::atof(argv[i]);
    }
    if (cluster.shards > 0)
        real = true; // the cluster tier only exists in real mode
    config.retry.maxRetries = retries >= 0 ? retries
        : (faults_requested ? 1 : 0);
    if (no_cache)
        config.cache.enabled = false;
    // Tracing defaults on (keep everything) once a sink is named; the
    // flight recorder rides on traced spans, so --flight-out counts.
    obs.sampleRate = trace_sample >= 0.0
        ? trace_sample
        : (obs.traceOut.empty() && obs.flightOut.empty() ? 0.0 : 1.0);
    if (!real && (!obs.traceOut.empty() || !obs.metricsOut.empty() ||
                  !obs.metricsCsv.empty()))
        std::fprintf(stderr, "note: --trace-out/--metrics-out need "
                     "--real (replay mode executes nothing)\n");

    FaultInjector injector(fault_config);
    if (injector.enabled())
        config.faults = &injector;

    // The observability plane. All three outlive every server/router
    // the sweeps create; the drill injector stays disarmed until the
    // drill's kill point flips it.
    EventLog events(1024);
    FlightRecorderConfig flight_config;
    std::unique_ptr<FlightRecorder> flight;
    if (!obs.flightOut.empty()) {
        flight = std::make_unique<FlightRecorder>(flight_config);
        obs.flight = flight.get();
    }
    std::unique_ptr<SloTracker> slo;
    if (slo_enabled) {
        SloConfig slo_config = defaultSloConfig(
            config.deadlineSeconds > 0.0 ? config.deadlineSeconds
                                         : 0.25);
        slo_config.windowScale = slo_scale;
        slo = std::make_unique<SloTracker>(slo_config, &events);
        obs.slo = slo.get();
        if (obs.flight != nullptr) {
            // Alert-triggered dump: capture the slow traces the moment
            // the burn rate says something is wrong.
            SloTracker *tracker = slo.get();
            FlightRecorder *recorder = obs.flight;
            EventLog *log = &events;
            const std::string path = obs.flightOut;
            tracker->setOnFire([tracker, recorder, log, path]() {
                recorder->dumpJsonl(path);
                log->note(tracker->nowSeconds(), "flight_dump",
                          "flight recorder dumped on alert fire",
                          {{"path", path}});
            });
        }
    }
    obs.events = &events;
    FaultConfig drill_fault_config;
    drill_fault_config.failureRate = 1.0;
    FaultInjector drill_injector(drill_fault_config);
    drill_injector.setEnabled(false);
    if (kill_mode == "fault") {
        drill.byFault = true;
        if (cluster.shards == 0)
            fatal("--kill-mode fault needs --shards (the drill is a "
                  "cluster exercise)");
        cluster.shardFaults.assign(cluster.shards, nullptr);
        cluster.shardFaults[drill.shard] = &drill_injector;
    }
    cluster.slo = obs.slo;
    cluster.flight = obs.flight;
    cluster.events = &events;
    // Single-server mode feeds the same plane directly; the router
    // overrides these on its shards (it owns the fleet-level feeds).
    config.slo = obs.slo;
    config.flight = obs.flight;

    std::printf("training the pipeline and measuring its service "
                "time...\n");
    const SiriusPipeline pipeline = SiriusPipeline::build();
    // Warm, serial, per-query service times ground the capacity estimate.
    const SampleStats service = measureServiceSeconds(pipeline);
    const double capacity = 1.0 / service.mean();
    std::printf("measured capacity: %.1f queries/s per worker (mean "
                "service %.2f ms)\n\n", capacity, 1e3 / capacity);

    if (cluster.shards > 0)
        clusterSweep(pipeline, capacity, max_load, config, cluster,
                     requests, zipf_skew, drill, obs);
    else if (real)
        realSweep(pipeline, capacity, max_load, config, requests,
                  zipf_skew, obs);
    else
        replaySweep(service, max_load);
    if (slo_report && obs.slo != nullptr)
        printSloReport(*obs.slo);
    if (real)
        obs.flush();

    std::printf("\nlatency blows up as load approaches capacity — the "
                "headroom acceleration buys (Figure 17) is exactly this "
                "curve pushed right by 10-100x\n");
    if (real && config.deadlineSeconds <= 0.0)
        std::printf("(add --deadline-ms 200 to see the degradation "
                    "ladder bound the tail instead)\n");
    return 0;
}
