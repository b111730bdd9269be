/**
 * @file
 * Figure 16 reproduction: server throughput improvement per platform
 * without degrading latency beyond the baseline (100% load; the
 * queueing-aware version is Figure 17).
 *
 * `--measured [batch-size]` adds a software data point to the analytic
 * table: it trains the real pipeline and drives a closed loop through a
 * core::ConcurrentServer twice — serial kernels (--no-batching
 * equivalent) and micro-batched at the given size (default 8) — and
 * reports the measured throughput ratio. This is the same knob
 * load_test exposes, packaged as a before/after experiment.
 *
 * `--measured --shards N1 [N2 ...]` (default counts 1 2 4) switches to
 * the scale-out experiment: closed-loop throughput vs shard count
 * through a core::ClusterRouter, three columns per count —
 *
 *   this-host qps    a real cluster squeezed onto this machine's cores
 *                    (flat once shard threads outnumber cores);
 *   fleet qps        the virtual-time fleet projection replaying the
 *                    *measured* per-query service times with one
 *                    machine per shard — the deployment the paper
 *                    assumes, and the column the scaling ratios cite;
 *   dcsim ratio      the queueing model's predicted capacity ratio
 *                    (shardedMm1MaxArrival: capacity adds linearly).
 *
 * It finishes with the outage drill: kill a shard mid-run and show
 * throughput degrading without a single Failed query.
 *
 * `--metrics-out PATH` / `--csv-out PATH` (with --measured) export the
 * per-arm server metrics — labeled {experiment=,arm=} — as Prometheus
 * text or CSV for the bench harness, same idiom as fig17 and load_test.
 * The measured run also prices the observability plane itself: the
 * batched closed loop repeats with 100% trace sampling + SLO tracker +
 * flight recorder + event log attached, and the throughput delta vs
 * the plane-off arm is reported (budget: within 2%; docs/BENCHMARKS.md).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "accel/latency.h"
#include "bench_util.h"
#include "common/flight_recorder.h"
#include "common/simd.h"
#include "common/slo.h"
#include "core/load_generator.h"
#include "dcsim/queueing.h"

using namespace sirius;
using namespace sirius::accel;

namespace {

void
writeFile(const std::string &path, const std::string &text,
          const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s to %s\n", what, path.c_str());
}

/** Per-arm metrics sink: every measured server exports into one
 *  registry labeled {experiment=,arm=}, rendered at exit. */
struct MetricsSink
{
    MetricsRegistry registry;
    std::string metricsOut;
    std::string csvOut;

    void flush()
    {
        if (!metricsOut.empty())
            writeFile(metricsOut, registry.renderPrometheus(),
                      "Prometheus metrics");
        if (!csvOut.empty())
            writeFile(csvOut, registry.renderCsv(), "CSV metrics");
    }
};

double
measuredClosedLoopQps(const core::SiriusPipeline &pipeline,
                      core::ConcurrentServerConfig config,
                      size_t queries_per_client,
                      MetricsSink *sink = nullptr,
                      const char *experiment = "", const char *arm = "")
{
    core::ConcurrentServer server(pipeline, config);
    const auto result = core::runClosedLoop(server, config.workers,
                                            queries_per_client);
    if (sink != nullptr)
        server.exportMetrics(sink->registry,
                             {{"experiment", experiment}, {"arm", arm}});
    return result.achievedQps;
}

/** One cache-comparison arm: steady-state qps + cache accounting. */
struct CacheArm
{
    double qps = 0.0;
    core::PipelineCacheSnapshot caches;
};

/**
 * Closed loop under Zipf-skewed query selection, measured at steady
 * state: a warm pass runs first on the same server (populating the
 * caches when they are on; the uncached arm pays the identical warm
 * cost for fairness), then the measured pass. Both arms draw the same
 * query sequence (same seed), so the comparison is load-for-load.
 */
CacheArm
measuredZipfClosedLoop(const core::SiriusPipeline &pipeline,
                       core::ConcurrentServerConfig config,
                       size_t queries_per_client, double zipf_skew)
{
    core::ConcurrentServer server(pipeline, config);
    core::LoadOptions load;
    load.zipfSkew = zipf_skew;
    core::runClosedLoop(server, config.workers, 10, load);
    const auto result = core::runClosedLoop(
        server, config.workers, queries_per_client, load);
    CacheArm arm;
    arm.qps = result.achievedQps;
    arm.caches = server.snapshot().caches;
    return arm;
}

int
runMeasured(size_t batch_size, MetricsSink &sink)
{
    bench::banner("Figure 16 (measured): micro-batched vs serial "
                  "kernels, closed loop");
    // DNN backend: the Figure-16 ASR headline is the DNN, and it is
    // where batching pays most (one register-blocked GEMM per layer
    // instead of per-frame matvecs).
    std::printf("training the pipeline (DNN acoustic backend)...\n");
    core::SiriusConfig pipeline_config;
    pipeline_config.asrBackend = speech::AsrBackend::Dnn;
    const auto pipeline = core::SiriusPipeline::build(pipeline_config);

    core::ConcurrentServerConfig config;
    config.workers = 4;
    const size_t queries_per_client = 42;

    config.batching.enabled = false;
    // Warm-up pass so neither side pays first-touch costs.
    measuredClosedLoopQps(pipeline, config, 10);
    const double serial = measuredClosedLoopQps(
        pipeline, config, queries_per_client, &sink, "batching",
        "serial");

    config.batching.enabled = true;
    config.batching.maxBatchSize = batch_size;
    const double batched = measuredClosedLoopQps(
        pipeline, config, queries_per_client, &sink, "batching",
        "batched");

    std::printf("\n%-24s %10s\n", "kernel execution", "throughput");
    std::printf("%-24s %8.1fqps\n", "serial (--no-batching)", serial);
    std::printf("%-24s %8.1fqps\n", "batched", batched);
    std::printf("\nbatching at size %zu: %.2fx the serial closed-loop "
                "throughput\n", batch_size, batched / serial);
    std::printf("(identical results either way — the batched kernels "
                "are bitwise-equal to serial; see test_batching)\n");

    // Caching comparison: batched kernels both ways, Zipf(1.0)-skewed
    // queries (the repetition-heavy regime real assistant traffic
    // shows), caches off vs on. See docs/CACHING.md.
    const double zipf_skew = 1.0;
    bench::subhead("result caching under Zipf(1.0) skew "
                   "(cache on vs --no-cache)");
    core::ConcurrentServerConfig cache_config = config;
    cache_config.cache.enabled = false;
    const CacheArm uncached = measuredZipfClosedLoop(
        pipeline, cache_config, queries_per_client, zipf_skew);
    cache_config.cache.enabled = true;
    const CacheArm cached = measuredZipfClosedLoop(
        pipeline, cache_config, queries_per_client, zipf_skew);

    std::printf("%-24s %10s %9s %9s %9s\n", "result caches",
                "throughput", "asr-hit", "ans-hit", "imm-hit");
    std::printf("%-24s %8.1fqps %9s %9s %9s\n", "off (--no-cache)",
                uncached.qps, "-", "-", "-");
    std::printf("%-24s %8.1fqps %8.0f%% %8.0f%% %8.0f%%\n", "on",
                cached.qps,
                cached.caches.acousticScores.hitRate() * 100.0,
                cached.caches.answers.hitRate() * 100.0,
                cached.caches.matches.hitRate() * 100.0);
    std::printf("\ncaching at Zipf(%.1f): %.2fx the uncached "
                "closed-loop throughput\n", zipf_skew,
                cached.qps / uncached.qps);
    std::printf("(identical per-query results either way — cache keys "
                "are exact-content hashes; see test_cache)\n");

    // Observability-plane overhead: the batched closed loop again,
    // plane off vs fully on (100% trace sampling, SLO tracker, flight
    // recorder, event log). Best-of-3 per arm damps scheduler noise;
    // the budget is 2% (docs/BENCHMARKS.md observability row).
    bench::subhead("observability plane overhead (plane on vs off)");
    const auto best_of = [&](const core::ConcurrentServerConfig &c,
                             const char *arm) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep)
            best = std::max(best, measuredClosedLoopQps(
                                      pipeline, c, queries_per_client,
                                      &sink, "observability", arm));
        return best;
    };
    const double plane_off = best_of(config, "plane_off");

    EventLog events(1024);
    SloTracker slo(defaultSloConfig(0.25), &events);
    FlightRecorder flight;
    core::ConcurrentServerConfig plane_config = config;
    plane_config.traceSampleRate = 1.0;
    plane_config.traceCapacity = 1 << 14;
    plane_config.slo = &slo;
    plane_config.flight = &flight;
    const double plane_on = best_of(plane_config, "plane_on");

    const double overhead =
        (plane_off - plane_on) / plane_off * 100.0;
    std::printf("%-24s %10s\n", "observability plane", "throughput");
    std::printf("%-24s %8.1fqps\n", "off", plane_off);
    std::printf("%-24s %8.1fqps   (100%% sampling + slo + "
                "flight + events)\n", "on", plane_on);
    std::printf("\nplane-on overhead: %.1f%% of plane-off throughput "
                "(budget 2%%) — %s\n", overhead,
                overhead <= 2.0 ? "PASS" : "WARN: over budget");
    return 0;
}

/**
 * Closed-loop throughput vs shard count. The scaling claim rides the
 * virtual-time fleet projection (one machine per shard, measured
 * service times), because a single host cannot add cores by adding
 * shards — the real this-host column is printed beside it as the
 * honest same-machine measurement.
 */
int
runShardScaling(const std::vector<size_t> &shard_counts,
                MetricsSink &sink)
{
    bench::banner("Figure 16 (measured): closed-loop qps vs shard "
                  "count");
    std::printf("training the pipeline (DNN acoustic backend)...\n");
    core::SiriusConfig pipeline_config;
    pipeline_config.asrBackend = speech::AsrBackend::Dnn;
    const auto pipeline = core::SiriusPipeline::build(pipeline_config);

    // Measured per-query service times (serial, unloaded): the ground
    // truth both the projection and the queueing model consume.
    const SampleStats service = core::measureServiceSeconds(pipeline);
    const double mean_service = service.mean();
    const double mu = 1.0 / mean_service;
    std::printf("measured mean service time %.2f ms (mu = %.1f "
                "queries/s per shard worker)\n\n", mean_service * 1e3,
                mu);

    core::ConcurrentServerConfig shard_config;
    shard_config.workers = 1;
    shard_config.batching.enabled = false; // one client per worker:
                                           // batches would be singletons
    const size_t queries_per_client = 42;
    // dcsim capacity bound: the latency budget is irrelevant to the
    // *ratio* (capacity adds linearly in shards), pick 2x service time.
    const double bound = 2.0 * mean_service;

    std::printf("%-8s %14s %14s %12s %12s\n", "shards",
                "this-host qps", "fleet qps", "fleet ratio",
                "dcsim ratio");
    double base_fleet = 0.0;
    for (size_t shards : shard_counts) {
        core::ClusterConfig cluster;
        cluster.shards = shards;
        cluster.shard = shard_config;
        core::ClusterRouter router(pipeline, cluster);
        const auto real = core::runClosedLoop(router, shards,
                                              queries_per_client);
        char arm[24];
        std::snprintf(arm, sizeof(arm), "%zu_shards", shards);
        router.exportMetrics(sink.registry,
                             {{"experiment", "scaling"}, {"arm", arm}});
        const auto fleet = core::projectClosedLoopFleet(
            service.samples(), shards, shard_config.workers, 1,
            queries_per_client);
        if (base_fleet == 0.0)
            base_fleet = fleet.aggregateQps;
        const double dcsim_ratio =
            dcsim::shardedMm1MaxArrival(
                mu, bound, static_cast<unsigned>(shards)) /
            dcsim::shardedMm1MaxArrival(mu, bound, 1);
        std::printf("%-8zu %12.1fqps %12.1fqps %11.2fx %11.2fx\n",
                    shards, real.achievedQps, fleet.aggregateQps,
                    fleet.aggregateQps / base_fleet, dcsim_ratio);
    }
    std::printf("\nfleet qps is the virtual-time projection (one "
                "machine per shard, measured service times); this-host "
                "qps time-slices every shard onto this machine's cores "
                "and goes flat once threads outnumber them. See "
                "docs/SCALING.md for why the fleet column is the "
                "deployment-shaped number\n");

    // Outage drill at the largest count: kill one shard mid-run; the
    // router must absorb it (throughput may dip, no query may fail).
    const size_t drill_shards = shard_counts.back();
    if (drill_shards >= 2) {
        bench::subhead("outage drill: kill one shard mid-run");
        core::ClusterConfig cluster;
        cluster.shards = drill_shards;
        cluster.shard = shard_config;
        core::ClusterRouter router(pipeline, cluster);
        const size_t kill_at = drill_shards * queries_per_client / 2;
        core::LoadOptions drill;
        drill.beforeRequest = [&router, kill_at](size_t seq) {
            if (seq == kill_at)
                router.killShard(0);
        };
        const auto result = core::runClosedLoop(
            router, drill_shards, queries_per_client, drill);
        const auto stats = router.snapshot();
        const uint64_t failed = stats.outcomes[static_cast<size_t>(
            core::Degradation::Failed)];
        std::printf("killed shard 0 at request %zu of %zu: %.1f qps "
                    "served, %llu failovers, failed %llu\n", kill_at,
                    drill_shards * queries_per_client,
                    result.achievedQps,
                    static_cast<unsigned long long>(stats.failovers),
                    static_cast<unsigned long long>(failed));
        std::printf("%s: an administrative shard kill %s\n",
                    failed == 0 ? "PASS" : "FAIL",
                    failed == 0
                        ? "degraded capacity without failing a query"
                        : "leaked Failed queries through the router");
        if (failed != 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("%s\n", simd::describeDispatch().c_str());
    if (argc > 1 && std::strcmp(argv[1], "--measured") == 0) {
        std::vector<size_t> shard_counts;
        size_t batch_size = 8;
        MetricsSink sink;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--shards") == 0) {
                while (i + 1 < argc && std::atoi(argv[i + 1]) > 0)
                    shard_counts.push_back(
                        static_cast<size_t>(std::atoi(argv[++i])));
                if (shard_counts.empty())
                    shard_counts = {1, 2, 4};
            } else if (std::strcmp(argv[i], "--metrics-out") == 0 &&
                       i + 1 < argc)
                sink.metricsOut = argv[++i];
            else if (std::strcmp(argv[i], "--csv-out") == 0 &&
                     i + 1 < argc)
                sink.csvOut = argv[++i];
            else if (std::atoi(argv[i]) > 0)
                batch_size = static_cast<size_t>(std::atoi(argv[i]));
        }
        const int rc = shard_counts.empty()
                           ? runMeasured(batch_size, sink)
                           : runShardScaling(shard_counts, sink);
        sink.flush();
        return rc;
    }
    bench::banner("Figure 16: Throughput Across Services (vs 4-core "
                  "query-parallel CMP)");
    const CalibratedModel model;
    const auto profiles = defaultServiceProfiles();

    std::printf("%-11s %10s %10s %10s %10s\n", "service", "CMP(subq)",
                "GPU", "Phi", "FPGA");
    for (const auto &profile : profiles) {
        std::printf("%-11s", serviceKindName(profile.kind));
        for (Platform p : {Platform::CmpMulticore, Platform::Gpu,
                           Platform::Phi, Platform::Fpga}) {
            std::printf(" %9.2fx",
                        throughputImprovement(profile, model, p));
        }
        std::printf("\n");
    }

    bench::subhead("key observations (paper section 5.2.1)");
    std::printf("- GPU on ASR (DNN): %.1fx (paper: 13.7x)\n",
                throughputImprovement(profiles[1], model,
                                      Platform::Gpu));
    std::printf("- FPGA on IMM: %.1fx (paper: 12.6x)\n",
                throughputImprovement(profiles[3], model,
                                      Platform::Fpga));
    std::printf("- QA improvements are the most limited across "
                "platforms (CRF's 3.8-7.5x ceiling)\n");
    return 0;
}
