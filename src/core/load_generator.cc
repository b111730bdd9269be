#include "core/load_generator.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"

namespace sirius::core {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Per-run accounting of delivered results, shared by the worker threads
 * (open-loop completions) or client threads (closed loop) that see them.
 * Counting what was delivered — not target snapshot deltas — makes a
 * fleet's failover-rescued or doubly-hedged query count once, as its
 * client saw it.
 */
class Tally
{
  public:
    void
    add(double sojourn_seconds, const SiriusResult &delivered)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sojourns_.push_back(sojourn_seconds);
        if (delivered.degraded())
            ++degraded_;
        if (delivered.deadlineExpired)
            ++deadlineMisses_;
    }

    /** Fill @p result's completion fields once every result is in. */
    void
    finish(MeasuredLoadResult &result)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        result.sojournSeconds.addAll(sojourns_);
        result.completed = sojourns_.size();
        result.degraded = degraded_;
        result.deadlineMisses = deadlineMisses_;
        result.achievedQps = result.elapsedSeconds > 0.0
            ? static_cast<double>(result.completed) /
                result.elapsedSeconds
            : 0.0;
    }

  private:
    std::mutex mutex_;
    std::vector<double> sojourns_;
    uint64_t degraded_ = 0;
    uint64_t deadlineMisses_ = 0;
};

template <typename Target>
MeasuredLoadResult
openLoop(Target &target, double offered_qps, size_t requests,
         const LoadOptions &options)
{
    if (offered_qps <= 0.0)
        fatal("runOpenLoop: offered load must be positive");

    const auto &queries = standardQuerySet();
    Rng rng(options.seed);
    // The skewed query draw gets its own stream so turning it on (or
    // changing the exponent) leaves the Poisson arrival times intact —
    // cache-on and cache-off runs then see identical arrival processes.
    const bool skewed = options.zipfSkew > 0.0;
    const ZipfSampler zipf(queries.size(),
                           skewed ? options.zipfSkew : 0.0);
    Rng query_rng(options.seed ^ 0x5a1fULL);

    MeasuredLoadResult result;
    result.offeredQps = offered_qps;
    result.offered = requests;
    Tally tally;

    const auto start = Clock::now();
    double arrival = 0.0;
    for (size_t i = 0; i < requests; ++i) {
        if (options.beforeRequest)
            options.beforeRequest(i + 1);
        double u = rng.uniform();
        while (u <= 1e-300)
            u = rng.uniform();
        arrival += -std::log(u) / offered_qps;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrival)));
        const auto submitted = Clock::now();
        const size_t pick =
            skewed ? zipf.draw(query_rng) : i % queries.size();
        const bool admitted = target.submit(
            queries[pick],
            [&tally, submitted](const SiriusResult &delivered) {
                tally.add(secondsSince(submitted), delivered);
            });
        if (!admitted)
            ++result.rejected;
    }
    target.drain(); // every completion callback has run past this point

    result.elapsedSeconds = secondsSince(start);
    tally.finish(result);
    return result;
}

template <typename Target>
MeasuredLoadResult
closedLoop(Target &target, size_t clients, size_t queries_per_client,
           const LoadOptions &options)
{
    const auto &queries = standardQuerySet();
    const bool skewed = options.zipfSkew > 0.0;
    const ZipfSampler zipf(queries.size(),
                           skewed ? options.zipfSkew : 0.0);

    MeasuredLoadResult result;
    result.offered =
        static_cast<uint64_t>(clients) * queries_per_client;
    Tally tally;

    std::atomic<size_t> issued{0};
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
            Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * (c + 1));
            for (size_t i = 0; i < queries_per_client; ++i) {
                const size_t seq =
                    issued.fetch_add(1, std::memory_order_relaxed) + 1;
                if (options.beforeRequest)
                    options.beforeRequest(seq);
                const size_t pick = skewed
                    ? zipf.draw(rng)
                    : (c * queries_per_client + i) % queries.size();
                const auto submitted = Clock::now();
                const SiriusResult delivered =
                    target.handle(queries[pick]);
                tally.add(secondsSince(submitted), delivered);
            }
        });
    }
    for (auto &t : pool)
        t.join();

    result.elapsedSeconds = secondsSince(start);
    // Hedge legs whose primary already delivered may still be running;
    // a caller's snapshot right after must not catch them mid-flight.
    target.drain();
    tally.finish(result);
    return result;
}

} // namespace

MeasuredLoadResult
runOpenLoop(ConcurrentServer &server, double offered_qps, size_t requests,
            const LoadOptions &options)
{
    return openLoop(server, offered_qps, requests, options);
}

MeasuredLoadResult
runOpenLoop(ClusterRouter &router, double offered_qps, size_t requests,
            const LoadOptions &options)
{
    return openLoop(router, offered_qps, requests, options);
}

MeasuredLoadResult
runClosedLoop(ConcurrentServer &server, size_t clients,
              size_t queries_per_client, const LoadOptions &options)
{
    return closedLoop(server, clients, queries_per_client, options);
}

MeasuredLoadResult
runClosedLoop(ClusterRouter &router, size_t clients,
              size_t queries_per_client, const LoadOptions &options)
{
    return closedLoop(router, clients, queries_per_client, options);
}

SampleStats
measureServiceSeconds(const SiriusPipeline &pipeline)
{
    const auto &queries = standardQuerySet();
    for (const auto &query : queries) // warm pass: first-touch costs
        pipeline.process(query);
    SampleStats service;
    for (const auto &query : queries) {
        Stopwatch watch;
        pipeline.process(query);
        service.add(watch.seconds());
    }
    return service;
}

} // namespace sirius::core
