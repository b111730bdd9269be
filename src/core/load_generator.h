/**
 * @file
 * The load generator: one open-loop and one closed-loop body that drive
 * *real* pipeline executions through either serving target — a single
 * core::ConcurrentServer or a core::ClusterRouter fleet. Both targets
 * share the three calls the generator uses (`submit(query, done)`,
 * `handle(query)`, `drain()`), so the Figure-17 queueing predictions are
 * validated against the same measurement code at either scale.
 *
 * Virtual-time replays of measured service times are dcsim's job
 * (dcsim::simulateQueueEmpirical); measureServiceSeconds() supplies the
 * samples.
 */

#ifndef SIRIUS_CORE_LOAD_GENERATOR_H
#define SIRIUS_CORE_LOAD_GENERATOR_H

#include <cstdint>
#include <functional>

#include "common/stats.h"
#include "core/cluster.h"
#include "core/concurrent_server.h"

namespace sirius::core {

/** Knobs shared by both load generators and both targets. */
struct LoadOptions
{
    /** Poisson arrivals (open loop) and Zipf query draws. */
    uint64_t seed = 31337;
    /**
     * > 0: Zipf(zipfSkew)-distributed draws over the standard query set
     * (popular queries dominate, the realistic regime for result
     * caches); 0 keeps the round-robin default.
     */
    double zipfSkew = 0.0;
    /**
     * Runs just before request `seq` (1-based, counted over the whole
     * run) is issued — the hook for outage drills (kill or revive a
     * shard mid-run). In the closed loop it runs on the issuing
     * client's thread, so it must be thread-safe.
     */
    std::function<void(size_t seq)> beforeRequest;
};

/** Result of a load-generation run. */
struct MeasuredLoadResult
{
    double offeredQps = 0.0;    ///< open loop: target arrival rate
    uint64_t offered = 0;       ///< requests generated
    uint64_t completed = 0;     ///< requests served to completion
    uint64_t rejected = 0;      ///< requests shed at admission
    /** Delivered with >= 1 stage shed, Failed included. */
    uint64_t degraded = 0;
    uint64_t deadlineMisses = 0;///< delivered past their deadline
    double elapsedSeconds = 0.0;
    double achievedQps = 0.0;   ///< completed / elapsed
    SampleStats sojournSeconds; ///< submit-to-completion per request
};

/**
 * Open-loop load generator: Poisson arrivals at @p offered_qps in real
 * time, each arrival submitted regardless of how many are outstanding
 * (the WSC traffic model behind Figure 17). Queries cycle round robin
 * through the standard query set (request i gets query i mod N). Sojourn
 * time spans submission to completion, i.e. queueing plus service —
 * directly comparable to dcsim::mm1Latency at the same load.
 *
 * Zipf draws use their own RNG stream (seeded `seed ^ 0x5a1f`), so
 * turning skew on leaves the Poisson arrival process unchanged at equal
 * seeds. degraded/deadlineMisses count the results actually delivered,
 * one per completed query.
 */
MeasuredLoadResult runOpenLoop(ConcurrentServer &server,
                               double offered_qps, size_t requests,
                               const LoadOptions &options = {});
MeasuredLoadResult runOpenLoop(ClusterRouter &router, double offered_qps,
                               size_t requests,
                               const LoadOptions &options = {});

/**
 * Closed-loop load generator: @p clients threads each issue
 * @p queries_per_client standard-set queries back to back, waiting for
 * every response before sending the next (one blocking session per
 * user). Client c's i-th query is (c * queries_per_client + i) mod N,
 * or a Zipf draw from a per-client stream seeded from `seed`. Sojourn
 * equals service plus any queue wait behind other clients; offeredQps
 * is 0 because a closed loop has no fixed rate. The target is drained
 * before returning, so late hedge legs have settled in its snapshot.
 */
MeasuredLoadResult runClosedLoop(ConcurrentServer &server, size_t clients,
                                 size_t queries_per_client,
                                 const LoadOptions &options = {});
MeasuredLoadResult runClosedLoop(ClusterRouter &router, size_t clients,
                                 size_t queries_per_client,
                                 const LoadOptions &options = {});

/**
 * Per-query service times of @p pipeline over the standard query set,
 * unloaded and serial: one warm pass (first-touch costs), then one
 * Stopwatch-timed process() per query. The capacity probe behind every
 * load sweep: 1 / mean() is one worker's service rate, and samples()
 * feed dcsim::simulateQueueEmpirical and projectClosedLoopFleet.
 */
SampleStats measureServiceSeconds(const SiriusPipeline &pipeline);

} // namespace sirius::core

#endif // SIRIUS_CORE_LOAD_GENERATOR_H
