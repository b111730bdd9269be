/**
 * @file
 * Leaf-server service statistics: the counters and histograms every
 * Sirius server (ConcurrentServer, and each ClusterRouter shard) folds
 * its served results into, mergeable into a fleet view and exportable
 * to a MetricsRegistry.
 */

#ifndef SIRIUS_CORE_SERVER_H
#define SIRIUS_CORE_SERVER_H

#include <array>
#include <cstdint>

#include "common/metrics.h"
#include "common/stats.h"
#include "core/pipeline.h"

namespace sirius::core {

/** Aggregate service statistics of a Sirius leaf server. */
struct ServerStats
{
    uint64_t served = 0;
    uint64_t actions = 0;   ///< VC pathway outcomes
    uint64_t answers = 0;   ///< VQ / VIQ pathway outcomes
    SampleStats serviceSeconds; ///< per-request processing time

    // Robustness outcomes (all zero without a deadline/fault policy).
    uint64_t degraded = 0;       ///< shed >= 1 stage, still delivered
    uint64_t failed = 0;         ///< lost ASR: nothing delivered
    uint64_t deadlineMisses = 0; ///< finished past their deadline
    uint64_t stageRetries = 0;   ///< stage retry attempts, all queries

    /**
     * Queries per Degradation rung, indexed by the enum: the shape of
     * the VIQ→VQ→VC ladder under the current load and fault regime.
     */
    std::array<uint64_t, kDegradationLevels> degradationCounts{};

    /** End-to-end service-time distribution (log-bucketed). */
    LatencyHistogram serviceHistogram;
    /** Per-stage distributions, fed from each result's StageTimings. */
    LatencyHistogram asrSeconds;
    LatencyHistogram qaSeconds;
    LatencyHistogram immSeconds;
    /**
     * Service-time distribution of degraded queries only: compare with
     * serviceHistogram to see what shedding bought.
     */
    LatencyHistogram degradedSeconds;
    /**
     * Admission-to-dispatch wait, recorded by the concurrent server.
     * Without it, queue delay is indistinguishable from service time in
     * reports — it is only implicitly burned out of the deadline
     * budget.
     */
    LatencyHistogram queueWaitSeconds;

    /** Fold one served result into every counter and histogram. */
    void record(const SiriusResult &result, double service_seconds);

    /** Record one admission-to-dispatch queue wait. */
    void recordQueueWait(double wait_seconds);

    /** Fold another server's statistics into this one (fleet view). */
    void merge(const ServerStats &other);

    /**
     * Export every counter and histogram into @p registry under the
     * metric names documented in docs/ARCHITECTURE.md
     * (`sirius_queries_total{outcome=...}`,
     * `sirius_stage_seconds{stage=...}`, ...). @p base labels are
     * attached to every exported instance (e.g. `server=leaf0`).
     */
    void exportTo(MetricsRegistry &registry,
                  const MetricLabels &base = {{"server", "leaf"}}) const;
};

} // namespace sirius::core

#endif // SIRIUS_CORE_SERVER_H
