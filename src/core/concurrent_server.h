/**
 * @file
 * Concurrent leaf server: the Sirius pipeline behind a bounded request
 * queue and a worker pool, with admission control, graceful drain, and
 * race-free statistics snapshots.
 *
 * This is the server shape the paper's Section-3 analysis assumes: a
 * leaf node absorbing a request stream whose latency is queueing plus
 * service. The load generators in core/load_generator.h drive *real*
 * pipeline executions through it on real threads, so the Figure-17
 * queueing predictions can be validated against measurement.
 */

#ifndef SIRIUS_CORE_CONCURRENT_SERVER_H
#define SIRIUS_CORE_CONCURRENT_SERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "common/cache.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/slo.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/batch_scheduler.h"
#include "core/pipeline_cache.h"
#include "core/server.h"

namespace sirius::core {

/** Sizing and robustness policy of a ConcurrentServer. */
struct ConcurrentServerConfig
{
    size_t workers = 4;        ///< pipeline executions in flight at once
    size_t queueCapacity = 64; ///< waiting requests before shedding

    /**
     * Per-query latency budget, measured from admission (so queueing
     * time counts against it); 0 disables the deadline. Overdue queries
     * degrade along the VIQ→VQ→VC ladder or complete near-free instead
     * of holding the queue hostage.
     */
    double deadlineSeconds = 0.0;
    RetryPolicy retry;          ///< per-stage retry/backoff policy
    /** Optional fault injector, shared by all workers; not owned. */
    FaultInjector *faults = nullptr;

    /**
     * Fraction of queries traced, in [0, 1]; 0 (the default) disables
     * tracing entirely. The keep/drop decision is head-based — made
     * once at admission from (traceSeed, trace id) — so a kept query
     * records all of its spans and a dropped one costs a thread-local
     * read per instrumented region.
     */
    double traceSampleRate = 0.0;
    uint64_t traceSeed = 0xC011EC70ULL; ///< sampling-hash seed
    size_t traceCapacity = 4096;        ///< span ring size

    /**
     * Cross-query micro-batching of the dominant kernels (acoustic
     * scoring, IMM matching). Enabled by default — batched results are
     * bitwise-identical to serial ones, so this only changes *when*
     * kernels run, never what they produce. Set enabled = false
     * (--no-batching) to measure the unbatched baseline.
     */
    BatchConfig batching;
    /**
     * Per-layer result caching (acoustic scores, QA answers, image
     * matches). Disabled by default: caching changes *which* requests
     * pay for computation, so baselines and robustness experiments stay
     * cache-free unless a run opts in (--cache in the load generators).
     * Keys are exact-content hashes, so enabling it never changes any
     * individual query's result (see docs/CACHING.md).
     */
    CacheConfig cache;
    /**
     * Added to every trace id (which otherwise starts at 1 per
     * server), so traces from several servers can share one JSONL file
     * without id collisions.
     */
    uint64_t traceIdOffset = 0;

    /**
     * Optional SLO tracker fed one observation per completed query
     * (latency = admission to completion, good = not Failed); not
     * owned. Leave null on cluster shards — the router records at the
     * fleet level instead, so leg outcomes are not double-counted.
     */
    SloTracker *slo = nullptr;
    /**
     * Optional flight recorder; not owned. When set, sampled queries
     * buffer their spans and offer the whole trace to the recorder on
     * completion (as a leg contribution when the query carries an
     * external TraceBinding, i.e. a cluster router owns the trace).
     */
    FlightRecorder *flight = nullptr;

    /**
     * Virtual clock for deterministic tests; null = wall clock. When
     * set, per-query deadlines are armed with Deadline::afterManual and
     * the admitted/dispatched/total timestamps read this clock, so a
     * test can advance time explicitly (e.g. to expire a deadline)
     * without sleeping. Must outlive the server.
     */
    const ManualTime *clock = nullptr;
};

/** Race-free snapshot of a ConcurrentServer's statistics. */
struct ConcurrentServerStats
{
    ServerStats server;    ///< same shape as the sequential server's
    uint64_t accepted = 0; ///< requests admitted to the queue
    uint64_t rejected = 0; ///< requests shed by admission control

    /**
     * Every number above re-expressed as labeled metrics (plus the
     * profiler's per-component attribution and the admission counters),
     * ready for renderPrometheus()/renderCsv().
     */
    MetricsRegistry metrics;
    /** The newest retained spans (empty when tracing is disabled). */
    std::vector<SpanRecord> spans;
    /** Batch-queue accounting (all zeros when batching is disabled). */
    BatchSnapshot batching;
    /** Per-layer cache accounting (all zeros when caching is disabled). */
    PipelineCacheSnapshot caches;
    /** Spans lost to the trace ring bound (sirius_trace_dropped_total). */
    uint64_t traceDropped = 0;
    /** SLO state (empty when config.slo is null). */
    SloSnapshot slo;
    /** Flight-recorder accounting (zeros when config.flight is null). */
    FlightRecorderStats flight;
};

/**
 * A leaf node executing Sirius queries on a pool of workers.
 *
 * Requests are admitted into a bounded queue (submit() returns false and
 * counts a rejection when it is full — the shed-don't-collapse policy a
 * WSC leaf needs), executed by `workers` threads in parallel, and
 * recorded into shared statistics. drain() blocks until every admitted
 * request has completed; destruction drains implicitly, so no accepted
 * request is ever lost.
 */
class ConcurrentServer
{
  public:
    /** Completion callback; runs on the worker that served the query. */
    using Completion = std::function<void(const SiriusResult &)>;

    /** @param pipeline trained pipeline; must outlive the server. */
    explicit ConcurrentServer(const SiriusPipeline &pipeline,
                              ConcurrentServerConfig config = {});

    ConcurrentServer(const ConcurrentServer &) = delete;
    ConcurrentServer &operator=(const ConcurrentServer &) = delete;

    /** Drains outstanding requests, then stops the workers. */
    ~ConcurrentServer();

    /**
     * Admit @p query for asynchronous execution.
     * @param done invoked with the result on a worker thread; may be null
     * @return false (and a counted rejection) when the queue is full
     */
    bool submit(const Query &query, Completion done = nullptr);

    /**
     * submit() with an external trace identity: a cluster router passes
     * its own trace id, a per-leg span-id base, and the route-leg span
     * the shard's root should nest under, so every leg's spans stitch
     * into one trace (see TraceBinding). A default binding behaves
     * exactly like submit().
     */
    bool submit(const Query &query, const TraceBinding &binding,
                Completion done = nullptr);

    /**
     * Closed-loop path: block until @p query has been executed by a
     * worker and return its result. Waits for queue space instead of
     * shedding, so it never counts rejections.
     */
    SiriusResult handle(const Query &query);

    /** Block until every admitted request has completed. */
    void drain();

    /** Copy of the statistics, consistent under concurrent traffic. */
    ConcurrentServerStats snapshot() const;

    /**
     * Mean service rate over completed requests, queries/s per worker
     * (0 until something has been served). Multiply by workerCount()
     * for the node's aggregate capacity upper bound.
     */
    double serviceRate() const;

    /** Per-stage wall-time attribution across all workers. */
    const Profiler &profiler() const { return profiler_; }

    /** The span ring all sampled queries record into. */
    const TraceCollector &traces() const { return collector_; }

    /**
     * Put this server's span timestamps on @p other's clock (cluster
     * stitching: every shard aligns to the router's collector). Call
     * before traffic; existing span timestamps are not rewritten.
     */
    void alignTraceEpoch(const TraceCollector &other)
    {
        collector_.alignEpochTo(other);
    }

    /** The shared micro-batcher; null when batching is disabled. */
    const BatchScheduler *batcher() const { return batcher_.get(); }

    /**
     * Clock-mode batch pump: close every partial batch whose window
     * has expired on the injected virtual clock. In clock mode the
     * scheduler thread never arms wall-time wake-ups, so a driver that
     * advances the clock must call this (or queries sitting in partial
     * batches would wait forever). No-op when batching is disabled or
     * running on the wall clock.
     */
    void
    pollBatches()
    {
        if (batcher_ != nullptr && config_.clock != nullptr)
            batcher_->flushTimedOut();
    }

    /** The shared per-layer caches; null when caching is disabled. */
    const PipelineCaches *caches() const { return caches_.get(); }

    /**
     * Export the server's statistics into @p registry under @p base
     * labels — the same mapping snapshot().metrics uses, for callers
     * that aggregate several servers into one registry.
     */
    void exportMetrics(MetricsRegistry &registry,
                       const MetricLabels &base = {{"server",
                                                    "leaf"}}) const;

    size_t workerCount() const { return pool_.workerCount(); }
    size_t queueCapacity() const { return config_.queueCapacity; }

  private:
    void serve(const Query &query, const Deadline &deadline,
               TraceContext trace, double admitted_seconds,
               bool own_trace, const Completion &done);

    /** Seconds on the active clock: ConcurrentServerConfig::clock when
     *  set, otherwise the trace collector's wall epoch. */
    double nowSeconds() const
    {
        return config_.clock != nullptr ? config_.clock->now()
                                        : collector_.nowSeconds();
    }

    const SiriusPipeline &pipeline_;
    ConcurrentServerConfig config_;

    std::atomic<size_t> queued_{0};      ///< admitted, not yet executing
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_{0};

    mutable std::mutex statsMutex_; ///< guards stats_ scalars + samples
    ServerStats stats_;
    Profiler profiler_;
    TraceCollector collector_;

    /**
     * Declared before pool_ so the workers (which may be blocked on
     * batch futures) stop before the scheduler that resolves them dies.
     */
    std::unique_ptr<BatchScheduler> batcher_;

    /** Declared before pool_: workers probe the caches while serving. */
    std::unique_ptr<PipelineCaches> caches_;

    ThreadPool pool_; ///< last member: workers stop before state dies
};

} // namespace sirius::core

#endif // SIRIUS_CORE_CONCURRENT_SERVER_H
