#include "core/concurrent_server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"
#include "common/timer.h"

namespace sirius::core {

ConcurrentServer::ConcurrentServer(const SiriusPipeline &pipeline,
                                   ConcurrentServerConfig config)
    : pipeline_(pipeline), config_(config),
      collector_(std::max<size_t>(config.traceCapacity, 1),
                 config.traceSampleRate, config.traceSeed),
      pool_(std::max<size_t>(config.workers, 1))
{
    if (config_.queueCapacity == 0)
        fatal("ConcurrentServer requires queueCapacity >= 1");
    if (config_.batching.enabled) {
        // The server's virtual clock (when set) covers batching too,
        // unless the batcher was given its own clock explicitly.
        if (config_.clock != nullptr &&
            config_.batching.clock == nullptr)
            config_.batching.clock = config_.clock;
        batcher_ = std::make_unique<BatchScheduler>(
            &pipeline.asr().scorer(), &pipeline.imm(), config_.batching);
    }
    if (config_.cache.enabled)
        caches_ = std::make_unique<PipelineCaches>(config_.cache);
}

ConcurrentServer::~ConcurrentServer()
{
    drain();
}

bool
ConcurrentServer::submit(const Query &query, Completion done)
{
    return submit(query, TraceBinding{}, std::move(done));
}

bool
ConcurrentServer::submit(const Query &query, const TraceBinding &binding,
                         Completion done)
{
    // Admission control: reserve a waiting slot or shed. The CAS loop
    // makes the bound exact under concurrent submitters.
    size_t waiting = queued_.load(std::memory_order_relaxed);
    do {
        if (waiting >= config_.queueCapacity) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
    } while (!queued_.compare_exchange_weak(waiting, waiting + 1,
                                            std::memory_order_relaxed));
    const uint64_t seq = accepted_.fetch_add(1, std::memory_order_relaxed);
    // The deadline is anchored at admission, so time spent waiting in
    // the queue burns the same budget the pipeline stages check. The
    // trace context is anchored here too: its id is the admission
    // sequence number (or the router's id when the query is one leg of
    // a stitched cluster trace), and the sampling decision is made
    // before any work so an unsampled query never touches the collector
    // again.
    const Deadline deadline = config_.deadlineSeconds > 0.0
        ? (config_.clock != nullptr
               ? Deadline::afterManual(config_.deadlineSeconds,
                                       *config_.clock)
               : Deadline::after(config_.deadlineSeconds))
        : Deadline();
    const bool ownTrace = binding.traceId == 0;
    const uint64_t traceId =
        ownTrace ? config_.traceIdOffset + seq + 1 : binding.traceId;
    TraceContext trace(collector_, traceId, binding.spanIdBase,
                       binding.rootParentId);
    // The flight recorder wants whole traces: buffer this query's spans
    // so completion can hand the recorder one coherent copy.
    if (config_.flight != nullptr)
        trace.bufferSpans();
    const double admitted = nowSeconds();
    pool_.submit([this, query, deadline, trace, admitted, ownTrace,
                  done = std::move(done)] {
        // The request leaves the queue the moment a worker picks it up.
        queued_.fetch_sub(1, std::memory_order_relaxed);
        serve(query, deadline, trace, admitted, ownTrace, done);
    });
    return true;
}

SiriusResult
ConcurrentServer::handle(const Query &query)
{
    std::promise<SiriusResult> promise;
    auto future = promise.get_future();
    const Completion done = [&promise](const SiriusResult &result) {
        promise.set_value(result);
    };
    // Closed-loop callers apply backpressure rather than shedding: retry
    // until a queue slot frees up. Undo the rejection submit() counted,
    // since nothing was shed from the caller's point of view.
    while (!submit(query, done)) {
        rejected_.fetch_sub(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return future.get();
}

void
ConcurrentServer::serve(const Query &query, const Deadline &deadline,
                        TraceContext trace, double admitted_seconds,
                        bool own_trace, const Completion &done)
{
    ProcessOptions options;
    options.deadline = deadline;
    options.retry = config_.retry;
    options.faults = config_.faults;
    options.batcher = batcher_.get();
    options.caches = caches_.get();

    // Queue wait is measured for every query; for sampled ones it also
    // becomes the trace's first child span (opened at admission, closed
    // here at dispatch).
    const double dispatched = nowSeconds();
    const double queue_wait =
        std::max(0.0, dispatched - admitted_seconds);

    // Install the context for this thread: every Span the pipeline and
    // the service kernels open below lands in this query's trace, and
    // log lines it emits carry the trace id.
    ScopedTraceActivation activation(trace);
    // Span id 1 is reserved for the root query span, recorded last
    // (its duration is only known once the query completes).
    const uint32_t root = trace.openRoot();
    trace.recordSpan(SpanKind::QueueWait, "queue_wait",
                     admitted_seconds, queue_wait, root);

    Stopwatch watch;
    SiriusResult result = pipeline_.process(query, options);
    const double seconds = watch.seconds();
    // A query that completed past its deadline is a miss even when no
    // stage noticed (e.g. it beat every per-stage check by a hair).
    if (deadline.expired())
        result.deadlineExpired = true;

    const double total_seconds = nowSeconds() - admitted_seconds;
    trace.closeRoot(
        "query", admitted_seconds, total_seconds,
        {{"type", queryTypeName(query.type)},
         {"degradation", degradationName(result.degradation)},
         {"deadline_expired", result.deadlineExpired ? "1" : "0"},
         {"retries", std::to_string(result.stageRetries)},
         {"text", query.text}});

    // Flush the buffered trace: one copy is offered to the flight
    // recorder (a complete trace when this server owns it, a leg
    // contribution when a router does — the router's completing offer
    // follows its delivery), the original lands in the span ring. This
    // runs before done() so a router always finds the leg staged.
    if (config_.flight != nullptr && trace.active()) {
        std::vector<SpanRecord> spans = trace.takeBuffered();
        if (own_trace)
            config_.flight->offer(trace.traceId(), total_seconds, spans);
        else
            config_.flight->offerPartial(trace.traceId(), spans);
        for (SpanRecord &span : spans)
            collector_.append(std::move(span));
    }
    if (config_.slo != nullptr)
        config_.slo->record(total_seconds,
                            result.degradation != Degradation::Failed);

    const double staged = result.timings.total();
    profiler_.addSeconds("asr", result.timings.asr.total());
    profiler_.addSeconds("qa", result.timings.qa.total());
    profiler_.addSeconds("imm", result.timings.imm.total());
    profiler_.addSeconds("other", std::max(0.0, seconds - staged));

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.record(result, seconds);
        stats_.recordQueueWait(queue_wait);
    }
    if (done)
        done(result);
}

void
ConcurrentServer::drain()
{
    pool_.waitIdle();
}

ConcurrentServerStats
ConcurrentServer::snapshot() const
{
    ConcurrentServerStats out;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        out.server = stats_;
    }
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    exportMetrics(out.metrics);
    out.spans = collector_.snapshot();
    if (batcher_ != nullptr)
        out.batching = batcher_->snapshot();
    if (caches_ != nullptr)
        out.caches = caches_->snapshot();
    out.traceDropped = collector_.dropped();
    if (config_.slo != nullptr)
        out.slo = config_.slo->snapshot();
    if (config_.flight != nullptr)
        out.flight = config_.flight->stats();
    return out;
}

void
ConcurrentServer::exportMetrics(MetricsRegistry &registry,
                                const MetricLabels &base) const
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.exportTo(registry, base);
    }
    profiler_.exportTo(registry, base);
    simd::exportMetrics(registry, base);
    registry.counter("sirius_requests_accepted_total", base)
        .add(accepted_.load(std::memory_order_relaxed));
    registry.counter("sirius_requests_rejected_total", base)
        .add(rejected_.load(std::memory_order_relaxed));
    registry.gauge("sirius_queue_depth", base)
        .set(static_cast<double>(
            queued_.load(std::memory_order_relaxed)));
    registry.counter("sirius_trace_spans_total", base)
        .add(collector_.appended());
    registry.counter("sirius_trace_dropped_total", base)
        .add(collector_.dropped());
    registry.gauge("sirius_trace_sample_rate", base)
        .set(collector_.sampleRate());
    if (batcher_ != nullptr)
        batcher_->snapshot().exportTo(registry);
    if (caches_ != nullptr)
        caches_->exportTo(registry);
}

double
ConcurrentServer::serviceRate() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    const double mean = stats_.serviceSeconds.mean();
    return mean > 0.0 ? 1.0 / mean : 0.0;
}

} // namespace sirius::core
