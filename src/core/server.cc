#include "core/server.h"

namespace sirius::core {

void
ServerStats::record(const SiriusResult &result, double service_seconds)
{
    serviceSeconds.add(service_seconds);
    serviceHistogram.add(service_seconds);
    asrSeconds.add(result.timings.asr.total());
    qaSeconds.add(result.timings.qa.total());
    immSeconds.add(result.timings.imm.total());
    ++served;
    if (result.degradation == Degradation::Failed)
        ++failed;
    else if (result.queryClass == QueryClass::Action)
        ++actions;
    else
        ++answers;
    degradationCounts[static_cast<size_t>(result.degradation)]++;
    if (result.degraded() && result.degradation != Degradation::Failed) {
        ++degraded;
        degradedSeconds.add(service_seconds);
    }
    if (result.deadlineExpired)
        ++deadlineMisses;
    stageRetries += static_cast<uint64_t>(result.stageRetries);
}

void
ServerStats::recordQueueWait(double wait_seconds)
{
    queueWaitSeconds.add(wait_seconds);
}

void
ServerStats::merge(const ServerStats &other)
{
    served += other.served;
    actions += other.actions;
    answers += other.answers;
    degraded += other.degraded;
    failed += other.failed;
    deadlineMisses += other.deadlineMisses;
    stageRetries += other.stageRetries;
    for (size_t i = 0; i < degradationCounts.size(); ++i)
        degradationCounts[i] += other.degradationCounts[i];
    serviceSeconds.addAll(other.serviceSeconds.samples());
    serviceHistogram.merge(other.serviceHistogram);
    asrSeconds.merge(other.asrSeconds);
    qaSeconds.merge(other.qaSeconds);
    immSeconds.merge(other.immSeconds);
    degradedSeconds.merge(other.degradedSeconds);
    queueWaitSeconds.merge(other.queueWaitSeconds);
}

void
ServerStats::exportTo(MetricsRegistry &registry,
                      const MetricLabels &base) const
{
    const auto labeled = [&base](
        std::initializer_list<std::pair<std::string, std::string>>
            extra) {
        MetricLabels labels = base;
        for (const auto &kv : extra)
            labels.push_back(kv);
        return labels;
    };

    // Disjoint query outcomes: ok + degraded + failed == served.
    registry.counter("sirius_queries_total",
                     labeled({{"outcome", "ok"}}))
        .add(served - degraded - failed);
    registry.counter("sirius_queries_total",
                     labeled({{"outcome", "degraded"}}))
        .add(degraded);
    registry.counter("sirius_queries_total",
                     labeled({{"outcome", "failed"}}))
        .add(failed);
    registry.counter("sirius_query_pathway_total",
                     labeled({{"pathway", "action"}}))
        .add(actions);
    registry.counter("sirius_query_pathway_total",
                     labeled({{"pathway", "answer"}}))
        .add(answers);
    registry.counter("sirius_deadline_misses_total", base)
        .add(deadlineMisses);
    registry.counter("sirius_stage_retries_total", base)
        .add(stageRetries);
    for (size_t i = 0; i < degradationCounts.size(); ++i) {
        registry
            .counter("sirius_degradation_total",
                     labeled({{"rung",
                               degradationName(
                                   static_cast<Degradation>(i))}}))
            .add(degradationCounts[i]);
    }

    registry.histogram("sirius_service_seconds", base)
        .merge(serviceHistogram);
    registry.histogram("sirius_queue_wait_seconds", base)
        .merge(queueWaitSeconds);
    registry.histogram("sirius_degraded_service_seconds", base)
        .merge(degradedSeconds);
    registry.histogram("sirius_stage_seconds",
                       labeled({{"stage", "asr"}}))
        .merge(asrSeconds);
    registry.histogram("sirius_stage_seconds",
                       labeled({{"stage", "qa"}}))
        .merge(qaSeconds);
    registry.histogram("sirius_stage_seconds",
                       labeled({{"stage", "imm"}}))
        .merge(immSeconds);
}

} // namespace sirius::core
