/**
 * @file
 * Tests for the robustness layer: Deadline budgets, seeded fault
 * injection, per-stage retry, and graceful degradation down the Table-1
 * ladder (VIQ→VQ→VC) — plus the ServerStats counters that price it.
 */

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/concurrent_server.h"
#include "core/server.h"
#include "vision/landmarks.h"

namespace {

using namespace sirius;
using namespace sirius::core;

// ---------------------------------------------------------------------
// Deadline: the budget primitive.

TEST(Deadline, DefaultIsUnbounded)
{
    const Deadline d;
    EXPECT_FALSE(d.bounded());
    EXPECT_FALSE(d.expired());
    EXPECT_TRUE(std::isinf(d.remainingSeconds()));
    EXPECT_TRUE(std::isinf(d.budgetSeconds()));
    EXPECT_FALSE(Deadline::unbounded().bounded());
}

TEST(Deadline, AfterZeroExpiresImmediately)
{
    const Deadline d = Deadline::after(0.0);
    EXPECT_TRUE(d.bounded());
    EXPECT_TRUE(d.expired());
    EXPECT_LE(d.remainingSeconds(), 0.0);
}

TEST(Deadline, BudgetCountsDown)
{
    // Virtual time: the countdown is asserted exactly, not "after a
    // sleep that was hopefully long enough on this machine".
    ManualTime clock;
    const Deadline d = Deadline::afterManual(60.0, clock);
    EXPECT_TRUE(d.bounded());
    EXPECT_FALSE(d.expired());
    EXPECT_DOUBLE_EQ(d.budgetSeconds(), 60.0);
    EXPECT_DOUBLE_EQ(d.remainingSeconds(), 60.0);
    clock.advance(2.0);
    EXPECT_DOUBLE_EQ(d.remainingSeconds(), 58.0);
    EXPECT_FALSE(d.expired());
    clock.advance(58.0);
    EXPECT_TRUE(d.expired());
    EXPECT_LE(d.remainingSeconds(), 0.0);
}

TEST(Deadline, CopiesShareTheExpiryInstant)
{
    ManualTime clock;
    const Deadline original = Deadline::afterManual(0.005, clock);
    const Deadline copy = original; // what stage-to-stage handoff does
    EXPECT_FALSE(copy.expired());
    clock.advance(0.010);
    EXPECT_TRUE(original.expired());
    EXPECT_TRUE(copy.expired());
}

TEST(ManualTime, StartsAtZeroAndOnlyMovesOnAdvance)
{
    ManualTime clock;
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
    clock.advance(1.5);
    EXPECT_DOUBLE_EQ(clock.now(), 1.5);
    clock.advance(0.25);
    EXPECT_DOUBLE_EQ(clock.now(), 1.75);
}

TEST(ManualTime, ConcurrentAdvancesAllLand)
{
    ManualTime clock;
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < 1000; ++i)
                clock.advance(0.001);
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_NEAR(clock.now(), 4.0, 1e-9);
}

// ---------------------------------------------------------------------
// FaultInjector: seeded, rate-based, scoped.

TEST(FaultInjector, DisabledByDefault)
{
    FaultInjector injector;
    EXPECT_FALSE(injector.enabled());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(injector.draw("qa"), StageFault::None);
    EXPECT_EQ(injector.draws(), 0u);
    EXPECT_EQ(injector.failuresInjected(), 0u);
}

TEST(FaultInjector, SameSeedSameStream)
{
    FaultConfig config;
    config.failureRate = 0.2;
    config.latencyRate = 0.1;
    config.corruptionRate = 0.1;
    FaultInjector a(config);
    FaultInjector b(config);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.draw("qa"), b.draw("qa"));
    EXPECT_EQ(a.failuresInjected(), b.failuresInjected());
    EXPECT_EQ(a.latenciesInjected(), b.latenciesInjected());
    EXPECT_EQ(a.corruptionsInjected(), b.corruptionsInjected());
}

TEST(FaultInjector, CountsFollowTheConfiguredRates)
{
    FaultConfig config;
    config.failureRate = 0.2;
    config.latencyRate = 0.05;
    FaultInjector injector(config);
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        injector.draw("qa");
    EXPECT_EQ(injector.draws(), static_cast<uint64_t>(n));
    const double failure_fraction =
        static_cast<double>(injector.failuresInjected()) / n;
    const double latency_fraction =
        static_cast<double>(injector.latenciesInjected()) / n;
    EXPECT_NEAR(failure_fraction, 0.2, 0.03);
    EXPECT_NEAR(latency_fraction, 0.05, 0.02);
    EXPECT_EQ(injector.corruptionsInjected(), 0u);
}

TEST(FaultInjector, ScopedStagesDrawNoneWithoutConsumingTheStream)
{
    FaultConfig config;
    config.failureRate = 0.5;
    config.faultQa = false;
    FaultInjector scoped(config);

    FaultConfig all = config;
    all.faultQa = true;
    FaultInjector reference(all);

    // Interleaving out-of-scope QA draws must not shift the ASR stream.
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(scoped.draw("qa"), StageFault::None);
        EXPECT_EQ(scoped.draw("asr"), reference.draw("asr"));
    }
    EXPECT_EQ(scoped.draws(), 100u); // only the in-scope draws counted
}

TEST(FaultInjector, CorruptAlwaysChangesNonEmptyText)
{
    FaultConfig config;
    config.corruptionRate = 1.0;
    FaultInjector injector(config);
    const std::string text = "the speed of light is 299792458 m/s";
    for (int i = 0; i < 20; ++i) {
        const std::string garbled = injector.corrupt(text);
        EXPECT_NE(garbled, text);
        EXPECT_EQ(garbled.size(), text.size());
    }
    EXPECT_TRUE(injector.corrupt("").empty());
    EXPECT_NE(injector.corrupt("z"), "z"); // forced-change path
}

TEST(FaultInjector, RejectsInvalidRates)
{
    FaultConfig over;
    over.failureRate = 0.8;
    over.latencyRate = 0.5;
    EXPECT_EXIT(FaultInjector{over}, ::testing::ExitedWithCode(1),
                "sum above 1");
    FaultConfig negative;
    negative.corruptionRate = -0.1;
    EXPECT_EXIT(FaultInjector{negative}, ::testing::ExitedWithCode(1),
                "non-negative");
}

// ---------------------------------------------------------------------
// Pipeline degradation paths. One shared trained pipeline (small QA
// corpus) keeps the suite fast, mirroring test_server.cc.

class RobustnessFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        SiriusConfig config;
        config.qa.fillerDocs = 60;
        pipeline_ = new SiriusPipeline(SiriusPipeline::build(config));
    }

    static void
    TearDownTestSuite()
    {
        delete pipeline_;
        pipeline_ = nullptr;
    }

    static const Query &
    someVq()
    {
        return standardQuerySet()[16];
    }

    static const Query &
    someViq()
    {
        return standardQuerySet()[32];
    }

    /** Serve @p query serially, folding its result into @p stats. */
    static void
    serveInto(ServerStats &stats, const Query &query,
              const ProcessOptions &options = {})
    {
        Stopwatch watch;
        const SiriusResult result = pipeline_->process(query, options);
        stats.record(result, watch.seconds());
    }

    static SiriusPipeline *pipeline_;
};

SiriusPipeline *RobustnessFixture::pipeline_ = nullptr;

TEST_F(RobustnessFixture, DefaultOptionsReproduceTheBaseline)
{
    const auto baseline = pipeline_->process(someVq());
    const auto robust = pipeline_->process(someVq(), ProcessOptions{});
    EXPECT_EQ(robust.transcript, baseline.transcript);
    EXPECT_EQ(robust.answer, baseline.answer);
    EXPECT_EQ(robust.degradation, Degradation::None);
    EXPECT_FALSE(robust.degraded());
    EXPECT_FALSE(robust.deadlineExpired);
    EXPECT_EQ(robust.stageRetries, 0);
    EXPECT_TRUE(robust.shedStages.empty());
}

TEST_F(RobustnessFixture, ExpiredAtEntryFailsWithoutRunningStages)
{
    ProcessOptions options;
    options.deadline = Deadline::after(0.0);
    const auto result = pipeline_->process(someViq(), options);
    EXPECT_EQ(result.degradation, Degradation::Failed);
    EXPECT_TRUE(result.deadlineExpired);
    EXPECT_TRUE(result.transcript.empty());
    EXPECT_TRUE(result.answer.empty());
    EXPECT_EQ(result.shedStages, "asr,imm,qa");
    // Nothing ran, so nothing was timed: overdue queries are near-free.
    EXPECT_EQ(result.timings.total(), 0.0);

    const auto vq = pipeline_->process(someVq(), options);
    EXPECT_EQ(vq.shedStages, "asr,qa");
}

TEST_F(RobustnessFixture, ImmFaultDowngradesViqToVq)
{
    FaultConfig config;
    config.failureRate = 1.0;
    config.faultAsr = false;
    config.faultQa = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.faults = &injector;

    const auto result = pipeline_->process(someViq(), options);
    EXPECT_EQ(result.degradation, Degradation::ViqToVq);
    EXPECT_EQ(result.shedStages, "imm");
    EXPECT_EQ(result.matchedLandmark, -1);
    // The VQ rung still delivers: transcript and an answer, just without
    // the landmark substitution.
    EXPECT_FALSE(result.transcript.empty());
    EXPECT_FALSE(result.answer.empty());
    EXPECT_EQ(result.augmentedQuestion, result.transcript);
}

TEST_F(RobustnessFixture, QaRetriesExhaustThenDegradeToVc)
{
    FaultConfig config;
    config.failureRate = 1.0;
    config.faultAsr = false;
    config.faultImm = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.faults = &injector;
    options.retry.maxRetries = 2;
    options.retry.backoffSeconds = 1e-5;

    const auto result = pipeline_->process(someVq(), options);
    EXPECT_EQ(result.degradation, Degradation::VqToVc);
    EXPECT_EQ(result.shedStages, "qa");
    EXPECT_EQ(result.stageRetries, 2); // retried, then gave up
    EXPECT_FALSE(result.transcript.empty()); // the VC-level partial
    EXPECT_EQ(result.queryClass, QueryClass::Question);
    EXPECT_TRUE(result.answer.empty());

    // The same loss on a VIQ query lands on the viq->vc rung.
    const auto viq = pipeline_->process(someViq(), options);
    EXPECT_EQ(viq.degradation, Degradation::ViqToVc);
}

TEST_F(RobustnessFixture, RetrySucceedsUnderPartialFaults)
{
    FaultConfig config;
    config.failureRate = 0.5;
    config.faultAsr = false;
    config.faultImm = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.faults = &injector;
    options.retry.maxRetries = 4;
    options.retry.backoffSeconds = 1e-5;

    int retries = 0, degraded = 0;
    const auto queries = queriesOfType(QueryType::VoiceQuery);
    for (const auto &query : queries) {
        const auto result = pipeline_->process(query, options);
        retries += result.stageRetries;
        degraded += result.degraded() ? 1 : 0;
    }
    // At 50% failure and 4 retries, most queries recover via retry.
    EXPECT_GT(retries, 0);
    EXPECT_LT(degraded, static_cast<int>(queries.size()) / 2);
    EXPECT_GT(injector.failuresInjected(), 0u);
}

TEST_F(RobustnessFixture, DeadlineExceededMidQaReturnsVcPartial)
{
    // A QA-scoped latency fault stalls past the whole budget: ASR
    // completes comfortably inside it, then the stall burns the rest, so
    // QA is cut short with nothing selected and the query bottoms out at
    // a VC-level partial result. The stall and the budget live on a
    // ManualTime, so the test is instant and immune to machine load —
    // real stage work costs zero virtual seconds, only the injected
    // latency moves the clock.
    ManualTime clock;
    FaultConfig config;
    config.latencyRate = 1.0;
    config.addedLatencySeconds = 3.0;
    config.latencyClock = &clock;
    config.faultAsr = false;
    config.faultImm = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.deadline = Deadline::afterManual(2.0, clock);
    options.faults = &injector;

    const auto result = pipeline_->process(someVq(), options);
    EXPECT_EQ(result.degradation, Degradation::VqToVc);
    EXPECT_EQ(result.shedStages, "qa");
    EXPECT_TRUE(result.deadlineExpired);
    EXPECT_FALSE(result.transcript.empty());
    EXPECT_TRUE(result.answer.empty());
    EXPECT_EQ(injector.latenciesInjected(), 1u);
}

TEST_F(RobustnessFixture, DeadlineExceededMidImmShedsBothUpperRungs)
{
    // The stall hits IMM on a VIQ query: IMM is cut short empty, and by
    // the time QA is reached the budget is gone — viq->vc, with the
    // transcript as the salvage. Virtual time again: 3 virtual seconds
    // of stall against a 2-virtual-second budget, no real sleeping.
    ManualTime clock;
    FaultConfig config;
    config.latencyRate = 1.0;
    config.addedLatencySeconds = 3.0;
    config.latencyClock = &clock;
    config.faultAsr = false;
    config.faultQa = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.deadline = Deadline::afterManual(2.0, clock);
    options.faults = &injector;

    const auto result = pipeline_->process(someViq(), options);
    EXPECT_EQ(result.degradation, Degradation::ViqToVc);
    EXPECT_EQ(result.shedStages, "imm,qa");
    EXPECT_TRUE(result.deadlineExpired);
    EXPECT_FALSE(result.transcript.empty());
    EXPECT_EQ(result.matchedLandmark, -1);
    EXPECT_TRUE(result.answer.empty());
}

TEST_F(RobustnessFixture, CorruptedQaAnswerStillServes)
{
    const auto baseline = pipeline_->process(someVq());
    ASSERT_FALSE(baseline.answer.empty());

    FaultConfig config;
    config.corruptionRate = 1.0;
    config.faultAsr = false;
    config.faultImm = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.faults = &injector;

    const auto result = pipeline_->process(someVq(), options);
    // Corruption is served-but-wrong, not shed: the ladder stays put.
    EXPECT_EQ(result.degradation, Degradation::None);
    EXPECT_FALSE(result.answer.empty());
    EXPECT_NE(result.answer, baseline.answer);
    EXPECT_EQ(injector.corruptionsInjected(), 1u);
}

TEST_F(RobustnessFixture, CorruptedImmMatchIsDiscardedNotTrusted)
{
    FaultConfig config;
    config.corruptionRate = 1.0;
    config.faultAsr = false;
    config.faultQa = false;
    FaultInjector injector(config);
    ProcessOptions options;
    options.faults = &injector;

    const auto result = pipeline_->process(someViq(), options);
    // A garbled match must not augment the question with a wrong
    // landmark; the query proceeds as a plain VQ but is not counted as
    // degraded (the stage ran; its output was quarantined).
    EXPECT_EQ(result.matchedLandmark, -1);
    EXPECT_EQ(result.degradation, Degradation::None);
    EXPECT_EQ(result.augmentedQuestion, result.transcript);
}

TEST_F(RobustnessFixture, ServiceLevelDeadlinesCutWorkShort)
{
    const Deadline expired = Deadline::after(0.0);

    const auto wave = pipeline_->asr().synthesize(someVq().text);
    const auto asr = pipeline_->asr().transcribe(wave, expired);
    EXPECT_TRUE(asr.cutShort);
    EXPECT_TRUE(asr.text.empty());

    const auto qa = pipeline_->qa().answer(someVq().text, expired);
    EXPECT_TRUE(qa.cutShort);
    EXPECT_TRUE(qa.answer.empty());

    const auto image = vision::generateQueryView(someViq().landmarkId);
    const auto imm = pipeline_->imm().match(image, expired);
    EXPECT_TRUE(imm.cutShort);

    // Unbounded deadlines never cut anything short.
    const auto full = pipeline_->asr().transcribe(wave, Deadline());
    EXPECT_FALSE(full.cutShort);
    EXPECT_FALSE(full.text.empty());
}

// ---------------------------------------------------------------------
// ServerStats: the counters that price degradation.

TEST_F(RobustnessFixture, DegradedFractionMatchesInjectedRate)
{
    // The acceptance experiment: QA-only failures at rate r with no
    // retries make every injected failure exactly one degraded query, so
    // the server's degraded count must equal the injector's failure
    // count, and the degraded fraction must sit near r.
    const double rate = 0.25;
    FaultConfig config;
    config.failureRate = rate;
    config.faultAsr = false;
    config.faultImm = false;
    config.seed = 0xD06F00D;
    FaultInjector injector(config);
    ProcessOptions options;
    options.faults = &injector;

    ServerStats stats;
    const auto queries = queriesOfType(QueryType::VoiceQuery);
    const size_t n = 200;
    for (size_t i = 0; i < n; ++i)
        serveInto(stats, queries[i % queries.size()], options);

    EXPECT_EQ(stats.served, n);
    EXPECT_EQ(stats.failed, 0u); // QA loss degrades, never fails
    EXPECT_EQ(stats.degraded, injector.failuresInjected());
    EXPECT_EQ(stats.degradationCounts[size_t(Degradation::VqToVc)],
              stats.degraded);
    EXPECT_EQ(stats.degradedSeconds.count(), stats.degraded);
    const double fraction = static_cast<double>(stats.degraded) /
        static_cast<double>(stats.served);
    EXPECT_NEAR(fraction, rate, 0.08);
}

TEST_F(RobustnessFixture, StatsMergeFoldsRobustnessCounters)
{
    ServerStats a, b;

    FaultConfig config;
    config.failureRate = 1.0;
    config.faultAsr = false;
    config.faultQa = false;
    FaultInjector injector(config);
    ProcessOptions imm_loss;
    imm_loss.faults = &injector;
    imm_loss.retry.maxRetries = 1;
    imm_loss.retry.backoffSeconds = 1e-5;

    ProcessOptions overdue;
    overdue.deadline = Deadline::after(0.0);

    serveInto(a, someVq());            // clean
    serveInto(a, someViq(), imm_loss); // viq->vq with one retry
    serveInto(b, someVq(), overdue);   // failed + deadline miss

    ServerStats fleet;
    fleet.merge(a);
    fleet.merge(b);
    EXPECT_EQ(fleet.served, 3u);
    EXPECT_EQ(fleet.degraded, 1u);
    EXPECT_EQ(fleet.failed, 1u);
    EXPECT_EQ(fleet.deadlineMisses, 1u);
    EXPECT_EQ(fleet.stageRetries, 1u);
    EXPECT_EQ(fleet.degradationCounts[size_t(Degradation::None)], 1u);
    EXPECT_EQ(fleet.degradationCounts[size_t(Degradation::ViqToVq)], 1u);
    EXPECT_EQ(fleet.degradationCounts[size_t(Degradation::Failed)], 1u);
    EXPECT_EQ(fleet.degradedSeconds.count(), 1u);
    // A failed query is neither an action nor an answer.
    EXPECT_EQ(fleet.actions + fleet.answers, 2u);
}

// ---------------------------------------------------------------------
// ConcurrentServer: the policy applied from the admission point.

TEST_F(RobustnessFixture, ConcurrentFaultCountsStayConsistent)
{
    FaultConfig fault_config;
    fault_config.failureRate = 0.3;
    fault_config.faultAsr = false;
    fault_config.faultImm = false;
    FaultInjector injector(fault_config);

    ConcurrentServerConfig config;
    config.workers = 4;
    config.queueCapacity = 128;
    config.faults = &injector;
    ConcurrentServer server(*pipeline_, config);
    for (const auto &query : standardQuerySet())
        ASSERT_TRUE(server.submit(query));
    server.drain();

    const auto stats = server.snapshot();
    EXPECT_EQ(stats.server.served, standardQuerySet().size());
    // QA-only failures with no retries: every injected failure is
    // exactly one degraded (VC commands never reach QA), regardless of
    // how the workers interleaved their draws.
    EXPECT_EQ(stats.server.degraded, injector.failuresInjected());
    EXPECT_EQ(stats.server.failed, 0u);
    uint64_t laddered = 0;
    for (size_t i = 1; i < stats.server.degradationCounts.size(); ++i)
        laddered += stats.server.degradationCounts[i];
    EXPECT_EQ(laddered, stats.server.degraded + stats.server.failed);
    EXPECT_EQ(stats.server.actions + stats.server.answers,
              stats.server.served - stats.server.failed);
}

TEST_F(RobustnessFixture, OverloadedServerShedsOverdueQueriesCheaply)
{
    // One worker, a burst far past what the deadline allows: late queue
    // entries expire while waiting and must complete near-free as Failed
    // instead of stretching the backlog.
    ConcurrentServerConfig config;
    config.workers = 1;
    config.queueCapacity = 256;
    config.deadlineSeconds = 0.05;
    ConcurrentServer server(*pipeline_, config);

    const auto &queries = standardQuerySet();
    for (size_t i = 0; i < queries.size(); ++i)
        ASSERT_TRUE(server.submit(queries[i]));
    server.drain();

    const auto stats = server.snapshot();
    EXPECT_EQ(stats.server.served, queries.size());
    EXPECT_GT(stats.server.deadlineMisses, 0u);
    EXPECT_GT(stats.server.failed + stats.server.degraded, 0u);
    // Every completion is accounted on exactly one ladder rung.
    uint64_t rungs = 0;
    for (uint64_t count : stats.server.degradationCounts)
        rungs += count;
    EXPECT_EQ(rungs, stats.server.served);
}

} // namespace
