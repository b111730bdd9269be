/**
 * @file
 * Tests for the leaf server's statistics (ServerStats), the concurrent
 * leaf server built on the pipeline, and the load generators and
 * service-time probe that drive it.
 *
 * Flakiness audit: nothing here sleeps or races a wall-clock window.
 * Generator assertions are conservation laws (every request accounted
 * for), never latency values. Queueing assertions replay measured
 * service times through dcsim::simulateQueueEmpirical's virtual-time
 * Lindley recursion and compare heavy vs light load within one run, so
 * a slow or preempted CI machine shifts both sides together. Tests that need
 * absolute timing use ManualTime instead (see test_robustness.cc and
 * test_batching.cc).
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "core/load_generator.h"
#include "dcsim/simulation.h"

namespace {

using namespace sirius;
using namespace sirius::core;

/** Serve @p query serially, folding its result into @p stats. */
void
serveInto(ServerStats &stats, const SiriusPipeline &pipeline,
          const Query &query)
{
    Stopwatch watch;
    const SiriusResult result = pipeline.process(query);
    stats.record(result, watch.seconds());
}

class ServerFixture : public ::testing::Test
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

    static SiriusPipeline *pipeline_;
};

SiriusPipeline *ServerFixture::pipeline_ = nullptr;

TEST_F(ServerFixture, StatsAccumulate)
{
    ServerStats stats;
    const auto queries = standardQuerySet();
    serveInto(stats, *pipeline_, queries[0]);  // a VC
    serveInto(stats, *pipeline_, queries[16]); // a VQ
    EXPECT_EQ(stats.served, 2u);
    EXPECT_EQ(stats.actions, 1u);
    EXPECT_EQ(stats.answers, 1u);
    EXPECT_GT(stats.serviceSeconds.mean(), 0.0);
}

TEST_F(ServerFixture, LoadTestLatencyGrowsWithLoad)
{
    // The replay load test: measured per-query service times fed through
    // the virtual-time queue, as load_test's default mode does.
    const SampleStats service = measureServiceSeconds(*pipeline_);
    const double capacity = 1.0 / service.mean();

    const auto light = dcsim::simulateQueueEmpirical(
        service.samples(), 0.2 * capacity, 2000);
    const auto heavy = dcsim::simulateQueueEmpirical(
        service.samples(), 0.8 * capacity, 2000);
    EXPECT_GT(heavy.sojournSeconds.mean(), light.sojournSeconds.mean());
    EXPECT_GT(heavy.utilization, light.utilization);
    // Mean sojourn can never be below the mean service time.
    const double mean_service = 1.0 / capacity;
    EXPECT_GE(light.sojournSeconds.mean(), mean_service * 0.5);
}

TEST_F(ServerFixture, LoadTestRejectsOverload)
{
    const SampleStats service = measureServiceSeconds(*pipeline_);
    const double capacity = 1.0 / service.mean();
    EXPECT_EXIT(dcsim::simulateQueueEmpirical(service.samples(),
                                              3.0 * capacity, 100),
                ::testing::ExitedWithCode(1), "unstable");
}

TEST_F(ServerFixture, ServiceProbeTimesEveryStandardQuery)
{
    const SampleStats service = measureServiceSeconds(*pipeline_);
    EXPECT_EQ(service.count(), standardQuerySet().size());
    EXPECT_GT(service.min(), 0.0);
}

TEST_F(ServerFixture, SequentialServerRecordsStageHistograms)
{
    ServerStats stats;
    for (const auto &query : standardQuerySet())
        serveInto(stats, *pipeline_, query);
    EXPECT_EQ(stats.serviceHistogram.count(), stats.served);
    EXPECT_EQ(stats.asrSeconds.count(), stats.served);
    // Every query runs ASR; only VIQ queries run IMM, and its histogram
    // still gets one (zero-duration) entry per request.
    EXPECT_GT(stats.asrSeconds.mean(), 0.0);
    EXPECT_LE(stats.serviceHistogram.p50(), stats.serviceHistogram.p99());
}

TEST_F(ServerFixture, ConcurrentMatchesSequentialCounts)
{
    ServerStats sequential;
    for (const auto &query : standardQuerySet())
        serveInto(sequential, *pipeline_, query);

    ConcurrentServerConfig config;
    config.workers = 4;
    config.queueCapacity = 128;
    ConcurrentServer server(*pipeline_, config);
    ASSERT_GE(server.workerCount(), 4u);
    for (const auto &query : standardQuerySet())
        ASSERT_TRUE(server.submit(query));
    server.drain();

    const auto stats = server.snapshot();
    EXPECT_EQ(stats.accepted, standardQuerySet().size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.server.served, sequential.served);
    EXPECT_EQ(stats.server.actions, sequential.actions);
    EXPECT_EQ(stats.server.answers, sequential.answers);
    EXPECT_EQ(stats.server.serviceHistogram.count(), stats.server.served);
}

TEST_F(ServerFixture, ConcurrentClientsAllServed)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kQueriesEach = 8;
    ConcurrentServer server(*pipeline_);

    const auto &queries = standardQuerySet();
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&server, &queries, t] {
            for (size_t i = 0; i < kQueriesEach; ++i) {
                const auto &query =
                    queries[(t * kQueriesEach + i) % queries.size()];
                const auto result = server.handle(query);
                EXPECT_FALSE(result.transcript.empty());
            }
        });
    }
    for (auto &client : clients)
        client.join();

    const auto stats = server.snapshot();
    EXPECT_EQ(stats.server.served, kThreads * kQueriesEach);
    EXPECT_EQ(stats.accepted, kThreads * kQueriesEach);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.server.actions + stats.server.answers,
              kThreads * kQueriesEach);
    EXPECT_EQ(stats.server.serviceSeconds.count(),
              kThreads * kQueriesEach);
}

TEST_F(ServerFixture, SaturatedQueueShedsAndDrainsCleanly)
{
    ConcurrentServerConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    ConcurrentServer server(*pipeline_, config);

    const auto &queries = standardQuerySet();
    uint64_t admitted = 0, shed = 0;
    // Burst far past queue capacity faster than one worker can drain.
    for (size_t i = 0; i < 64; ++i) {
        if (server.submit(queries[i % queries.size()]))
            ++admitted;
        else
            ++shed;
    }
    server.drain();

    const auto stats = server.snapshot();
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(stats.accepted, admitted);
    EXPECT_EQ(stats.rejected, shed);
    EXPECT_EQ(stats.accepted + stats.rejected, 64u);
    // Drain loses nothing: every admitted request was served.
    EXPECT_EQ(stats.server.served, admitted);
}

TEST_F(ServerFixture, SnapshotPercentilesMonotone)
{
    ConcurrentServer server(*pipeline_);
    for (const auto &query : standardQuerySet())
        ASSERT_TRUE(server.submit(query));
    server.drain();

    const auto stats = server.snapshot();
    for (const auto *hist :
         {&stats.server.serviceHistogram, &stats.server.asrSeconds,
          &stats.server.qaSeconds, &stats.server.immSeconds}) {
        EXPECT_LE(hist->p50(), hist->p95());
        EXPECT_LE(hist->p95(), hist->p99());
    }
    EXPECT_GT(stats.server.serviceHistogram.p50(), 0.0);
    EXPECT_GT(server.serviceRate(), 0.0);
    // The profiler attributed stage time across workers.
    EXPECT_GT(server.profiler().totalSeconds(), 0.0);
    EXPECT_GT(server.profiler().seconds("asr"), 0.0);
}

TEST_F(ServerFixture, OpenLoopGeneratorAccountsForEveryRequest)
{
    ConcurrentServerConfig config;
    config.workers = 2;
    ConcurrentServer server(*pipeline_, config);
    const double mu = 1.0 / measureServiceSeconds(*pipeline_).mean();

    const auto result = runOpenLoop(server, 0.5 * mu, 40);
    EXPECT_EQ(result.offered, 40u);
    EXPECT_EQ(result.completed + result.rejected, result.offered);
    EXPECT_EQ(result.sojournSeconds.count(), result.completed);
    EXPECT_GT(result.elapsedSeconds, 0.0);
    // Sojourn includes service, so it can't be faster than the fastest
    // possible query.
    EXPECT_GT(result.sojournSeconds.min(), 0.0);
}

TEST_F(ServerFixture, ClosedLoopGeneratorServesExactly)
{
    ConcurrentServer server(*pipeline_);
    const auto result = runClosedLoop(server, 3, 5);
    EXPECT_EQ(result.offered, 15u);
    EXPECT_EQ(result.completed, 15u);
    EXPECT_EQ(result.rejected, 0u);
    EXPECT_EQ(server.snapshot().server.served, 15u);
    EXPECT_GT(result.achievedQps, 0.0);
}

TEST_F(ServerFixture, StatsMergeCombinesLeafViews)
{
    ServerStats a, b;
    const auto &queries = standardQuerySet();
    serveInto(a, *pipeline_, queries[0]);
    serveInto(b, *pipeline_, queries[16]);
    serveInto(b, *pipeline_, queries[17]);

    ServerStats fleet;
    fleet.merge(a);
    fleet.merge(b);
    EXPECT_EQ(fleet.served, 3u);
    EXPECT_EQ(fleet.actions, 1u);
    EXPECT_EQ(fleet.answers, 2u);
    EXPECT_EQ(fleet.serviceHistogram.count(), 3u);
    EXPECT_EQ(fleet.serviceSeconds.count(), 3u);
}

} // namespace
