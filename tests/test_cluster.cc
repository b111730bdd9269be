/**
 * @file
 * Tests for the scale-out serving tier: ClusterRouter routing policies,
 * shard health (ejection + probed recovery), failover, hedging, fleet
 * statistics, and the virtual-time fleet projection.
 *
 * Flakiness audit: routing and failover assertions run queries
 * sequentially (handle()), so distribution properties are exact, not
 * statistical. The concurrency tests assert conservation laws
 * (delivered-once, drained-to-zero) that hold under any interleaving,
 * never wall-clock values. The fleet projection is pure virtual time.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/critical_path.h"
#include "common/fault_injection.h"
#include "common/flight_recorder.h"
#include "core/load_generator.h"
#include "dcsim/queueing.h"

namespace {

using namespace sirius;
using namespace sirius::core;

class ClusterFixture : public ::testing::Test
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

    /** A small cluster over the shared pipeline. */
    static ClusterConfig
    smallCluster(size_t shards, RoutingPolicy policy)
    {
        ClusterConfig cluster;
        cluster.shards = shards;
        cluster.policy = policy;
        cluster.shard.workers = 1;
        cluster.shard.queueCapacity = 64;
        return cluster;
    }

    /** Which shard served the single query just handled. */
    static size_t
    servedBy(const ClusterRouter &router,
             const std::vector<uint64_t> &before)
    {
        for (size_t i = 0; i < router.shardCount(); ++i) {
            const auto served =
                router.shard(i).server().snapshot().server.served;
            if (served != before[i])
                return i;
        }
        return SIZE_MAX;
    }

    static std::vector<uint64_t>
    servedCounts(const ClusterRouter &router)
    {
        std::vector<uint64_t> out;
        for (size_t i = 0; i < router.shardCount(); ++i)
            out.push_back(
                router.shard(i).server().snapshot().server.served);
        return out;
    }

    static SiriusPipeline *pipeline_;
};

SiriusPipeline *ClusterFixture::pipeline_ = nullptr;

TEST(RoutingPolicy, NamesRoundTrip)
{
    for (size_t i = 0; i < kRoutingPolicies; ++i) {
        const auto policy = static_cast<RoutingPolicy>(i);
        RoutingPolicy parsed;
        ASSERT_TRUE(
            routingPolicyFromName(routingPolicyName(policy), parsed));
        EXPECT_EQ(parsed, policy);
    }
    RoutingPolicy out;
    EXPECT_FALSE(routingPolicyFromName("zig-zag", out));
}

TEST_F(ClusterFixture, RoundRobinDistributesExactly)
{
    ClusterRouter router(
        *pipeline_, smallCluster(4, RoutingPolicy::RoundRobin));
    const auto &queries = standardQuerySet();
    // Sequential traffic: round robin must land exactly N/4 per shard.
    for (size_t round = 0; round < 2; ++round)
        for (size_t i = 0; i < 40; ++i)
            router.handle(queries[i % queries.size()]);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(router.shard(i).server().snapshot().server.served,
                  20u)
            << "shard " << i;
}

TEST_F(ClusterFixture, LeastOutstandingSpreadsIdleTies)
{
    ClusterRouter router(
        *pipeline_, smallCluster(4, RoutingPolicy::LeastOutstanding));
    const auto &queries = standardQuerySet();
    // Sequential traffic never queues, so every pick is an all-idle
    // tie; the rotating tie-break must spread them evenly.
    for (size_t i = 0; i < 40; ++i)
        router.handle(queries[i % queries.size()]);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(router.shard(i).server().snapshot().server.served,
                  10u)
            << "shard " << i;
}

TEST_F(ClusterFixture, PowerOfTwoUsesEveryShardDeterministically)
{
    auto config = smallCluster(4, RoutingPolicy::PowerOfTwo);
    config.seed = 7;
    ClusterRouter router(*pipeline_, config);
    const auto &queries = standardQuerySet();
    for (size_t i = 0; i < 60; ++i)
        router.handle(queries[i % queries.size()]);
    // Seeded draws: the exact split is deterministic; the property
    // worth holding is that no shard starves and all queries land.
    uint64_t total = 0;
    for (size_t i = 0; i < 4; ++i) {
        const auto served =
            router.shard(i).server().snapshot().server.served;
        EXPECT_GT(served, 0u) << "shard " << i << " starved";
        total += served;
    }
    EXPECT_EQ(total, 60u);
}

TEST_F(ClusterFixture, AffinityRoutesRepeatsToTheSameShard)
{
    ClusterRouter router(
        *pipeline_, smallCluster(4, RoutingPolicy::AffinityHash));
    const auto &queries = standardQuerySet();
    std::vector<size_t> home(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        const auto before = servedCounts(router);
        router.handle(queries[i]);
        home[i] = servedBy(router, before);
        ASSERT_NE(home[i], SIZE_MAX);
    }
    // Repeats land on the same shard (this is what keeps the per-shard
    // caches warm), and the hash actually spreads the query set.
    std::set<size_t> used;
    for (size_t round = 0; round < 2; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
            const auto before = servedCounts(router);
            router.handle(queries[i]);
            EXPECT_EQ(servedBy(router, before), home[i])
                << "query " << i << " moved between repeats";
            used.insert(home[i]);
        }
    }
    EXPECT_GE(used.size(), 2u) << "affinity hash collapsed the fleet";
}

TEST_F(ClusterFixture, KillShardReroutesWithoutFailures)
{
    ClusterRouter router(
        *pipeline_, smallCluster(4, RoutingPolicy::RoundRobin));
    const auto &queries = standardQuerySet();
    router.killShard(2);
    for (const auto &query : queries)
        router.handle(query);
    const auto stats = router.snapshot();
    EXPECT_EQ(router.shard(2).server().snapshot().server.served, 0u);
    EXPECT_EQ(stats.outcomes[static_cast<size_t>(Degradation::Failed)],
              0u);
    EXPECT_EQ(stats.healthyShards, 3u);
    EXPECT_EQ(stats.fleet.served, queries.size());

    // Revive: the shard takes traffic again.
    router.reviveShard(2);
    for (size_t i = 0; i < 8; ++i)
        router.handle(queries[i]);
    EXPECT_GT(router.shard(2).server().snapshot().server.served, 0u);
}

TEST_F(ClusterFixture, SubmitRejectsWhenEveryShardIsDown)
{
    ClusterRouter router(
        *pipeline_, smallCluster(2, RoutingPolicy::RoundRobin));
    router.killShard(0);
    router.killShard(1);
    EXPECT_FALSE(router.submit(standardQuerySet()[0]));
    EXPECT_EQ(router.snapshot().rejected, 1u);
    router.drain(); // must not hang with zero in-flight queries
}

/**
 * One line per query, discrete fields only — the same format
 * tests/golden/e2e_results.txt stores (see test_batching.cc).
 */
std::string
goldenLine(size_t index, const Query &query, const SiriusResult &result)
{
    std::ostringstream out;
    out << index << '|' << queryTypeName(query.type) << '|'
        << degradationName(result.degradation) << '|'
        << static_cast<int>(result.queryClass) << '|'
        << result.matchedLandmark << '|' << result.transcript << '|'
        << result.answer;
    return out.str();
}

TEST_F(ClusterFixture, FailoverResultsMatchSingleShardGoldens)
{
    // Shard 0 fails every stage attempt; shard 1 is clean. Every query
    // that lands on shard 0 comes back Failed and must fail over to
    // shard 1, whose answer is bitwise-identical to the single-server
    // golden (replicas run the same trained pipeline).
    FaultConfig faults;
    faults.failureRate = 1.0;
    FaultInjector broken(faults);

    auto config = smallCluster(2, RoutingPolicy::RoundRobin);
    config.shard.retry.maxRetries = 0;
    config.shardFaults = {&broken, nullptr};
    // Keep shard 0 in rotation the whole run so failover (not
    // ejection) is what the test exercises.
    config.health.minSamples = 1000;
    ClusterRouter router(*pipeline_, config);

    const auto &queries = standardQuerySet();
    std::vector<std::string> lines;
    for (size_t i = 0; i < queries.size(); ++i)
        lines.push_back(
            goldenLine(i, queries[i], router.handle(queries[i])));

    const auto stats = router.snapshot();
    EXPECT_GT(stats.failovers, 0u);
    EXPECT_EQ(stats.outcomes[static_cast<size_t>(Degradation::Failed)],
              0u);

    const std::string path =
        std::string(SIRIUS_SOURCE_DIR) + "/tests/golden/e2e_results.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " missing — run scripts/regen_goldens.sh";
    std::string expected;
    for (size_t i = 0; i < lines.size(); ++i) {
        ASSERT_TRUE(std::getline(in, expected)) << "golden truncated";
        EXPECT_EQ(lines[i], expected) << "query " << i;
    }
}

TEST_F(ClusterFixture, EjectionAndProbedRecovery)
{
    FaultConfig faults;
    faults.failureRate = 1.0;
    FaultInjector flaky(faults);

    auto config = smallCluster(2, RoutingPolicy::RoundRobin);
    config.shard.retry.maxRetries = 0;
    config.shardFaults = {&flaky, nullptr};
    config.health.window = 16;
    config.health.minSamples = 4;
    config.health.ejectBadRate = 0.4;
    config.health.probeAfterSeconds = 0.0; // probe immediately
    config.health.recoveryProbes = 2;
    ClusterRouter router(*pipeline_, config);

    const auto &queries = standardQuerySet();
    // Enough sequential queries that shard 0's window fills with bad
    // outcomes and ejects it.
    for (size_t i = 0; i < 16; ++i)
        router.handle(queries[i % queries.size()]);
    EXPECT_EQ(router.shard(0).ejections(), 1u);
    EXPECT_FALSE(router.shard(0).healthy());

    // The dependency recovers: disarm the injector, keep traffic
    // flowing; probes go through shard 0, succeed, and re-admit it.
    flaky.setEnabled(false);
    for (size_t i = 0; i < 16 && !router.shard(0).healthy(); ++i)
        router.handle(queries[i % queries.size()]);
    EXPECT_TRUE(router.shard(0).healthy());
    EXPECT_EQ(router.shard(0).recoveries(), 1u);
    EXPECT_GE(router.shard(0).probes(), 2u);

    // Through the whole outage, no query was lost.
    const auto stats = router.snapshot();
    EXPECT_EQ(stats.outcomes[static_cast<size_t>(Degradation::Failed)],
              0u);
    EXPECT_EQ(stats.healthyShards, 2u);
}

TEST_F(ClusterFixture, HedgingDeliversExactlyOnce)
{
    auto config = smallCluster(2, RoutingPolicy::RoundRobin);
    config.shard.workers = 2;
    // Far below any real service time: every query's hedge fires, and
    // delivered-once must still hold.
    config.hedgeSeconds = 1e-4;
    ClusterRouter router(*pipeline_, config);

    const size_t clients = 4, per_client = 10;
    const auto result = runClosedLoop(router, clients, per_client);
    EXPECT_EQ(result.completed, clients * per_client);

    const auto stats = router.snapshot();
    EXPECT_EQ(stats.accepted, clients * per_client);
    EXPECT_GT(stats.hedgesFired, 0u);
    EXPECT_EQ(stats.failovers, 0u) << "hedged queries must not also "
                                      "fail over";
    uint64_t delivered = 0;
    for (size_t i = 0; i < kDegradationLevels; ++i)
        delivered += stats.outcomes[i];
    EXPECT_EQ(delivered, clients * per_client);
    // Every leg (primary + hedges) completed and was counted.
    EXPECT_EQ(stats.fleet.served, stats.accepted + stats.hedgesFired);
}

TEST_F(ClusterFixture, ConcurrentRoutingConservesQueries)
{
    // The TSan target: many clients, p2c routing, hedging on — every
    // conservation law must hold under arbitrary interleavings.
    auto config = smallCluster(4, RoutingPolicy::PowerOfTwo);
    config.shard.workers = 2;
    config.hedgeSeconds = 0.002;
    ClusterRouter router(*pipeline_, config);

    const size_t clients = 8, per_client = 6;
    const auto result = runClosedLoop(router, clients, per_client);
    EXPECT_EQ(result.completed, clients * per_client);

    const auto stats = router.snapshot();
    EXPECT_EQ(stats.accepted, clients * per_client);
    EXPECT_EQ(stats.rejected, 0u);
    uint64_t delivered = 0;
    for (size_t i = 0; i < kDegradationLevels; ++i)
        delivered += stats.outcomes[i];
    EXPECT_EQ(delivered, stats.accepted);
    uint64_t shard_served = 0;
    for (const auto &shard : stats.shards)
        shard_served += shard.server.served;
    EXPECT_EQ(shard_served, stats.fleet.served);
    EXPECT_EQ(stats.fleet.served,
              stats.accepted + stats.failovers + stats.hedgesFired +
                  stats.probes);
}

TEST_F(ClusterFixture, FleetStatsAndMetricsMerge)
{
    ClusterRouter router(
        *pipeline_, smallCluster(2, RoutingPolicy::RoundRobin));
    const auto &queries = standardQuerySet();
    for (const auto &query : queries)
        router.handle(query);

    const auto stats = router.snapshot();
    EXPECT_EQ(stats.fleet.served, queries.size());
    EXPECT_EQ(stats.fleet.served,
              stats.shards[0].server.served +
                  stats.shards[1].server.served);
    EXPECT_EQ(stats.fleet.serviceHistogram.count(), queries.size());

    const std::string prom = stats.metrics.renderPrometheus();
    EXPECT_NE(prom.find("sirius_cluster_shards"), std::string::npos);
    EXPECT_NE(prom.find("sirius_cluster_routed_total"),
              std::string::npos);
    EXPECT_NE(prom.find("sirius_cluster_shard_healthy"),
              std::string::npos);
    EXPECT_NE(prom.find("server=\"shard0\""), std::string::npos);
    EXPECT_NE(prom.find("server=\"shard1\""), std::string::npos);
    EXPECT_NE(prom.find("policy=\"rr\""), std::string::npos);
}

TEST_F(ClusterFixture, RouteSpansCarryRoutingAttributes)
{
    auto config = smallCluster(2, RoutingPolicy::AffinityHash);
    config.shard.traceSampleRate = 1.0;
    ClusterRouter router(*pipeline_, config);
    const auto &queries = standardQuerySet();
    for (size_t i = 0; i < 8; ++i)
        router.handle(queries[i]);

    const auto spans = router.traces().snapshot();
    // Every query leaves one "route" summary plus one "route_leg" per
    // dispatched leg (exactly one each here: no hedging, no failures).
    size_t routes = 0, legs = 0;
    for (const auto &span : spans) {
        EXPECT_EQ(span.kind, SpanKind::Route);
        EXPECT_GT(span.durationSeconds, 0.0);
        if (span.name == "route_leg") {
            ++legs;
            bool has_arm = false, has_won = false;
            for (const auto &[key, value] : span.attrs) {
                if (key == "arm") {
                    has_arm = true;
                    EXPECT_EQ(value, "primary");
                }
                if (key == "won") {
                    has_won = true;
                    EXPECT_EQ(value, "1");
                }
            }
            EXPECT_TRUE(has_arm && has_won);
            EXPECT_NE(span.parentId, 0u);
            continue;
        }
        ++routes;
        EXPECT_EQ(span.name, "route");
        bool has_shard = false, has_policy = false, has_outcome = false;
        for (const auto &[key, value] : span.attrs) {
            if (key == "shard")
                has_shard = true;
            if (key == "policy") {
                has_policy = true;
                EXPECT_EQ(value, "affinity");
            }
            if (key == "outcome")
                has_outcome = true;
        }
        EXPECT_TRUE(has_shard && has_policy && has_outcome);
    }
    EXPECT_EQ(routes, 8u);
    EXPECT_EQ(legs, 8u);
}

TEST_F(ClusterFixture, StitchedHedgedTraceAttributesAllLatency)
{
    // The acceptance contract for trace stitching: a hedged cluster
    // query's flight-recorded trace must attribute 100% of its
    // end-to-end latency — the critical-path segments sum to the root
    // route span within 1 µs, and the winning arm is identified.
    auto config = smallCluster(2, RoutingPolicy::RoundRobin);
    config.shard.workers = 2;
    config.shard.traceSampleRate = 1.0;
    config.hedgeSeconds = 1e-4; // every query hedges

    FlightRecorderConfig flight_config;
    flight_config.slowestCapacity = 64;
    flight_config.byteBudget = 32 << 20;
    FlightRecorder flight(flight_config);
    config.flight = &flight;

    ClusterRouter router(*pipeline_, config);
    const size_t clients = 2, per_client = 4;
    const auto result = runClosedLoop(router, clients, per_client);
    ASSERT_EQ(result.completed, clients * per_client);

    const auto traces = flight.snapshot();
    ASSERT_GE(traces.size(), clients * per_client)
        << "every completed query must be flight-recorded at this "
           "capacity";
    size_t analyzed = 0, hedged = 0;
    for (const auto &trace : traces) {
        const auto report = analyzeCriticalPath(trace.spans);
        ASSERT_TRUE(report.valid) << "trace " << trace.traceId;
        ASSERT_TRUE(report.stitched) << "trace " << trace.traceId;
        ++analyzed;
        hedged += report.hedged ? 1 : 0;
        EXPECT_FALSE(report.winnerArm.empty());
        EXPECT_FALSE(report.winnerShard.empty());
        EXPECT_GT(report.totalSeconds, 0.0);
        EXPECT_GT(report.segments.size(), 1u)
            << "stitching must expose the winning leg's segments, not "
               "one opaque route slice";
        EXPECT_NEAR(report.sumSeconds(), report.totalSeconds, 1e-6)
            << "trace " << trace.traceId
            << " leaks latency out of the partition";
    }
    EXPECT_EQ(analyzed, traces.size());
    EXPECT_GT(hedged, 0u)
        << "a 100 µs hedge trigger must hedge at least one query";
}

TEST_F(ClusterFixture, TraceDroppedCounterIsExportedAndZeroHere)
{
    auto config = smallCluster(2, RoutingPolicy::RoundRobin);
    config.shard.traceSampleRate = 1.0;
    ClusterRouter router(*pipeline_, config);
    const auto &queries = standardQuerySet();
    for (size_t i = 0; i < 8; ++i)
        router.handle(queries[i]);

    const auto stats = router.snapshot();
    EXPECT_EQ(stats.traceDropped, 0u);
    MetricsRegistry registry;
    router.exportMetrics(registry, {});
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("sirius_trace_dropped_total"),
              std::string::npos);
}

TEST_F(ClusterFixture, PerShardCachesStayWarmUnderAffinity)
{
    auto config = smallCluster(2, RoutingPolicy::AffinityHash);
    config.shard.cache.enabled = true;
    ClusterRouter router(*pipeline_, config);
    const auto &queries = standardQuerySet();
    for (size_t round = 0; round < 3; ++round)
        for (const auto &query : queries)
            router.handle(query);
    // Affinity sends every repeat to the shard that cached it, so the
    // answer cache hits from round 2 on.
    const auto stats = router.snapshot();
    EXPECT_GT(stats.caches.answers.hits, 0u);
}

TEST_F(ClusterFixture, FaultDrillCountsEachDeliveredQueryOnce)
{
    // Shard 0 turns fault-mode dead mid-run. Every leg it fails lands
    // in the fleet's per-leg stats, but failover rescues the query, so
    // the client — and the generator's degraded count — sees a clean
    // answer. The count must match the router's delivered outcomes.
    FaultConfig faults;
    faults.failureRate = 1.0;
    FaultInjector drill(faults);
    drill.setEnabled(false);

    auto config = smallCluster(2, RoutingPolicy::RoundRobin);
    config.shard.retry.maxRetries = 0;
    config.shardFaults = {&drill, nullptr};
    // Keep shard 0 in rotation so failover (not ejection) absorbs it.
    config.health.minSamples = 1000;
    ClusterRouter router(*pipeline_, config);

    LoadOptions load;
    load.beforeRequest = [&router](size_t seq) {
        if (seq == 9)
            router.setShardFaults(0, true);
    };
    const auto before = router.snapshot();
    const auto result = runClosedLoop(router, 2, 12, load);
    const auto after = router.snapshot();

    uint64_t delivered_degraded = 0;
    for (size_t i = 0; i < kDegradationLevels; ++i) {
        if (i != static_cast<size_t>(Degradation::None))
            delivered_degraded += after.outcomes[i] - before.outcomes[i];
    }
    EXPECT_GT(after.fleet.failed, 0u) << "the drill never failed a leg";
    EXPECT_GT(after.failovers, 0u);
    EXPECT_EQ(result.degraded, delivered_degraded);
    EXPECT_EQ(delivered_degraded, 0u) << "failover should rescue all";
}

/** Query texts of the root spans @p server traced, sorted. */
std::vector<std::string>
servedTexts(const ConcurrentServer &server)
{
    std::vector<std::string> texts;
    for (const SpanRecord &span : server.traces().snapshot()) {
        if (span.kind != SpanKind::Query)
            continue;
        for (const auto &[key, value] : span.attrs) {
            if (key == "text")
                texts.push_back(value);
        }
    }
    std::sort(texts.begin(), texts.end());
    return texts;
}

/** beforeRequest sink: every seq it was called with, sorted. */
struct SeqLog
{
    std::mutex mutex;
    std::vector<size_t> seqs;

    LoadOptions
    options()
    {
        LoadOptions load;
        load.seed = 7;
        load.zipfSkew = 1.0;
        load.beforeRequest = [this](size_t seq) {
            std::lock_guard<std::mutex> lock(mutex);
            seqs.push_back(seq);
        };
        return load;
    }

    std::vector<size_t>
    sorted()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<size_t> out = seqs;
        std::sort(out.begin(), out.end());
        return out;
    }
};

template <typename Target>
MeasuredLoadResult
driveLoad(Target &target, bool open, const LoadOptions &load)
{
    return open ? runOpenLoop(target, 200.0, 24, load)
                : runClosedLoop(target, 3, 8, load);
}

TEST_F(ClusterFixture, OneGeneratorServesBothTargets)
{
    // A leaf server and a one-shard fleet under equal LoadOptions must
    // be offered the same requests: same hook calls, same query draws.
    ConcurrentServerConfig leaf;
    leaf.workers = 2;
    leaf.queueCapacity = 256; // nothing shed, whatever the timing
    leaf.traceSampleRate = 1.0;
    leaf.traceCapacity = 1 << 14;
    ClusterConfig cluster;
    cluster.shards = 1;
    cluster.shard = leaf;

    std::vector<size_t> every_seq(24);
    for (size_t i = 0; i < every_seq.size(); ++i)
        every_seq[i] = i + 1;
    for (const bool open : {true, false}) {
        SCOPED_TRACE(open ? "open loop" : "closed loop");
        ConcurrentServer server(*pipeline_, leaf);
        ClusterRouter router(*pipeline_, cluster);
        SeqLog server_log, router_log;
        const auto alone = driveLoad(server, open, server_log.options());
        const auto fleet = driveLoad(router, open, router_log.options());

        for (const MeasuredLoadResult *result : {&alone, &fleet}) {
            EXPECT_EQ(result->offered, every_seq.size());
            EXPECT_EQ(result->completed + result->rejected,
                      result->offered);
        }
        EXPECT_EQ(server_log.sorted(), every_seq);
        EXPECT_EQ(router_log.sorted(), every_seq);
        const auto texts = servedTexts(server);
        EXPECT_EQ(texts.size(), every_seq.size());
        EXPECT_EQ(texts, servedTexts(router.shard(0).server()));
    }
}

TEST(ClusterConfigValidation, ZeroShardsIsFatal)
{
    SiriusConfig config;
    config.qa.fillerDocs = 60;
    const auto pipeline = SiriusPipeline::build(config);
    ClusterConfig cluster;
    cluster.shards = 0;
    EXPECT_EXIT(ClusterRouter(pipeline, cluster),
                ::testing::ExitedWithCode(1), "shards");
}

TEST(FaultInjectorKillSwitch, SetEnabledArmsAndDisarms)
{
    FaultConfig config;
    config.failureRate = 1.0;
    FaultInjector injector(config);
    EXPECT_TRUE(injector.enabled());
    EXPECT_EQ(injector.draw("qa"), StageFault::Failure);

    injector.setEnabled(false);
    EXPECT_FALSE(injector.enabled());
    EXPECT_EQ(injector.draw("qa"), StageFault::None);

    injector.setEnabled(true);
    EXPECT_TRUE(injector.enabled());
    EXPECT_EQ(injector.draw("qa"), StageFault::Failure);

    // A zero-rate injector can never be armed into injecting.
    FaultInjector idle;
    idle.setEnabled(true);
    EXPECT_FALSE(idle.enabled());
    EXPECT_EQ(idle.draw("qa"), StageFault::None);
}

TEST(FleetProjection, CapacityAddsLinearlyAcrossShards)
{
    // Deterministic virtual-time replay: with one client per shard
    // there is no queueing, so qps scales exactly with shards and the
    // per-query sojourn equals the service time.
    const std::vector<double> service = {0.010, 0.020, 0.015, 0.012,
                                         0.018, 0.011};
    const auto one = projectClosedLoopFleet(service, 1, 1, 1, 60);
    const auto two = projectClosedLoopFleet(service, 2, 1, 1, 60);
    const auto four = projectClosedLoopFleet(service, 4, 1, 1, 60);
    ASSERT_GT(one.aggregateQps, 0.0);
    EXPECT_NEAR(two.aggregateQps / one.aggregateQps, 2.0, 1e-9);
    EXPECT_NEAR(four.aggregateQps / one.aggregateQps, 4.0, 1e-9);
    EXPECT_EQ(four.completed, 4u * 60u);
    // No queueing: mean sojourn equals the mean service time.
    EXPECT_NEAR(one.meanSojournSeconds, 0.0143333333, 1e-6);
    EXPECT_NEAR(four.meanSojournSeconds, one.meanSojournSeconds, 1e-9);
}

TEST(FleetProjection, OversubscribedClientsQueue)
{
    const std::vector<double> service = {0.010};
    // 4 blocking clients on 1 worker: at steady state each waits
    // behind 3 others (sojourn 4x the service time); the first round's
    // shorter waits (10/20/30 ms) pull the 100-query mean down by
    // exactly 0.06/100 s. Throughput stays at the worker's capacity.
    const auto result = projectClosedLoopFleet(service, 1, 1, 4, 25);
    EXPECT_NEAR(result.meanSojournSeconds, 0.040 - 0.0006, 1e-9);
    EXPECT_NEAR(result.aggregateQps, 100.0, 1e-6);
    const auto idle = projectClosedLoopFleet(service, 1, 4, 4, 25);
    EXPECT_NEAR(idle.meanSojournSeconds, 0.010, 1e-9);
}

TEST(ShardedQueueing, ModelMatchesSingleShardAndScales)
{
    using namespace sirius::dcsim;
    const double mu = 50.0, lambda = 30.0;
    EXPECT_DOUBLE_EQ(shardedMm1Latency(lambda, mu, 1),
                     mm1Latency(lambda, mu));
    // Splitting the same arrivals across more shards strictly shrinks
    // queueing delay toward the bare service time 1/mu.
    EXPECT_LT(shardedMm1Latency(lambda, mu, 2),
              shardedMm1Latency(lambda, mu, 1));
    EXPECT_LT(shardedMm1Latency(lambda, mu, 4),
              shardedMm1Latency(lambda, mu, 2));
    EXPECT_GT(shardedMm1Latency(lambda, mu, 4), 1.0 / mu);
    // Capacity adds linearly.
    EXPECT_DOUBLE_EQ(shardedMm1MaxArrival(mu, 0.1, 4),
                     4.0 * mm1MaxArrival(mu, 0.1));
    // An overloaded single shard becomes feasible once split wide
    // enough.
    EXPECT_TRUE(std::isinf(shardedMm1Latency(60.0, mu, 1)));
    EXPECT_FALSE(std::isinf(shardedMm1Latency(60.0, mu, 2)));
}

} // namespace
