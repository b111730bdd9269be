// Unit tests of the benchmark's own pieces: the percentile rule, the
// seeded Zipf rank permutation and the span self-time computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/query_set.h"
#include "percentile.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(Percentile, ReportsHighestPercentileWithTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(supportedPercentile(1000, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(5000, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(500, 99.0), 98.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(20, 99.0), 50.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(20, 40.0), 40.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(10, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(0, 50.0), 0.0);

    for (size_t n : {11u, 57u, 300u, 999u, 1000u, 1001u, 4321u}) {
        std::vector<double> samples(n);
        std::iota(samples.begin(), samples.end(), 1.0);
        std::reverse(samples.begin(), samples.end());
        const Tail tail = tailOf(samples, 99.0);
        const auto beyond = static_cast<size_t>(
            std::count_if(samples.begin(), samples.end(),
                          [&](double v) { return v > tail.value; }));
        EXPECT_GE(beyond, kTailSamples) << "n=" << n;
        EXPECT_EQ(tail.samples, n);
    }
}

TEST(Percentile, NearestRank)
{
    const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(nearestRank(sorted, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(nearestRank(sorted, 51.0), 6.0);
    EXPECT_DOUBLE_EQ(nearestRank(sorted, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(nearestRank(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(nearestRank({}, 50.0), 0.0);
    const Tail p99 = tailOf(std::vector<double>(1000, 2.5), 99.0);
    EXPECT_DOUBLE_EQ(p99.percentile, 99.0);
    EXPECT_DOUBLE_EQ(p99.value, 2.5);
}

std::vector<int>
table1Types()
{
    std::vector<int> types;
    for (const auto &query : sirius::core::standardQuerySet())
        types.push_back(static_cast<int>(query.type));
    return types;
}

TEST(ZipfOrder, SeededPermutationKeepsTable1TypeMix)
{
    const auto types = table1Types();
    ASSERT_EQ(types.size(), 42u);
    const double target[3] = {16.0 / 42.0, 16.0 / 42.0, 10.0 / 42.0};
    // The stated margin: every seed's traffic share per type within
    // 0.02 of its Table-1 share.
    constexpr double kMargin = 0.02;
    for (uint64_t seed = 0; seed < 64; ++seed) {
        const auto order = stratifiedZipfOrder(types, 1.0, seed);
        auto sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i)
            ASSERT_EQ(sorted[i], i) << "not a permutation, seed " << seed;

        const QueryDraw draw = QueryDraw::zipf(types, 1.0, seed);
        double share[3] = {0, 0, 0};
        for (size_t i = 0; i < types.size(); ++i)
            share[types[i]] += draw.share(i);
        for (int t = 0; t < 3; ++t)
            EXPECT_NEAR(share[t], target[t], kMargin)
                << "seed " << seed << " type " << t;
    }
}

TEST(ZipfOrder, SeedPermutesRanksAndIsReproducible)
{
    const auto types = table1Types();
    EXPECT_EQ(stratifiedZipfOrder(types, 1.0, 7),
              stratifiedZipfOrder(types, 1.0, 7));
    EXPECT_NE(stratifiedZipfOrder(types, 1.0, 7),
              stratifiedZipfOrder(types, 1.0, 8));
    std::vector<size_t> top;
    for (uint64_t seed = 0; seed < 32; ++seed)
        top.push_back(stratifiedZipfOrder(types, 1.0, seed).front());
    std::sort(top.begin(), top.end());
    EXPECT_GT(std::unique(top.begin(), top.end()) - top.begin(), 5);
}

TEST(Deck, EveryDeckHasTheDrawsMix)
{
    const auto types = table1Types();
    const QueryDraw draw = QueryDraw::zipf(types, 1.0, 3);
    ASSERT_EQ(draw.deck().size(), 1000u);
    Deck deck(draw, 3, 1);
    for (int round = 0; round < 3; ++round) {
        std::vector<double> counts(types.size(), 0.0);
        for (size_t i = 0; i < draw.deck().size(); ++i)
            counts[deck.next()] += 1.0;
        for (size_t i = 0; i < types.size(); ++i) {
            EXPECT_NEAR(counts[i] / 1000.0, draw.share(i), 0.001) << i;
            EXPECT_GE(counts[i], 1.0) << i;
        }
    }
    const QueryDraw uniform = QueryDraw::uniform(32);
    Deck a(uniform, 5, 1), b(uniform, 5, 1), c(uniform, 6, 1);
    std::vector<size_t> first, again, other;
    for (int i = 0; i < 64; ++i) {
        first.push_back(a.next());
        again.push_back(b.next());
        other.push_back(c.next());
    }
    EXPECT_EQ(first, again);
    EXPECT_NE(first, other);
    std::vector<size_t> one(first.begin(), first.begin() + 32);
    std::sort(one.begin(), one.end());
    for (size_t i = 0; i < 32; ++i)
        EXPECT_EQ(one[i], i);
}

TEST(Schedule, SameSeedSameArrivals)
{
    const QueryDraw draw = QueryDraw::uniform(32);
    Deck da(draw, 11, 1), db(draw, 11, 1), dc(draw, 12, 1);
    Stream a(11, 2), b(11, 2), c(12, 2);
    const auto first = poissonSchedule(200.0, 5.0, da, a);
    const auto again = poissonSchedule(200.0, 5.0, db, b);
    const auto other = poissonSchedule(200.0, 5.0, dc, c);
    ASSERT_EQ(first.size(), again.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].dueSeconds, again[i].dueSeconds);
        EXPECT_EQ(first[i].item, again[i].item);
    }
    EXPECT_NEAR(static_cast<double>(first.size()), 1000.0, 120.0);
    EXPECT_TRUE(other.size() != first.size() ||
                other.front().dueSeconds != first.front().dueSeconds);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildrenClippedToParent)
{
    std::vector<SpanRecord> spans = {
        {1, -1, "request", 0.0, 10.0}, // 0
        {1, 0, "a", 1.0, 4.0},         // 1
        {1, 0, "b", 3.0, 6.0},         // 2: overlaps a
        {1, 1, "a.leaf", 2.0, 3.0},    // 3: child of a
        {1, 0, "c", 9.0, 12.0},        // 4: runs past its parent
        {2, -1, "request", 20.0, 21.0} // 5: another request
    };
    const auto self = selfTimes(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 10.0 - (5.0 + 1.0)); // covered [1,6],[9,10]
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
    EXPECT_DOUBLE_EQ(self[4], 3.0);
    EXPECT_DOUBLE_EQ(self[5], 1.0);
}

TEST(Spans, BackToBackChildrenLeaveNoSelfTime)
{
    std::vector<SpanRecord> spans = {
        {1, -1, "asr", 5.0, 8.0},
        {1, 0, "audio.mfcc", 5.0, 6.0},
        {1, 0, "speech.score", 6.0, 7.5},
        {1, 0, "speech.viterbi", 7.5, 8.0},
    };
    const auto self = selfTimes(spans);
    EXPECT_NEAR(self[0], 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(self[1] + self[2] + self[3], 3.0);
}

} // namespace
} // namespace perfbench
