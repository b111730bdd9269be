/**
 * @file
 * Seeded inputs of the benchmark: which query each request carries and
 * when an open-loop request is due. Everything is derived from the
 * workload seed through std::mt19937_64, whose output sequence the C++
 * standard fixes, and converted with the explicit formulas below (the
 * std:: distributions are implementation-defined), so one seed gives
 * the same inputs on every toolchain.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

/** One seeded random stream; @p salt separates streams of one seed. */
class Stream
{
  public:
    Stream(uint64_t seed, uint64_t salt);

    /** Uniform in [0, 1) with 53 random bits. */
    double uniform();

    /** Uniform integer in [0, n). */
    size_t below(size_t n);

    /** Exponential inter-arrival gap at @p rate per second. */
    double exponential(double rate);

  private:
    std::mt19937_64 engine_;
};

/**
 * Zipf(@p skew) popularity over items labelled by @p types, with ranks
 * assigned by a seeded permutation stratified by label: rank r goes to
 * the label whose traffic share lags its item share the most (a fixed,
 * seed-independent label pattern), and which item of that label takes
 * the rank is a seeded shuffle. A plain shuffle would let the rank-1
 * item's label (~23% of the traffic at skew 1 over 42 items) swing the
 * traffic mix from seed to seed.
 *
 * @return order[r] = index of the item at popularity rank r
 */
std::vector<size_t> stratifiedZipfOrder(const std::vector<int> &types,
                                        double skew, uint64_t seed);

/** How often each item of a pool is requested. */
class QueryDraw
{
  public:
    /** Every one of @p items equally often. */
    static QueryDraw uniform(size_t items);

    /** Zipf(@p skew) over stratifiedZipfOrder(types, skew, seed). */
    static QueryDraw zipf(const std::vector<int> &types, double skew,
                          uint64_t seed);

    /** Share of the requests that carry item @p item. */
    double share(size_t item) const;

    /**
     * One deck of requests: item i appears round(share(i) * size)
     * times (largest remainder), in item order.
     */
    const std::vector<size_t> &deck() const { return deck_; }

  private:
    void buildDeck(size_t size);

    std::vector<double> shares_; ///< per item
    std::vector<size_t> deck_;
};

/**
 * The items requests carry: successive shuffles of the draw's deck,
 * so every request is equally likely to be any deck entry while each
 * deck's worth of requests has exactly the deck's mix. Independent
 * draws would let the mix, and with it the mean service time, wander
 * by a few percent from run to run.
 */
class Deck
{
  public:
    Deck(const QueryDraw &draw, uint64_t seed, uint64_t salt);

    size_t next();

  private:
    std::vector<size_t> cards_;
    size_t position_ = 0;
    Stream stream_;
};

/** One open-loop request: due time from phase start, and its item. */
struct Arrival
{
    double dueSeconds = 0.0;
    size_t item = 0;
};

/** Poisson arrivals at @p rate over @p seconds, items from @p deck. */
std::vector<Arrival> poissonSchedule(double rate, double seconds,
                                     Deck &deck, Stream &gaps);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
