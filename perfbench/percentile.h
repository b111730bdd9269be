/**
 * @file
 * The benchmark's percentile rule: a tail percentile is reported only
 * as high as the sample supports, i.e. the highest percentile with at
 * least ten samples beyond it. A "p99" over 300 samples would rest on
 * three values; over 300 samples the rule reports p96.7 instead, and
 * says so.
 */

#ifndef PERFBENCH_PERCENTILE_H
#define PERFBENCH_PERCENTILE_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr size_t kTailSamples = 10;

/**
 * The percentile to report when @p wanted is asked of @p n samples:
 * min(wanted, 100 * (n - 10) / n), and 0 when n <= 10.
 */
double supportedPercentile(size_t n, double wanted);

/**
 * Nearest-rank percentile of @p sorted (ascending): the value at index
 * ceil(p / 100 * n) - 1, clamped to the range. 0 when empty.
 */
double nearestRank(const std::vector<double> &sorted, double p);

/** A tail statistic together with the percentile it really is. */
struct Tail
{
    double value = 0.0;      ///< the sample at `percentile`
    double percentile = 0.0; ///< after supportedPercentile()
    size_t samples = 0;
};

/** Sort @p samples and report @p wanted under the rule above. */
Tail tailOf(std::vector<double> samples, double wanted);

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_H
