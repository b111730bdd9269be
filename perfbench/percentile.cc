#include "percentile.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
supportedPercentile(size_t n, double wanted)
{
    if (n <= kTailSamples)
        return 0.0;
    const double limit = 100.0 * static_cast<double>(n - kTailSamples) /
        static_cast<double>(n);
    return std::min(wanted, limit);
}

double
nearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(sorted.size()));
    const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

Tail
tailOf(std::vector<double> samples, double wanted)
{
    std::sort(samples.begin(), samples.end());
    Tail tail;
    tail.samples = samples.size();
    tail.percentile = supportedPercentile(samples.size(), wanted);
    tail.value = nearestRank(samples, tail.percentile);
    return tail;
}

} // namespace perfbench
