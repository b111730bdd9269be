/**
 * @file
 * The benchmark's span recorder: spans are kept in memory while a run
 * measures and written out as JSONL when it ends. A layer's self time
 * is its span's duration minus the part of that interval its child
 * spans cover.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One span; `parent` indexes the same vector (-1 for a root). */
struct SpanRecord
{
    uint64_t request = 0;
    int64_t parent = -1;
    const char *name = nullptr; ///< static string; nullptr = unused slot
    double start = 0.0;         ///< seconds on the run's clock
    double end = 0.0;
};

/**
 * Self time of every span in @p spans: end - start minus the union of
 * its children's intervals, each clipped to the parent's interval.
 */
std::vector<double> selfTimes(const std::vector<SpanRecord> &spans);

/** Write @p spans as one JSON object per line; false on I/O error. */
bool writeJsonl(const std::vector<SpanRecord> &spans,
                const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
