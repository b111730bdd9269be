#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const auto &span : spans) {
        if (span.parent < 0)
            continue;
        const auto &parent = spans.at(static_cast<size_t>(span.parent));
        const double start = std::max(span.start, parent.start);
        const double end = std::min(span.end, parent.end);
        if (end > start)
            children[static_cast<size_t>(span.parent)].push_back(
                {start, end});
    }

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        double covered = 0.0;
        double reach = spans[i].start;
        for (const auto &[start, end] : intervals) {
            const double from = std::max(start, reach);
            if (end > from) {
                covered += end - from;
                reach = end;
            }
        }
        self[i] = spans[i].end - spans[i].start - covered;
    }
    return self;
}

bool
writeJsonl(const std::vector<SpanRecord> &spans, const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto &span = spans[i];
        std::fprintf(file,
                     "{\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
                     "\"name\":\"%s\",\"start_ms\":%.4f,"
                     "\"end_ms\":%.4f}\n",
                     i, static_cast<long long>(span.parent),
                     static_cast<unsigned long long>(span.request),
                     span.name, span.start * 1e3, span.end * 1e3);
    }
    return std::fclose(file) == 0;
}

} // namespace perfbench
