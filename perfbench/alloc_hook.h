/**
 * @file
 * Allocation counter behind a global operator new replacement that
 * exists in the benchmark binary only. Counting is off until enabled,
 * so an untraced run pays one relaxed load per allocation.
 */

#ifndef PERFBENCH_ALLOC_HOOK_H
#define PERFBENCH_ALLOC_HOOK_H

#include <cstdint>

namespace perfbench {

struct AllocCounts
{
    uint64_t allocations = 0;
    uint64_t bytes = 0;
};

/** Start or stop counting allocations made by any thread. */
void setAllocCounting(bool enabled);

/** Totals counted while counting was enabled. */
AllocCounts allocCounts();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_HOOK_H
