#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};
std::atomic<uint64_t> bytes{0};

void *
countedAlloc(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(size, std::memory_order_relaxed);
    }
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

void
setAllocCounting(bool enabled)
{
    counting.store(enabled, std::memory_order_relaxed);
}

AllocCounts
allocCounts()
{
    return {allocations.load(), bytes.load()};
}

} // namespace perfbench

// The unaligned forms only: the nothrow forms of libstdc++ call these,
// and the aligned forms keep their own matching allocate/free pair.
void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
