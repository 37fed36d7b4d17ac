/**
 * @file
 * Hot-path allocation gate: the simulated machine's steady state does
 * not touch the heap.
 *
 * This executable replaces the global `operator new` with a counter
 * that counts only while `sys.run()` executes. Each configuration runs
 * twice from scratch, at N and at 2N uops per core. Everything a run
 * allocates once (construction-time sizing, the result, the first push
 * into a lazily sized queue, a container's first growth to its working
 * size) appears in both counts; the difference is what the extra N
 * uops allocated. That residual may only come from containers reaching
 * a new high-water mark, so it stays small and flat while a per-event
 * allocation (one per tick, per request, per segment pick, per miss)
 * grows with N and is at least 50x larger on every configuration
 * (DESIGN.md §5, "Seeded-bug matrix").
 *
 * It counts `operator new` only. C `malloc` calls — zlib's and xz's
 * inflate state in the ChampSim reader, and the C library's own — are
 * out of scope.
 *
 * The gate is its own executable because a replaced `operator new`
 * applies to the whole program: inside spburst_tests it would turn off
 * AddressSanitizer's new/delete checks for every other test. Here the
 * counter calls malloc/free, which ASan still checks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace
{

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t size)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
// Every delete is replaced too, so each block goes back through free():
// under ASan, a counted block freed by ASan's own operator delete would
// read as an alloc-dealloc mismatch.
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace spburst
{
namespace
{

/** Uops per core of the shorter run; the longer one runs twice that. */
constexpr std::uint64_t kN = 20'000;

/**
 * Most `operator new` calls the extra kN uops per core may make. Set
 * from measurement: the residual is 2 to 18 on the single-core
 * configurations below, 1 on 4-core canneal and 90 on 4-core dedup
 * (MSHR target lists and the interconnect's parking slots growing to
 * new maxima), while one
 * allocation per cache request adds 11,558 to 79,368 and one per
 * Core::tick 38,844 to 240,905 (at least 640x the residual of each
 * configuration).
 */
constexpr std::uint64_t kMaxResidual = 150;

/** Calls to operator new inside System::run at @p uops per core. */
std::uint64_t
allocsInRun(SystemConfig cfg, std::uint64_t uops)
{
    cfg.maxUopsPerCore = uops;
    System sys(cfg);
    gAllocs.store(0);
    gCounting.store(true);
    const SimResult result = sys.run();
    gCounting.store(false);
    EXPECT_GE(result.committedUops(),
              uops * static_cast<std::uint64_t>(cfg.threads));
    return gAllocs.load();
}

struct AllocCase
{
    std::string name;
    SystemConfig config;
};

void
PrintTo(const AllocCase &c, std::ostream *os)
{
    *os << c.name;
}

class HotPathAllocations : public testing::TestWithParam<AllocCase>
{
};

TEST_P(HotPathAllocations, ExtraUopsAllocateOnlyAtHighWaterMarks)
{
    const SystemConfig &cfg = GetParam().config;
    const std::uint64_t at_n = allocsInRun(cfg, kN);
    const std::uint64_t at_2n = allocsInRun(cfg, 2 * kN);
    const std::uint64_t residual = at_2n > at_n ? at_2n - at_n : 0;
    std::printf("[ allocs   ] %s: %llu at N, %llu at 2N, residual %llu\n",
                GetParam().name.c_str(),
                static_cast<unsigned long long>(at_n),
                static_cast<unsigned long long>(at_2n),
                static_cast<unsigned long long>(residual));
    // A run's one-time allocations (its result at least) show that the
    // counter counts.
    EXPECT_GT(at_n, 0u);
    EXPECT_LE(residual, kMaxResidual)
        << "the extra " << kN << " uops per core called operator new "
        << residual << " times: something allocates per event";
}

std::vector<AllocCase>
allocCases()
{
    std::vector<AllocCase> cases;
    const L1PrefetcherKind kinds[] = {
        L1PrefetcherKind::None,       L1PrefetcherKind::Stream,
        L1PrefetcherKind::Aggressive, L1PrefetcherKind::Adaptive,
        L1PrefetcherKind::BestOffset, L1PrefetcherKind::DSPatch,
    };
    for (const L1PrefetcherKind kind : kinds) {
        SystemConfig cfg =
            makeConfig("x264", 14, StorePrefetchPolicy::AtCommit, true);
        cfg.l1Prefetcher = kind;
        cases.push_back({std::string("x264_") + l1PrefetcherKindName(kind),
                         cfg});
    }
    cases.push_back(
        {"mcf", makeConfig("mcf", 14, StorePrefetchPolicy::AtCommit, true)});
    for (const char *workload : {"dedup", "canneal"}) {
        SystemConfig cfg =
            makeConfig(workload, 14, StorePrefetchPolicy::AtCommit, true);
        cfg.threads = 4;
        cases.push_back({std::string(workload) + "_4c", cfg});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HotPathAllocations, testing::ValuesIn(allocCases()),
    [](const testing::TestParamInfo<AllocCase> &p) {
        std::string name;
        for (const char c : p.param.name)
            name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        return name;
    });

} // namespace
} // namespace spburst
