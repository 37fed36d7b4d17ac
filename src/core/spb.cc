#include "core/spb.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/logging.hh"
#include "mem/cache_controller.hh"

namespace spburst
{

SpbBurst
computeBurst(Addr addr)
{
    SpbBurst burst;
    const Addr idx = blockIndexInPage(addr);
    burst.firstBlock = blockAlign(addr) + kBlockSize;
    burst.count = static_cast<unsigned>(kBlocksPerPage - idx - 1);
    return burst;
}

SpbBurst
computeBackwardBurst(Addr addr)
{
    SpbBurst burst;
    const Addr idx = blockIndexInPage(addr);
    burst.firstBlock = pageAlign(addr);
    burst.count = static_cast<unsigned>(idx);
    return burst;
}

SpbDetector::SpbDetector(const SpbParams &params) : params_(params)
{
    if (params.checkInterval < 2) {
        SPB_FATAL("SPB check interval N must be at least 2 (got %u)",
                  params.checkInterval);
    }
}

unsigned
SpbDetector::storageBits() const
{
    unsigned count_bits = 0;
    unsigned n = params_.checkInterval;
    while (n > 0) {
        ++count_bits;
        n >>= 1;
    }
    return 58 + 4 + count_bits + (params_.backwardBursts ? 4 : 0);
}

SpbBurst
SpbDetector::onStoreCommit(Addr addr, unsigned size)
{
    ++stats_.storesObserved;

    // (1) Difference between this store's block and the last one. The
    // hardware register is 58 bits wide, so the delta must be reduced
    // modulo 2^58 as well: a contiguous step that crosses the register's
    // alias boundary (block 2^58 - 1 -> 0) still reads as +1, and the
    // raw 64-bit difference (which would be 1 - 2^58) never does.
    constexpr Addr kBlockRegMask = (Addr{1} << 58) - 1;
    const Addr block = blockNumber(addr) & kBlockRegMask;
    const Addr delta = (block - regs_.lastBlock) & kBlockRegMask;
    if (delta == 1) {
        if (regs_.satCounter < params_.counterMax)
            ++regs_.satCounter;
    } else if (delta != 0) {
        regs_.satCounter = 0;
    }
    if (params_.backwardBursts) {
        if (delta == kBlockRegMask) {
            if (regs_.backwardCounter < params_.counterMax)
                ++regs_.backwardCounter;
        } else if (delta != 0) {
            regs_.backwardCounter = 0;
        }
    }
    regs_.lastBlock = block;
    regs_.lastAddr = addr;
    regs_.windowBytes += size;

    // (2) Every N stores, test the counter against the threshold. As
    // in the paper's running example (Fig. 4, T8), the check happens
    // on the first commit *after* the count has reached N, with that
    // store's delta already applied — so a window always observes the
    // block transition that closes it.
    if (regs_.storeCount < params_.checkInterval) {
        ++regs_.storeCount;
        return SpbBurst{};
    }

    ++stats_.windowChecks;
    const unsigned n = params_.checkInterval;
    unsigned threshold = n / 8;
    if (params_.dynamicThreshold) {
        // N/S with S = stores needed to fill a block at the average
        // size observed this window. Adaptation hysteresis makes this
        // variant slower to react than the fixed N/8 (Sec. IV-C).
        const std::uint64_t avg_size =
            regs_.windowBytes == 0 ? 8 : regs_.windowBytes / (n + 1);
        const std::uint64_t per_block =
            avg_size == 0 ? 8 : std::max<std::uint64_t>(
                                    1, kBlockSize / avg_size);
        threshold = static_cast<unsigned>(
            std::max<std::uint64_t>(1, n / per_block));
    }
    if (threshold == 0)
        threshold = 1;

    const bool fire = regs_.satCounter >= threshold;
    const bool fire_backward = params_.backwardBursts && !fire &&
                               regs_.backwardCounter >= threshold;
    regs_.storeCount = 0;
    regs_.satCounter = 0;
    regs_.backwardCounter = 0;
    regs_.windowBytes = 0;

    if (!fire && !fire_backward)
        return SpbBurst{};

    // (3) Burst: write-permission prefetches for the rest of the page
    // (or, with the extension, for the page's preceding blocks).
    SpbBurst burst = fire ? computeBurst(regs_.lastAddr)
                          : computeBackwardBurst(regs_.lastAddr);
    if (burst.count == 0) {
        ++stats_.endOfPageSuppressed;
        return SpbBurst{};
    }
    ++stats_.bursts;
    if (fire_backward)
        ++stats_.backwardBursts;
    stats_.blocksRequested += burst.count;
    return burst;
}

SpbEngine::SpbEngine(const SpbParams &params, CacheController *l1d,
                     int core)
    : detector_(params), l1d_(l1d), core_(core)
{
}

void
SpbEngine::onStoreCommit(Addr addr, unsigned size, Region region)
{
    const SpbBurst burst = detector_.onStoreCommit(addr, size);
    if (burst.count == 0 || l1d_ == nullptr)
        return;
    // The burst must stay inside the triggering store's page: crossing
    // a page boundary would prefetch ownership of untranslated (and
    // possibly unmapped) memory — exactly the bug class the paper's
    // page-bounded window exists to rule out.
    SPBURST_CHECK(Spb, samePage(addr, burst.firstBlock),
                  "burst start %#llx left the page of store %#llx",
                  static_cast<unsigned long long>(burst.firstBlock),
                  static_cast<unsigned long long>(addr));
    SPBURST_CHECK(Spb,
                  samePage(addr, burst.firstBlock +
                                     (burst.count - 1) * kBlockSize),
                  "burst end %#llx left the page of store %#llx",
                  static_cast<unsigned long long>(
                      burst.firstBlock + (burst.count - 1) * kBlockSize),
                  static_cast<unsigned long long>(addr));
    l1d_->enqueueBurst(burst.firstBlock, burst.count, core_, region);
}

} // namespace spburst
