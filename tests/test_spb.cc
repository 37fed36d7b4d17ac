/**
 * @file
 * Unit tests for the paper's contribution: the SPB detector, burst
 * computation, the Sec. IV-C dynamic-threshold variant, and the engine
 * integration with the L1D controller — including the running example
 * of the paper's Fig. 4.
 */

#include <gtest/gtest.h>

#include <utility>

#include "common/clock.hh"
#include "common/rng.hh"
#include "core/spb.hh"
#include "mem/memory_system.hh"

namespace spburst
{
namespace
{

SpbParams
withN(unsigned n, bool dynamic = false)
{
    SpbParams p;
    p.checkInterval = n;
    p.dynamicThreshold = dynamic;
    return p;
}

// ---------------------------------------------------------------------
// computeBurst
// ---------------------------------------------------------------------

TEST(ComputeBurst, RemainingBlocksOfPageForwardOnly)
{
    // Store in block 0 of a page: 63 blocks remain.
    SpbBurst b = computeBurst(0x1000);
    EXPECT_EQ(b.firstBlock, 0x1040u);
    EXPECT_EQ(b.count, 63u);

    // Store in the middle.
    b = computeBurst(0x1000 + 32 * kBlockSize + 24);
    EXPECT_EQ(b.firstBlock, 0x1000u + 33 * kBlockSize);
    EXPECT_EQ(b.count, 31u);

    // Store in the last block: nothing remains (no page crossing).
    b = computeBurst(0x1fff);
    EXPECT_EQ(b.count, 0u);
}

// ---------------------------------------------------------------------
// Detector state machine (paper Sec. IV-A)
// ---------------------------------------------------------------------

TEST(SpbDetector, SameBlockDeltaKeepsCounter)
{
    SpbDetector d(withN(16));
    for (int i = 0; i < 8; ++i)
        d.onStoreCommit(0x1000 + i * 8, 8); // all in block 0
    EXPECT_EQ(d.satCounter(), 0u);
    EXPECT_EQ(d.storeCount(), 8u);
}

TEST(SpbDetector, ConsecutiveBlockDeltaIncrementsCounter)
{
    SpbDetector d(withN(16));
    d.onStoreCommit(0x1000, 8);
    d.onStoreCommit(0x1040, 8);
    d.onStoreCommit(0x1080, 8);
    EXPECT_EQ(d.satCounter(), 2u);
}

TEST(SpbDetector, NonUnitDeltaResetsCounter)
{
    SpbDetector d(withN(16));
    d.onStoreCommit(0x1000, 8);
    d.onStoreCommit(0x1040, 8);
    EXPECT_EQ(d.satCounter(), 1u);
    d.onStoreCommit(0x5000, 8); // jump
    EXPECT_EQ(d.satCounter(), 0u);
    d.onStoreCommit(0x1000, 8); // backward jump also resets
    EXPECT_EQ(d.satCounter(), 0u);
}

TEST(SpbDetector, CounterSaturatesAtFourBits)
{
    SpbDetector d(withN(64));
    for (int i = 0; i < 40; ++i)
        d.onStoreCommit(0x1000 + i * kBlockSize, 8);
    EXPECT_EQ(d.satCounter(), 15u) << "4-bit saturating counter";
}

TEST(SpbDetector, RunningExampleFig4)
{
    // The paper's running example: N=8, 64-bit stores to consecutive
    // addresses. Within one window the deltas are 0,...,0,1 — two
    // blocks touched — so the counter (1) equals N/8 (1) and a burst
    // fires for the rest of the page.
    SpbDetector d(withN(8));
    SpbBurst burst;
    for (Addr a = 0x10000; a < 0x10040; a += 8) { // T0..T7, block 0
        burst = d.onStoreCommit(a, 8);
        EXPECT_EQ(burst.count, 0u);
    }
    EXPECT_EQ(d.satCounter(), 0u);
    EXPECT_EQ(d.storeCount(), 8u); // count has reached N
    burst = d.onStoreCommit(0x10040, 8); // T8: block delta +1, check
    ASSERT_GT(burst.count, 0u);
    EXPECT_EQ(burst.firstBlock, 0x10080u);
    // The store hit block index 1 of the page -> 62 blocks remain.
    EXPECT_EQ(burst.count, 62u);
    EXPECT_EQ(d.stats().bursts, 1u);
    EXPECT_EQ(d.stats().windowChecks, 1u);
}

TEST(SpbDetector, WindowResetsAfterCheck)
{
    SpbDetector d(withN(8));
    for (int i = 0; i < 9; ++i) // check fires on the 9th commit
        d.onStoreCommit(0x1000 + i * 8, 8);
    EXPECT_EQ(d.storeCount(), 0u) << "store count resets every N";
    EXPECT_EQ(d.satCounter(), 0u) << "counter resets every N";
    EXPECT_EQ(d.stats().windowChecks, 1u);
}

TEST(SpbDetector, NoBurstWithoutContiguousPattern)
{
    SpbDetector d(withN(8));
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
        const SpbBurst b =
            d.onStoreCommit(0x1000 + rng.below(1 << 20) * 64, 8);
        EXPECT_EQ(b.count, 0u) << "random stores must not trigger SPB";
    }
    EXPECT_EQ(d.stats().bursts, 0u);
    EXPECT_EQ(d.stats().windowChecks, 7u); // one check per 9 commits
}

TEST(SpbDetector, N48FiresOnContiguous8ByteStores)
{
    SpbDetector d(withN(48));
    int bursts = 0;
    // 8-byte contiguous stores: a 48-store window plus its closing
    // commit always spans 6 block transitions, meeting N/8 = 6.
    for (int i = 0; i < 480; ++i) {
        if (d.onStoreCommit(0x40000 + i * 8, 8).count > 0)
            ++bursts;
    }
    EXPECT_GE(bursts, 1);
    EXPECT_EQ(d.stats().windowChecks, 9u); // one per 49 commits
}

TEST(SpbDetector, EndOfPageSuppressed)
{
    SpbDetector d(withN(8));
    // Contiguous stores whose closing commit lands in the last block
    // of a page: the check fires but no blocks remain to prefetch.
    const Addr page = 0x70000;
    const Addr last_block = page + kPageSize - 64;
    for (int i = 0; i < 8; ++i)
        d.onStoreCommit(last_block - 64 + i * 8, 8);
    const SpbBurst b = d.onStoreCommit(last_block, 8);
    EXPECT_EQ(b.count, 0u);
    EXPECT_EQ(d.stats().endOfPageSuppressed, 1u);
}

TEST(SpbDetector, StorageBitsMatchPaperBudget)
{
    // 58 (last block) + 4 (sat counter) + ceil(log2(N)) store count.
    EXPECT_EQ(SpbDetector(withN(31)).storageBits(), 58u + 4 + 5);
    EXPECT_EQ(SpbDetector(withN(48)).storageBits(), 58u + 4 + 6);
}

TEST(SpbDetector, InterleavedStoresStillDetected)
{
    // Compiler-shuffled order (roms-style): the stores inside each
    // block are reordered, but block-level deltas stay 0 / +1, so the
    // detector must still fire.
    SpbDetector d(withN(16));
    int bursts = 0;
    Addr base = 0x90000;
    // Write the page block by block, but shuffle the 8 stores inside
    // each block.
    for (int blk = 0; blk < 32; ++blk) {
        const int order[8] = {3, 1, 4, 0, 5, 7, 2, 6};
        for (int j = 0; j < 8; ++j) {
            const Addr a = base + blk * kBlockSize + order[j] * 8;
            if (d.onStoreCommit(a, 8).count > 0)
                ++bursts;
        }
    }
    EXPECT_GE(bursts, 1) << "intra-block shuffling must not defeat SPB";
}

TEST(SpbDetector, ContiguousStepAcrossAliasBoundary)
{
    // The last-block register is 58 bits wide, so block 2^58 - 1 is
    // followed by alias 0. A contiguous store stream crossing that
    // boundary must still read as delta +1: the delta has to be
    // reduced mod 2^58 just like the register contents, not computed
    // as a raw 64-bit difference (which would be 1 - 2^58).
    SpbDetector d(withN(16));
    const Addr top_block_addr = ~Addr{0} - (kBlockSize - 1);
    d.onStoreCommit(top_block_addr - kBlockSize, 8); // block 2^58 - 2
    d.onStoreCommit(top_block_addr, 8);              // block 2^58 - 1
    EXPECT_EQ(d.satCounter(), 1u);
    d.onStoreCommit(0x0, 8); // block aliases to 0: still contiguous
    EXPECT_EQ(d.satCounter(), 2u)
        << "a +1 step across the 58-bit alias boundary must count";
    EXPECT_EQ(d.lastBlock(), 0u);
}

TEST(SpbDetector, EndOfPageSuppressionCountsEachOccurrence)
{
    SpbDetector d(withN(8));
    // Two separate windows, each closing in the last block of a page:
    // both checks fire, both bursts have zero blocks left to request.
    for (Addr page : {Addr{0x70000}, Addr{0x90000}}) {
        const Addr last_block = page + kPageSize - kBlockSize;
        for (int i = 0; i < 8; ++i)
            d.onStoreCommit(last_block - kBlockSize + i * 8, 8);
        EXPECT_EQ(d.onStoreCommit(last_block, 8).count, 0u);
    }
    EXPECT_EQ(d.stats().endOfPageSuppressed, 2u);
    EXPECT_EQ(d.stats().bursts, 0u) << "a suppressed burst is no burst";
    EXPECT_EQ(d.stats().blocksRequested, 0u);
}

/** A random store stream: ascending runs, descending runs and
 *  scattered stores, with a store size per run. */
class StoreStream
{
  public:
    explicit StoreStream(std::uint64_t seed) : rng_(seed) {}

    std::pair<Addr, unsigned>
    next()
    {
        if (left_ == 0) {
            kind_ = rng_.below(3);
            left_ = 16 + rng_.below(400);
            size_ = 4u << rng_.below(4); // 4..32 bytes
            addr_ = 0x1000'0000 + rng_.below(1 << 16) * kPageSize +
                    rng_.below(kPageSize);
        }
        --left_;
        if (kind_ == 0)
            addr_ += size_;
        else if (kind_ == 1)
            addr_ -= size_;
        else
            addr_ = 0x1000'0000 + rng_.below(1 << 28);
        return {addr_, size_};
    }

  private:
    Rng rng_;
    std::uint64_t kind_ = 0;
    std::uint64_t left_ = 0;
    unsigned size_ = 8;
    Addr addr_ = 0;
};

// A detector restored from another one's registers must behave exactly
// like it from then on, whatever its own history was (the sampling
// transplant depends on this).
TEST(SpbDetector, RestoredTwinBehavesLikeItsSource)
{
    SpbParams dynamic;
    dynamic.dynamicThreshold = true;
    SpbParams backward;
    backward.backwardBursts = true;
    const SpbParams variants[] = {SpbParams{}, dynamic, backward};
    for (const SpbParams &params : variants) {
        SCOPED_TRACE(params.dynamicThreshold ? "dynamicThreshold"
                     : params.backwardBursts ? "backwardBursts"
                                             : "default");
        std::uint64_t bursts = 0, backward_bursts = 0;
        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
            SpbDetector a(params), b(params);
            StoreStream history_a(seed), history_b(seed + 100);
            for (std::uint64_t i = 0; i < 500 + seed * 37; ++i) {
                const auto [addr, size] = history_a.next();
                a.onStoreCommit(addr, size);
            }
            for (std::uint64_t i = 0; i < 300 + seed * 53; ++i) {
                const auto [addr, size] = history_b.next();
                b.onStoreCommit(addr, size);
            }
            b.restoreArchitecturalState(a.architecturalState());
            ASSERT_EQ(b.architecturalState(), a.architecturalState())
                << "seed " << seed;

            StoreStream shared(seed + 200);
            for (int i = 0; i < 3000; ++i) {
                const auto [addr, size] = shared.next();
                const SpbBurst x = a.onStoreCommit(addr, size);
                const SpbBurst y = b.onStoreCommit(addr, size);
                ASSERT_EQ(y.count, x.count) << "seed " << seed << " store "
                                            << i;
                ASSERT_EQ(y.firstBlock, x.firstBlock)
                    << "seed " << seed << " store " << i;
            }
            EXPECT_EQ(b.architecturalState(), a.architecturalState());
            bursts += a.stats().bursts;
            backward_bursts += a.stats().backwardBursts;
        }
        // The streams must exercise what they compare.
        EXPECT_GT(bursts, 100u);
        if (params.backwardBursts) {
            EXPECT_GT(backward_bursts, 10u);
        }
    }
}

// ---------------------------------------------------------------------
// Dynamic-threshold variant (Sec. IV-C ablation)
// ---------------------------------------------------------------------

TEST(SpbDetectorDynamic, AdaptsThresholdToStoreSize)
{
    // With 32-byte stores, a block holds 2 stores: 16 contiguous
    // stores cover 8 blocks. The fixed N/8 threshold (2) fires; the
    // dynamic variant requires N/S with S = 2 -> threshold 8.
    SpbDetector fixed(withN(16, false));
    SpbDetector dyn(withN(16, true));
    int fixed_bursts = 0, dyn_bursts = 0;
    for (int i = 0; i < 64; ++i) {
        fixed_bursts += fixed.onStoreCommit(0xa0000 + i * 32, 32).count > 0;
        dyn_bursts += dyn.onStoreCommit(0xa0000 + i * 32, 32).count > 0;
    }
    EXPECT_GT(fixed_bursts, 0);
    EXPECT_GT(dyn_bursts, 0) << "dynamic variant still fires eventually";
}

TEST(SpbDetectorDynamic, EightByteStoresMatchFixedBehaviour)
{
    SpbDetector fixed(withN(48, false));
    SpbDetector dyn(withN(48, true));
    int ffire = 0, dfire = 0;
    for (int i = 0; i < 480; ++i) {
        ffire += fixed.onStoreCommit(0xb0000 + i * 8, 8).count > 0;
        dfire += dyn.onStoreCommit(0xb0000 + i * 8, 8).count > 0;
    }
    EXPECT_EQ(ffire, dfire);
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

TEST(SpbEngine, TriggersBurstIntoL1Controller)
{
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(1), &clock);
    SpbEngine engine(withN(8), &mem.l1d(0), 0);
    for (int i = 0; i < 64; ++i)
        engine.onStoreCommit(0x10000 + i * 8, 8, Region::Memset);
    EXPECT_GE(engine.stats().bursts, 1u);
    EXPECT_GT(mem.l1d(0).burstBacklog() + mem.l1d(0).stats().spbIssued,
              0u);
    // Run the clock: all requested blocks become owned.
    for (int i = 0; i < 2000; ++i)
        clock.tick();
    EXPECT_TRUE(mem.l1d(0).probeOwned(0x10000 + 10 * kBlockSize));
    EXPECT_TRUE(mem.l1d(0).probeOwned(0x10000 + 63 * kBlockSize));
    // But never past the page boundary.
    EXPECT_FALSE(mem.l1d(0).probeValid(0x11000));
}

TEST(SpbEngine, DetectorOnlyModeNeedsNoController)
{
    SpbEngine engine(withN(8), nullptr, 0);
    for (int i = 0; i < 64; ++i)
        engine.onStoreCommit(0x10000 + i * 8, 8, Region::App);
    EXPECT_GE(engine.stats().bursts, 1u);
}

} // namespace
} // namespace spburst
