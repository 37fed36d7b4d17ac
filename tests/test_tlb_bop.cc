/**
 * @file
 * Unit tests for the data TLB and the best-offset prefetcher.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "cpu/tlb.hh"
#include "prefetch/best_offset.hh"

namespace spburst
{
namespace
{

// ---------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------

TEST(Tlb, MissThenHit)
{
    Tlb tlb(TlbParams{});
    EXPECT_EQ(tlb.access(0x1000), tlb.params().walkLatency);
    EXPECT_EQ(tlb.access(0x1008), 0u) << "same page hits";
    EXPECT_EQ(tlb.access(0x1fff), 0u);
    EXPECT_EQ(tlb.access(0x2000), tlb.params().walkLatency)
        << "next page misses";
    EXPECT_EQ(tlb.stats().hits, 2u);
    EXPECT_EQ(tlb.stats().misses, 2u);
}

TEST(Tlb, CapacityEvictsLru)
{
    TlbParams p;
    p.entries = 8;
    p.ways = 8; // fully associative, single set
    Tlb tlb(p);
    for (Addr page = 0; page < 8; ++page)
        tlb.access(page << kPageShift);
    EXPECT_TRUE(tlb.probe(0));
    // Touch page 0 so page 1 becomes LRU, then insert a 9th page.
    tlb.access(0);
    tlb.access(8ull << kPageShift);
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_FALSE(tlb.probe(1ull << kPageShift)) << "LRU page evicted";
    EXPECT_TRUE(tlb.probe(8ull << kPageShift));
}

TEST(Tlb, DisabledCostsNothing)
{
    TlbParams p;
    p.enabled = false;
    Tlb tlb(p);
    for (Addr a = 0; a < 100 * kPageSize; a += kPageSize)
        EXPECT_EQ(tlb.access(a), 0u);
    EXPECT_EQ(tlb.stats().misses, 0u);
}

TEST(Tlb, SetIndexingSpreadsPages)
{
    Tlb tlb(TlbParams{}); // 64 entries, 8-way -> 8 sets
    // 8 pages mapping to the same set must all fit (8 ways)...
    for (Addr page = 0; page < 64; page += 8)
        tlb.access(page << kPageShift);
    for (Addr page = 0; page < 64; page += 8)
        EXPECT_TRUE(tlb.probe(page << kPageShift));
    // ...and the 9th conflicts.
    tlb.access(64ull << kPageShift);
    int resident = 0;
    for (Addr page = 0; page < 72; page += 8)
        resident += tlb.probe(page << kPageShift);
    EXPECT_EQ(resident, 8);
}

// A TLB restored from another one's snapshot must translate exactly
// like it from then on, whatever its own history was (the sampling
// transplant depends on this). The twin's history is the shorter one,
// so its own use clock lags the restored entries' stamps.
TEST(Tlb, RestoredTwinGivesTheSameLatencies)
{
    // 70 % of accesses to 48 hot pages, the rest over 512: hits, misses
    // and LRU evictions are all frequent in a 64-entry TLB.
    auto vaddr = [](Rng &rng) {
        const Addr page = rng.chance(0.7) ? rng.below(48) : rng.below(512);
        return (page << kPageShift) + rng.below(kPageSize);
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Tlb a(TlbParams{}), b(TlbParams{});
        Rng history_a(seed), history_b(seed + 100), shared(seed + 200);
        for (int i = 0; i < 4000; ++i)
            a.access(vaddr(history_a));
        for (int i = 0; i < 400; ++i)
            b.access(vaddr(history_b));
        b.restoreEntries(a.snapshotEntries());
        std::uint64_t misses = 0;
        for (int i = 0; i < 4000; ++i) {
            const Addr v = vaddr(shared);
            const Cycle want = a.access(v);
            ASSERT_EQ(b.access(v), want) << "seed " << seed << " access "
                                         << i;
            misses += want != 0;
        }
        EXPECT_GT(misses, 100u);
        EXPECT_LT(misses, 3900u);
    }
}

// ---------------------------------------------------------------------
// Best-offset prefetcher
// ---------------------------------------------------------------------

MemRequest
demandAt(Addr block)
{
    MemRequest r;
    r.cmd = MemCmd::ReadReq;
    r.blockAddr = block << kBlockShift;
    return r;
}

TEST(BestOffset, LearnsAConstantStride)
{
    BestOffsetPrefetcher bop;
    std::vector<Addr> out;
    // Stride of 3 blocks, long enough to finish a learning round (the
    // mirrored candidate list tests 48 offsets round-robin).
    for (Addr b = 0; b < 8000; b += 3)
        bop.notifyAccess(demandAt(b), false, out);
    EXPECT_GE(bop.learning().rounds, 1u);
    EXPECT_EQ(bop.learning().lastBestOffset, 3)
        << "BOP must converge on the true stride";
}

TEST(BestOffset, PrefetchesWithTheCurrentOffset)
{
    BestOffsetPrefetcher bop; // starts with offset 1
    std::vector<Addr> out;
    bop.notifyAccess(demandAt(100), false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], Addr{101} << kBlockShift);
}

TEST(BestOffset, TurnsOffOnRandomTraffic)
{
    BestOffsetParams params;
    params.roundMax = 20; // fast rounds for the test
    BestOffsetPrefetcher bop(params);
    Rng rng(5);
    std::vector<Addr> out;
    for (int i = 0; i < 30000; ++i) {
        out.clear();
        bop.notifyAccess(demandAt(rng.below(1u << 26)), false, out);
    }
    EXPECT_EQ(bop.currentOffset(), 0)
        << "no offset scores on random traffic: prefetching stops";
    EXPECT_GE(bop.learning().offChanges, 1u);
}

TEST(BestOffset, RecoversAfterPhaseChange)
{
    BestOffsetParams params;
    params.roundMax = 20;
    BestOffsetPrefetcher bop(params);
    Rng rng(5);
    std::vector<Addr> out;
    for (int i = 0; i < 30000; ++i) {
        out.clear();
        bop.notifyAccess(demandAt(rng.below(1u << 26)), false, out);
    }
    ASSERT_EQ(bop.currentOffset(), 0);
    // A regular phase re-enables prefetching with the right offset.
    for (Addr b = 0; b < 20000; b += 2)
        bop.notifyAccess(demandAt(b), false, out);
    EXPECT_EQ(bop.learning().lastBestOffset, 2);
}

TEST(BestOffset, CandidateListIsSane)
{
    const auto &offsets = BestOffsetPrefetcher::candidateOffsets();
    EXPECT_GE(offsets.size(), 32u);
    EXPECT_EQ(offsets.front(), 1);
    std::set<int> seen;
    for (int o : offsets) {
        EXPECT_NE(o, 0) << "offset 0 means 'disabled', never a candidate";
        EXPECT_TRUE(seen.insert(o).second) << "duplicate offset " << o;
    }
    // Michaud's negative offsets: every magnitude appears both ways.
    for (int o : offsets)
        EXPECT_TRUE(seen.count(-o)) << "missing mirror of " << o;
}

// Regression: the issue path used to emit (block + offset) with no page
// clamp, prefetching the first block of the *next* page from the last
// block of the current one.
TEST(BestOffset, EmissionIsClampedToThePage)
{
    BestOffsetPrefetcher bop; // starts with offset 1
    std::vector<Addr> out;
    bop.notifyAccess(demandAt(kBlocksPerPage - 1), false, out);
    EXPECT_TRUE(out.empty())
        << "offset 1 from the last block of a page must not cross it";
    EXPECT_EQ(bop.prefetcherStats().issued, 0u);

    // One block earlier the same offset stays in the page and issues.
    bop.notifyAccess(demandAt(kBlocksPerPage - 2), false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (kBlocksPerPage - 1) << kBlockShift);
}

// Regression: RR-table training used to score candidates whose base
// X - O lies in a different page, so a page-crossing stride (here +64:
// the first block of each consecutive page) learned a spurious winner.
TEST(BestOffset, TrainingNeverScoresAcrossPages)
{
    BestOffsetParams params;
    params.roundMax = 20; // fast rounds for the test
    BestOffsetPrefetcher bop(params);
    std::vector<Addr> out;
    for (Addr b = kBlocksPerPage; b < 3000 * kBlocksPerPage;
         b += kBlocksPerPage) {
        out.clear();
        bop.notifyAccess(demandAt(b), false, out);
    }
    ASSERT_GE(bop.learning().rounds, 1u);
    EXPECT_EQ(bop.currentOffset(), 0)
        << "the only correlation crosses pages; BOP must turn off";
    EXPECT_EQ(bop.learning().lastBestScore, 0u);
}

// Regression: the candidate list used to be all-positive (and the issue
// path guarded currentOffset_ > 0), so descending streams never
// prefetched.
TEST(BestOffset, DescendingStrideSelectsANegativeWinner)
{
    BestOffsetPrefetcher bop;
    std::vector<Addr> out;
    constexpr Addr kTop = 40000;
    for (Addr b = kTop; b >= 4; b -= 2)
        bop.notifyAccess(demandAt(b), false, out);
    ASSERT_GE(bop.learning().rounds, 1u);
    EXPECT_EQ(bop.learning().lastBestOffset, -2)
        << "a descending stride must learn its negative offset";

    // With the negative winner, prefetches run down the page...
    out.clear();
    bop.notifyAccess(demandAt(2 * kBlocksPerPage + 10), false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (2 * kBlocksPerPage + 8) << kBlockShift);

    // ...and block + offset is underflow-guarded at the bottom of the
    // address space (and page-clamped at the bottom of each page).
    out.clear();
    bop.notifyAccess(demandAt(1), false, out);
    EXPECT_TRUE(out.empty()) << "block 1 - 2 underflows: no prefetch";
    out.clear();
    bop.notifyAccess(demandAt(3 * kBlocksPerPage), false, out);
    EXPECT_TRUE(out.empty())
        << "offset -2 from a page's first block crosses the page";
}

} // namespace
} // namespace spburst
