/**
 * @file
 * Unit tests for the structural cache pieces: tag array (with its
 * per-frame change tracking), MSHR file and the DRAM model.
 */

#include <gtest/gtest.h>

#include "common/clock.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"

namespace spburst
{
namespace
{

CacheGeometry
smallGeom()
{
    return CacheGeometry{4 * 1024, 4}; // 16 sets x 4 ways
}

TEST(CacheGeometry, SetCount)
{
    EXPECT_EQ(smallGeom().numSets(), 16u);
    EXPECT_EQ((CacheGeometry{32 * 1024, 8}.numSets()), 64u);
}

TEST(SetAssocCache, MissThenFillThenHit)
{
    SetAssocCache cache(smallGeom());
    EXPECT_EQ(cache.find(0x1000), nullptr);
    CacheBlk &victim = cache.victim(0x1000);
    cache.fill(victim, 0x1000, CohState::Exclusive);
    CacheBlk *blk = cache.find(0x1000);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->tag, 0x1000u);
    EXPECT_EQ(blk->state, CohState::Exclusive);
    EXPECT_EQ(cache.validCount(), 1u);
}

TEST(SetAssocCache, FindIsBlockGranular)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Shared);
    EXPECT_NE(cache.find(0x103f), nullptr);
    EXPECT_EQ(cache.find(0x1040), nullptr);
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache cache(smallGeom());
    // Fill one set (same set index, different tags).
    const Addr set_stride = 16 * kBlockSize; // sets * blockSize
    std::vector<Addr> addrs;
    for (int i = 0; i < 4; ++i)
        addrs.push_back(0x1000 + i * set_stride);
    for (Addr a : addrs)
        cache.fill(cache.victim(a), a, CohState::Shared);
    EXPECT_EQ(cache.validCount(), 4u);

    // Touch the first one: it becomes MRU; victim must be the second.
    cache.touch(*cache.find(addrs[0]));
    CacheBlk &victim = cache.victim(0x1000 + 4 * set_stride);
    EXPECT_EQ(victim.tag, addrs[1]);
}

TEST(SetAssocCache, VictimPrefersInvalidFrames)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Modified);
    CacheBlk &victim = cache.victim(0x1000 + 16 * kBlockSize);
    EXPECT_EQ(victim.state, CohState::Invalid);
}

TEST(SetAssocCache, InvalidateReportsDirty)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Modified);
    cache.fill(cache.victim(0x2000), 0x2000, CohState::Shared);
    EXPECT_TRUE(cache.invalidate(0x1000));
    EXPECT_FALSE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.invalidate(0x3000)); // absent
    EXPECT_EQ(cache.validCount(), 0u);
}

TEST(SetAssocCache, FillResetsPrefetchMetadata)
{
    SetAssocCache cache(smallGeom());
    CacheBlk &frame = cache.victim(0x1000);
    frame.prefetched = true;
    frame.prefetchUsed = true;
    cache.fill(frame, 0x1000, CohState::Shared);
    EXPECT_FALSE(frame.prefetched);
    EXPECT_FALSE(frame.prefetchUsed);
}

// ---------------------------------------------------------------------
// Change tracking: the delta transplant of sampled runs
// ---------------------------------------------------------------------

/** The transplant normalisation, written out independently of
 *  SetAssocCache: invalid frames are blank, valid ones keep tag, state
 *  and LRU stamp only. */
CacheBlk
transplantOf(const CacheBlk &warm)
{
    CacheBlk f;
    if (isValid(warm.state)) {
        f.tag = warm.tag;
        f.state = warm.state;
        f.lastTouch = warm.lastTouch;
    }
    return f;
}

/** One random frame mutation through the public API, of the kinds the
 *  cache controller and the warm image make. */
void
mutate(SetAssocCache &c, Rng &rng)
{
    const Addr block = rng.below(256) * kBlockSize;
    switch (rng.below(5)) {
      case 0: // demand hit
        if (CacheBlk *b = c.find(block))
            c.touch(*b);
        break;
      case 1: // demand fill
        if (c.find(block) == nullptr)
            c.fill(c.victim(block), block,
                   rng.chance(0.5) ? CohState::Exclusive
                                   : CohState::Modified);
        break;
      case 2:
        c.invalidate(block);
        break;
      case 3: // controller-style field writes through find()
        if (CacheBlk *b = c.find(block)) {
            b->state = CohState::Shared;
            b->prefetchUsed = true;
        }
        break;
      default: // prefetch fill
        if (c.find(block) == nullptr) {
            CacheBlk &v = c.victim(block);
            c.fill(v, block, CohState::Exclusive);
            v.prefetched = true;
            v.fillCmd = MemCmd::StorePF;
        }
        break;
    }
}

/** A demand access: the frame index of the hit, or -(victim + 1) after
 *  filling the victim on a miss. */
std::ptrdiff_t
accessFrame(SetAssocCache &c, Addr block)
{
    if (CacheBlk *hit = c.find(block)) {
        c.touch(*hit);
        return hit - c.frames().data();
    }
    CacheBlk &v = c.victim(block);
    c.fill(v, block, CohState::Exclusive);
    return -(&v - c.frames().data()) - 1;
}

TEST(CacheChangeTracking, RestoreFromMatchesIndependentlyMutatedImage)
{
    // 32 sets x 4 ways: 128 frames, two bitmap words. 256 candidate
    // blocks keep hits, evictions and invalidations all frequent.
    const CacheGeometry geom{8 * 1024, 4};
    // image/detailed play a live run; replay/twin play its checkpoint
    // replay: replay is fed image's deltas, twin mirrors detailed's
    // mutations (same seed) and is transplanted from replay.
    SetAssocCache image(geom), detailed(geom), replay(geom), twin(geom);
    Rng image_rng(7), detailed_rng(11), twin_rng(11);
    for (int period = 0; period < 200; ++period) {
        for (std::uint64_t i = image_rng.below(40); i > 0; --i)
            mutate(image, image_rng);
        const std::uint64_t n = detailed_rng.below(40);
        EXPECT_EQ(twin_rng.below(40), n);
        for (std::uint64_t i = 0; i < n; ++i) {
            mutate(detailed, detailed_rng);
            mutate(twin, twin_rng);
        }

        replay.applyDelta(image.snapshotChanges());
        detailed.restoreFrom(image);
        twin.restoreFrom(replay);
        image.clearChanges();
        replay.clearChanges();

        for (std::size_t f = 0; f < image.frames().size(); ++f) {
            const CacheBlk want = transplantOf(image.frames()[f]);
            ASSERT_EQ(detailed.frames()[f], want)
                << "period " << period << " frame " << f;
            ASSERT_EQ(twin.frames()[f], want)
                << "period " << period << " frame " << f;
        }
        EXPECT_TRUE(detailed.equalsTransplantOf(image));
        EXPECT_TRUE(twin.equalsTransplantOf(image));
        EXPECT_TRUE(detailed.snapshotChanges().frames.empty())
            << "restoreFrom clears the target's change bits";

        // A restored array behaves exactly like its source: on one
        // random access sequence (run on copies, so the next period
        // starts from the same state) every lookup hits the same frame
        // and every miss picks the same victim.
        SetAssocCache source = image, restored = detailed;
        Rng access_rng(static_cast<std::uint64_t>(period) + 1000);
        for (int i = 0; i < 64; ++i) {
            const Addr block = access_rng.below(256) * kBlockSize;
            ASSERT_EQ(accessFrame(restored, block),
                      accessFrame(source, block))
                << "period " << period << " access " << i;
        }
    }
}

TEST(CacheChangeTracking, ConstFindMarksNothing)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Shared);
    cache.clearChanges();
    const SetAssocCache &view = cache;
    EXPECT_NE(view.find(0x1000), nullptr);
    EXPECT_EQ(view.find(0x2000), nullptr);
    EXPECT_TRUE(cache.snapshotChanges().frames.empty());

    ASSERT_NE(cache.find(0x1000), nullptr);
    const CacheTagDelta delta = cache.snapshotChanges();
    ASSERT_EQ(delta.frames.size(), 1u);
    EXPECT_EQ(delta.frames[0].tag, 0x1000u);
}

TEST(CacheChangeTracking, DeltaCarriesInvalidations)
{
    SetAssocCache image(smallGeom()), replay(smallGeom());
    image.fill(image.victim(0x1000), 0x1000, CohState::Modified);
    replay.applyDelta(image.snapshotChanges());
    image.clearChanges();
    EXPECT_NE(replay.find(0x1000), nullptr);

    image.invalidate(0x1000);
    const CacheTagDelta delta = image.snapshotChanges();
    ASSERT_EQ(delta.frames.size(), 1u);
    EXPECT_EQ(delta.frames[0].state, CohState::Invalid);
    replay.applyDelta(delta);
    EXPECT_EQ(replay.find(0x1000), nullptr)
        << "an eviction in the image must reach the replayed copy";
}

TEST(CohState, OwnershipPredicate)
{
    EXPECT_FALSE(hasOwnership(CohState::Invalid));
    EXPECT_FALSE(hasOwnership(CohState::Shared));
    EXPECT_TRUE(hasOwnership(CohState::Exclusive));
    EXPECT_TRUE(hasOwnership(CohState::Modified));
    EXPECT_STREQ(cohStateName(CohState::Modified), "M");
}

TEST(MemCmd, PredicatesAndNames)
{
    EXPECT_TRUE(isPrefetch(MemCmd::StorePF));
    EXPECT_TRUE(isPrefetch(MemCmd::SpbPF));
    EXPECT_TRUE(isPrefetch(MemCmd::ReadPF));
    EXPECT_FALSE(isPrefetch(MemCmd::ReadReq));
    EXPECT_TRUE(wantsOwnership(MemCmd::WriteOwnReq));
    EXPECT_TRUE(wantsOwnership(MemCmd::SpbPF));
    EXPECT_FALSE(wantsOwnership(MemCmd::ReadPF));
    EXPECT_TRUE(isStorePrefetch(MemCmd::SpbPF));
    EXPECT_FALSE(isStorePrefetch(MemCmd::ReadPF));
    EXPECT_STREQ(memCmdName(MemCmd::SpbPF), "SpbPF");
}

// ---------------------------------------------------------------------
// MSHR file
// ---------------------------------------------------------------------

TEST(Mshr, AllocateFindDeallocate)
{
    MshrFile mshr(4);
    EXPECT_EQ(mshr.find(0x1000), nullptr);
    MshrEntry *e = mshr.allocate(0x1010, MemCmd::ReadReq, 5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->blockAddr, 0x1000u); // block aligned
    EXPECT_EQ(e->allocCycle, 5u);
    EXPECT_FALSE(e->ownershipRequested);
    EXPECT_EQ(mshr.find(0x1020), e); // same block
    mshr.deallocate(0x1000);
    EXPECT_EQ(mshr.find(0x1000), nullptr);

    // Out-of-order deallocation: freeing the oldest entry swap-removes
    // the newest into its index position, and every survivor is still
    // found at its own (unmoved) slot.
    MshrEntry *a = mshr.allocate(0x1000, MemCmd::ReadReq, 6);
    MshrEntry *b = mshr.allocate(0x2000, MemCmd::ReadReq, 7);
    MshrEntry *c = mshr.allocate(0x3000, MemCmd::ReadReq, 8);
    mshr.deallocate(0x1000);
    EXPECT_EQ(mshr.find(0x1000), nullptr);
    EXPECT_EQ(mshr.find(0x2000), b);
    EXPECT_EQ(mshr.find(0x3000), c);
    EXPECT_EQ(mshr.find(0x3000)->allocCycle, 8u);
    mshr.deallocate(0x3000);
    EXPECT_EQ(mshr.find(0x2000), b);
    EXPECT_EQ(mshr.inUse(), 1u);

    // A freed block address can be allocated again, and is found.
    a = mshr.allocate(0x1000, MemCmd::WriteOwnReq, 9);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(mshr.find(0x1000), a);
    EXPECT_EQ(a->allocCycle, 9u);
    EXPECT_TRUE(a->ownershipRequested);
    EXPECT_EQ(mshr.find(0x2000), b);
    mshr.deallocate(0x2000);
    mshr.deallocate(0x1000);
    EXPECT_EQ(mshr.inUse(), 0u);
    EXPECT_EQ(mshr.find(0x1000), nullptr);
    EXPECT_EQ(mshr.find(0x2000), nullptr);
}

TEST(Mshr, OwnershipFlagTracksCommand)
{
    MshrFile mshr(4);
    EXPECT_TRUE(
        mshr.allocate(0x1000, MemCmd::WriteOwnReq, 0)->ownershipRequested);
    EXPECT_TRUE(mshr.allocate(0x2000, MemCmd::SpbPF, 0)->ownershipRequested);
    EXPECT_FALSE(
        mshr.allocate(0x3000, MemCmd::ReadPF, 0)->ownershipRequested);
}

TEST(Mshr, CapacityEnforced)
{
    MshrFile mshr(2);
    EXPECT_NE(mshr.allocate(0x1000, MemCmd::ReadReq, 0), nullptr);
    EXPECT_FALSE(mshr.full());
    EXPECT_NE(mshr.allocate(0x2000, MemCmd::ReadReq, 0), nullptr);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.inUse(), mshr.capacity());
    EXPECT_EQ(mshr.allocate(0x3000, MemCmd::ReadReq, 0), nullptr);
    EXPECT_EQ(mshr.find(0x3000), nullptr) << "a refused miss is not found";
    mshr.deallocate(0x1000);
    EXPECT_FALSE(mshr.full());
    MshrEntry *e = mshr.allocate(0x3000, MemCmd::ReadReq, 0);
    EXPECT_NE(e, nullptr);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.find(0x3000), e);
    EXPECT_NE(mshr.find(0x2000), nullptr);

    // Full again after every entry has been recycled once.
    mshr.deallocate(0x2000);
    mshr.deallocate(0x3000);
    EXPECT_EQ(mshr.inUse(), 0u);
    EXPECT_NE(mshr.allocate(0x2000, MemCmd::ReadReq, 1), nullptr);
    EXPECT_NE(mshr.allocate(0x4000, MemCmd::ReadReq, 1), nullptr);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.allocate(0x5000, MemCmd::ReadReq, 1), nullptr);
}

TEST(Mshr, TargetsAccumulate)
{
    MshrFile mshr(2);
    MshrEntry *e = mshr.allocate(0x1000, MemCmd::ReadReq, 0);
    e->targets.push_back(MshrTarget{});
    e->targets.push_back(MshrTarget{true, false, false, 3, nullptr});
    EXPECT_EQ(mshr.find(0x1000)->targets.size(), 2u);
}

// ---------------------------------------------------------------------
// DRAM model
// ---------------------------------------------------------------------

TEST(Dram, ReadLatency)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    EXPECT_EQ(dram.read(), 100u);
    EXPECT_EQ(dram.reads(), 1u);
}

TEST(Dram, ChannelOccupancySerializes)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    // Back-to-back reads at cycle 0 on one channel space by occupancy.
    EXPECT_EQ(dram.read(), 100u);
    EXPECT_EQ(dram.read(), 104u);
    EXPECT_EQ(dram.read(), 108u);
    EXPECT_GT(dram.queueDelay(), 0u);
}

TEST(Dram, TwoChannelsDoubleBandwidth)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 2}, &clock);
    EXPECT_EQ(dram.read(), 100u);
    EXPECT_EQ(dram.read(), 100u); // second channel
    EXPECT_EQ(dram.read(), 104u);
    EXPECT_EQ(dram.read(), 104u);
}

TEST(Dram, WritesConsumeBandwidthOnly)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    dram.write();
    EXPECT_EQ(dram.writes(), 1u);
    EXPECT_EQ(dram.read(), 104u); // queued behind the write
}

TEST(Dram, IdleChannelsRecover)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    dram.read();
    clock.now = 50;
    EXPECT_EQ(dram.read(), 150u); // no residual queueing
}

} // namespace
} // namespace spburst
