/**
 * @file
 * Unit tests for the trace substrate: uop factories, segment
 * generators, workload programs and the profile registry.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "trace/program.hh"
#include "trace/segments.hh"
#include "trace/uop.hh"
#include "trace/workloads.hh"

namespace spburst
{
namespace
{

// ---------------------------------------------------------------------
// VectorSource replay and post-exhaustion filler
// ---------------------------------------------------------------------

TEST(VectorSource, LoopModeRepeatsTheSequence)
{
    VectorSource src({uops::alu(0x100), uops::load(0x104, 0x4000)},
                     /*loop=*/true);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(src.next().pc, 0x100u);
        EXPECT_EQ(src.next().pc, 0x104u);
    }
    EXPECT_EQ(src.produced(), 6u);
}

TEST(VectorSource, NonLoopFillerIsAnInertNop)
{
    // After exhaustion a non-looping source pads with IntAlu no-ops.
    // The filler must be inert: no dependences, no destination, no
    // memory access, no branch — anything else would perturb the core
    // state the test meant to freeze.
    VectorSource src({uops::store(0x100, 0x4000)}, /*loop=*/false);
    EXPECT_EQ(src.next().cls, OpClass::Store);
    for (int i = 0; i < 4; ++i) {
        const MicroOp nop = src.next();
        EXPECT_EQ(nop.cls, OpClass::IntAlu);
        EXPECT_EQ(nop.pc, 0xdead0000u) << "filler pc marks padding";
        EXPECT_EQ(nop.srcDist1, 0);
        EXPECT_EQ(nop.srcDist2, 0);
        EXPECT_FALSE(nop.hasDest);
        EXPECT_FALSE(nop.mispredicted);
    }
    EXPECT_EQ(src.produced(), 5u) << "fillers count as produced uops";
}

// ---------------------------------------------------------------------
// uop factories
// ---------------------------------------------------------------------

TEST(Uops, FactoriesSetFields)
{
    const MicroOp a = uops::alu(0x100, 2, 3);
    EXPECT_EQ(a.cls, OpClass::IntAlu);
    EXPECT_TRUE(a.hasDest);
    EXPECT_EQ(a.srcDist1, 2);
    EXPECT_EQ(a.srcDist2, 3);

    const MicroOp l = uops::load(0x104, 0x4000, 4, 1);
    EXPECT_EQ(l.cls, OpClass::Load);
    EXPECT_EQ(l.addr, 0x4000u);
    EXPECT_EQ(l.size, 4);
    EXPECT_TRUE(l.hasDest);

    const MicroOp s = uops::store(0x108, 0x8000, 8, 1, Region::Memset);
    EXPECT_EQ(s.cls, OpClass::Store);
    EXPECT_FALSE(s.hasDest);
    EXPECT_EQ(s.region, Region::Memset);

    const MicroOp b = uops::branch(0x10c, true, 1);
    EXPECT_EQ(b.cls, OpClass::Branch);
    EXPECT_TRUE(b.mispredicted);
}

TEST(Uops, ClassPredicatesAndNames)
{
    EXPECT_TRUE(isFloatOp(OpClass::FpMul));
    EXPECT_FALSE(isFloatOp(OpClass::IntMul));
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::Branch));
    EXPECT_STREQ(opClassName(OpClass::FpDiv), "FpDiv");
    EXPECT_STREQ(regionName(Region::ClearPage), "clear_page");
}

// ---------------------------------------------------------------------
// StoreBurstSegment
// ---------------------------------------------------------------------

TEST(StoreBurst, CoversEveryByteOnce)
{
    StoreBurstSegment seg(0x10000, 1024, 8, Region::Memset, 0x400000);
    std::set<Addr> addrs;
    MicroOp op;
    while (seg.produce(op)) {
        if (op.cls == OpClass::Store)
            addrs.insert(op.addr);
    }
    EXPECT_EQ(addrs.size(), 128u); // 1024 / 8
    EXPECT_EQ(*addrs.begin(), 0x10000u);
    EXPECT_EQ(*addrs.rbegin(), 0x10000u + 1024 - 8);
}

TEST(StoreBurst, EmitsLoopOverhead)
{
    StoreBurstSegment seg(0x10000, 512, 8, Region::Memset, 0x400000);
    int stores = 0, alus = 0, branches = 0;
    MicroOp op;
    while (seg.produce(op)) {
        stores += op.cls == OpClass::Store;
        alus += op.cls == OpClass::IntAlu;
        branches += op.cls == OpClass::Branch;
    }
    EXPECT_EQ(stores, 64);
    EXPECT_EQ(alus, 8); // one per 8 stores
    EXPECT_EQ(branches, 8);
}

TEST(StoreBurst, ShuffledStillCoversEveryByte)
{
    StoreBurstSegment seg(0x10000, 1024, 8, Region::App, 0x400000, true);
    std::set<Addr> addrs;
    bool monotonic = true;
    Addr prev = 0;
    MicroOp op;
    while (seg.produce(op)) {
        if (op.cls != OpClass::Store)
            continue;
        addrs.insert(op.addr);
        monotonic &= op.addr >= prev;
        prev = op.addr;
    }
    EXPECT_EQ(addrs.size(), 128u);
    EXPECT_FALSE(monotonic) << "shuffled order must not be monotonic";
}

TEST(StoreBurst, ShuffledBlockDeltasStayTolerable)
{
    // The whole point of block-level detection: the shuffled *address*
    // stream still only ever moves 0 or +-1 blocks at a time.
    StoreBurstSegment seg(0x10000, 2048, 8, Region::App, 0x400000, true);
    Addr prev_block = blockNumber(0x10000);
    MicroOp op;
    while (seg.produce(op)) {
        if (op.cls != OpClass::Store)
            continue;
        const Addr blk = blockNumber(op.addr);
        const std::int64_t delta =
            static_cast<std::int64_t>(blk) -
            static_cast<std::int64_t>(prev_block);
        EXPECT_LE(delta, 2);
        EXPECT_GE(delta, -1);
        prev_block = blk;
    }
}

TEST(StoreBurst, RespectsStoreSize)
{
    StoreBurstSegment seg(0x20000, 256, 4, Region::Calloc, 0x400000);
    int stores = 0;
    MicroOp op;
    while (seg.produce(op))
        if (op.cls == OpClass::Store) {
            EXPECT_EQ(op.size, 4);
            ++stores;
        }
    EXPECT_EQ(stores, 64);
}

// ---------------------------------------------------------------------
// CopyBurstSegment
// ---------------------------------------------------------------------

TEST(CopyBurst, PairsLoadsWithDependentStores)
{
    CopyBurstSegment seg(0x100000, 0x200000, 256, 8, Region::Memcpy,
                         0x7f0000);
    MicroOp op;
    int loads = 0, stores = 0;
    MicroOp last;
    while (seg.produce(op)) {
        if (op.cls == OpClass::Load) {
            ++loads;
            EXPECT_EQ(op.addr, 0x100000u + (loads - 1) * 8);
        } else if (op.cls == OpClass::Store) {
            ++stores;
            EXPECT_EQ(op.addr, 0x200000u + (stores - 1) * 8);
            EXPECT_EQ(op.srcDist1, 1) << "store data comes from the load";
            EXPECT_EQ(last.cls, OpClass::Load);
        }
        last = op;
    }
    EXPECT_EQ(loads, 32);
    EXPECT_EQ(stores, 32);
}

// ---------------------------------------------------------------------
// Other segments
// ---------------------------------------------------------------------

TEST(StridedLoads, FollowsStride)
{
    StridedLoadSegment seg(0x1000, 64, 16, false, 0x410000);
    std::vector<Addr> addrs;
    MicroOp op;
    while (seg.produce(op))
        if (op.cls == OpClass::Load)
            addrs.push_back(op.addr);
    ASSERT_EQ(addrs.size(), 16u);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i], 0x1000u + i * 64);
}

TEST(StridedLoads, FpVariantUsesFpAdd)
{
    StridedLoadSegment seg(0x1000, 8, 8, true, 0x410000);
    bool saw_fp = false;
    MicroOp op;
    while (seg.produce(op))
        saw_fp |= op.cls == OpClass::FpAdd;
    EXPECT_TRUE(saw_fp);
}

TEST(PointerChase, LoadsDependOnPreviousLoad)
{
    Rng rng(3);
    PointerChaseSegment seg(0x100000, 1 << 20, 32, 0x420000, &rng);
    MicroOp op;
    int loads = 0;
    while (seg.produce(op)) {
        if (op.cls != OpClass::Load)
            continue;
        ++loads;
        if (loads > 1) {
            EXPECT_EQ(op.srcDist1, 2);
        }
        EXPECT_GE(op.addr, 0x100000u);
        EXPECT_LT(op.addr, 0x100000u + (1 << 20));
    }
    EXPECT_EQ(loads, 32);
}

TEST(AluChain, RespectsMix)
{
    Rng rng(5);
    AluChainSegment seg(2000, 1.0, 0.0, 0.0, 0x430000, &rng);
    MicroOp op;
    int fp = 0, total = 0;
    while (seg.produce(op)) {
        ++total;
        fp += isFloatOp(op.cls);
    }
    EXPECT_EQ(total, 2000);
    EXPECT_EQ(fp, total) << "fpFraction=1.0 must produce only FP ops";
}

TEST(BranchyLoads, EmitsLoadAluBranchTriples)
{
    Rng rng(7);
    BranchyLoadSegment seg(0x100000, 1 << 16, 50, 0.5, 0x440000, &rng);
    MicroOp op;
    int mispredicted = 0, branches = 0;
    OpClass expect = OpClass::Load;
    while (seg.produce(op)) {
        EXPECT_EQ(op.cls, expect);
        if (op.cls == OpClass::Load) {
            expect = OpClass::IntAlu;
        } else if (op.cls == OpClass::IntAlu) {
            expect = OpClass::Branch;
        } else {
            expect = OpClass::Load;
            ++branches;
            mispredicted += op.mispredicted;
        }
    }
    EXPECT_EQ(branches, 50);
    EXPECT_GT(mispredicted, 10);
    EXPECT_LT(mispredicted, 40);
}

TEST(ScatterStores, AddressesAreScattered)
{
    Rng rng(9);
    ScatterStoreSegment seg(0x100000, 1 << 20, 64, 0x450000, &rng);
    MicroOp op;
    std::set<Addr> blocks;
    while (seg.produce(op))
        if (op.cls == OpClass::Store)
            blocks.insert(blockNumber(op.addr));
    // Random addresses over 16K blocks: collisions should be rare.
    EXPECT_GT(blocks.size(), 55u);
}

// ---------------------------------------------------------------------
// WorkloadProgram
// ---------------------------------------------------------------------

TEST(Program, DeterministicUnderSeed)
{
    auto make = [] {
        auto p = std::make_unique<WorkloadProgram>("t", 123);
        p->addPhase(
            [](Rng &rng) {
                return ScatterStoreSegment(0x1000, 1 << 16, 16, 0x100,
                                           &rng);
            },
            1.0);
        p->addPhase(
            [](Rng &rng) {
                return AluChainSegment(16, 0.5, 0.1, 0.0, 0x200, &rng);
            },
            1.0);
        return p;
    };
    auto a = make();
    auto b = make();
    for (int i = 0; i < 5000; ++i) {
        const MicroOp x = a->next();
        const MicroOp y = b->next();
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
    }
}

TEST(Program, MixesPhases)
{
    WorkloadProgram p("mix", 1);
    p.addPhase(
        [](Rng &rng) {
            return AluChainSegment(8, 0.0, 0.0, 0.0, 0x100, &rng);
        },
        1.0);
    p.addPhase(
        [](Rng &rng) {
            return ScatterStoreSegment(0x1000, 1 << 16, 8, 0x200, &rng);
        },
        1.0);
    int alus = 0, stores = 0;
    for (int i = 0; i < 2000; ++i) {
        const MicroOp op = p.next();
        alus += op.cls == OpClass::IntAlu;
        stores += op.cls == OpClass::Store;
    }
    EXPECT_GT(alus, 100);
    EXPECT_GT(stores, 100);
}

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(Workloads, RegistryNamesMatchPaper)
{
    const auto sb = sbBoundSpecNames();
    const std::set<std::string> expected{"bwaves", "cactuBSSN", "x264",
                                         "blender", "cam4", "deepsjeng",
                                         "fotonik3d", "roms"};
    EXPECT_EQ(std::set<std::string>(sb.begin(), sb.end()), expected);

    const auto parsec_sb = sbBoundParsecNames();
    const std::set<std::string> expected_parsec{"bodytrack", "dedup",
                                                "ferret", "x264_parsec"};
    EXPECT_EQ(std::set<std::string>(parsec_sb.begin(), parsec_sb.end()),
              expected_parsec);
}

TEST(Workloads, AllProfilesBuildAndProduce)
{
    for (const auto &name : allSpecNames()) {
        auto src = makeWorkload(name, 1);
        ASSERT_NE(src, nullptr);
        std::map<OpClass, int> mix;
        for (int i = 0; i < 5000; ++i)
            ++mix[src->next().cls];
        EXPECT_GT(mix[OpClass::Branch], 0) << name;
    }
}

TEST(Workloads, SbBoundProfilesAreStoreBurstHeavy)
{
    for (const auto &name : sbBoundSpecNames()) {
        auto src = makeWorkload(name, 1);
        int burst_stores = 0;
        for (int i = 0; i < 50000; ++i) {
            const MicroOp op = src->next();
            if (op.cls == OpClass::Store)
                burst_stores += op.region != Region::App || true;
        }
        EXPECT_GT(burst_stores, 1000)
            << name << " should carry significant store traffic";
    }
}

TEST(Workloads, ThreadsGetDisjointPrivateAddresses)
{
    const ProfileParams &p = findProfile("dedup");
    auto t0 = buildWorkload(p, 1, 0, 8);
    auto t1 = buildWorkload(p, 1, 1, 8);
    std::set<Addr> pages0, pages1;
    for (int i = 0; i < 20000; ++i) {
        const MicroOp a = t0->next();
        const MicroOp b = t1->next();
        if (isMemOp(a.cls))
            pages0.insert(pageNumber(a.addr));
        if (isMemOp(b.cls))
            pages1.insert(pageNumber(b.addr));
    }
    // Private pages must not collide; only the shared region overlaps.
    std::size_t shared_overlap = 0;
    for (Addr p0 : pages0)
        shared_overlap += pages1.count(p0);
    // All overlapping pages live in the fixed shared region.
    for (Addr p0 : pages0) {
        if (pages1.count(p0)) {
            EXPECT_GE(p0 << kPageShift, 0x7000'0000'0000ULL);
        }
    }
    (void)shared_overlap;
}

TEST(Workloads, UnknownProfileIsFatal)
{
    EXPECT_EXIT(findProfile("not-a-benchmark"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Workloads, RegistrySizes)
{
    EXPECT_GE(allSpecNames().size(), 20u);
    EXPECT_GE(allParsecNames().size(), 10u);
}

} // namespace
} // namespace spburst
