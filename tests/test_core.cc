/**
 * @file
 * Unit/integration tests for the out-of-order core: throughput,
 * dependence handling, commit semantics, stall attribution, branch
 * mispredict recovery and wrong-path behaviour.
 */

#include <gtest/gtest.h>

#include "common/clock.hh"
#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "trace/source.hh"

namespace spburst
{
namespace
{

class CoreTest : public ::testing::Test
{
  protected:
    /** Build a core over a full Table I hierarchy. */
    void
    build(std::vector<MicroOp> uops, CoreConfig cfg = CoreConfig{})
    {
        mem = std::make_unique<MemorySystem>(MemSystemParams::tableI(1),
                                             &clock);
        trace = std::make_unique<VectorSource>(std::move(uops));
        core = std::make_unique<Core>(cfg, 0, &clock, &mem->l1d(0),
                                      trace.get());
    }

    void
    runUops(std::uint64_t target, Cycle budget = 2'000'000)
    {
        const Cycle limit = clock.now + budget;
        while (core->committed() < target && clock.now < limit) {
            clock.tick();
            core->tick();
        }
        ASSERT_GE(core->committed(), target) << "core made no progress";
    }

    SimClock clock;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<VectorSource> trace;
    std::unique_ptr<Core> core;
};

TEST_F(CoreTest, IndependentAluApproachesWidth)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 16; ++i)
        uops.push_back(uops::alu(0x1000 + i * 4));
    build(std::move(uops));
    runUops(40000);
    const double ipc = static_cast<double>(core->stats().committedUops) /
                       static_cast<double>(core->stats().cycles);
    EXPECT_GT(ipc, 3.2) << "independent IntAlu should run near width 4";
}

TEST_F(CoreTest, DependenceChainSerializes)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 16; ++i)
        uops.push_back(uops::alu(0x1000 + i * 4, 1)); // chain
    build(std::move(uops));
    runUops(20000);
    const double ipc = static_cast<double>(core->stats().committedUops) /
                       static_cast<double>(core->stats().cycles);
    EXPECT_LT(ipc, 1.2) << "a 1-deep dependence chain caps IPC at ~1";
    EXPECT_GT(ipc, 0.8);
}

TEST_F(CoreTest, DivLatencyThrottlesChain)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 8; ++i) {
        MicroOp op = uops::alu(0x1000 + i * 4, 1);
        op.cls = OpClass::IntDiv;
        uops.push_back(op);
    }
    build(std::move(uops));
    runUops(2000);
    const double ipc = static_cast<double>(core->stats().committedUops) /
                       static_cast<double>(core->stats().cycles);
    EXPECT_LT(ipc, 0.06) << "22-cycle divides chained: IPC ~ 1/22";
}

TEST_F(CoreTest, SelectSkipsLoadsBlockedByMemPortsForYoungerAlu)
{
    // Three independent loads and an ALU op dispatch together and are
    // all ready in the same cycle. The loads are oldest, but with two
    // memory ports only two of them can issue, so select must pass over
    // the third and still issue the younger ALU op in that cycle: three
    // issues, where stopping at the blocked load gives two and ignoring
    // the port limit gives four.
    CoreConfig cfg;
    cfg.params.issueWidth = 4;
    cfg.params.memPorts = 2;
    build({uops::load(0x1000, 0x400000), uops::load(0x1004, 0x400040),
           uops::load(0x1008, 0x400080), uops::alu(0x100c)},
          cfg);
    std::uint64_t issued = 0;
    while (issued == 0 && clock.now < 1000) {
        clock.tick();
        core->tick();
        issued = core->stats().issuedUops;
    }
    EXPECT_EQ(issued, 3u) << "first issuing cycle";
}

TEST_F(CoreTest, CommitCountsByClass)
{
    std::vector<MicroOp> uops;
    uops.push_back(uops::alu(0x1000));
    uops.push_back(uops::load(0x1004, 0x100000));
    uops.push_back(uops::store(0x1008, 0x200000));
    uops.push_back(uops::branch(0x100c));
    build(std::move(uops));
    runUops(4000);
    const auto &s = core->stats();
    EXPECT_NEAR(static_cast<double>(s.committedLoads),
                static_cast<double>(s.committedUops) / 4.0,
                static_cast<double>(s.committedUops) * 0.05);
    EXPECT_NEAR(static_cast<double>(s.committedStores),
                static_cast<double>(s.committedUops) / 4.0,
                static_cast<double>(s.committedUops) * 0.05);
    // Every committed store either drained or still sits (senior) in
    // the SB; no store may drain without committing first.
    EXPECT_LE(core->storeBuffer().stats().drained, s.committedStores);
    EXPECT_LE(s.committedStores, core->storeBuffer().stats().drained +
                                     core->storeBuffer().size());
}

TEST_F(CoreTest, TinySbStallsAttributedToSb)
{
    // A pure store flood into cold memory with a 2-entry SB.
    std::vector<MicroOp> uops;
    for (int i = 0; i < 64; ++i)
        uops.push_back(
            uops::store(0x1000 + i * 4, 0x300000 + i * 8, 8, 0,
                        Region::Memset));
    CoreConfig cfg;
    cfg.params.sqSize = 2;
    cfg.policy = StorePrefetchPolicy::None;
    build(std::move(uops), cfg);
    runUops(2000);
    const auto &s = core->stats();
    EXPECT_GT(s.sbStalls(), s.cycles / 2)
        << "dispatch should be SB-bound most of the time";
    EXPECT_GT(s.sbStallsByRegion[static_cast<int>(Region::Memset)], 0u)
        << "stall region attribution (Fig. 3) must track the SB head";
}

TEST_F(CoreTest, IdealSbNeverStallsOnSb)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 64; ++i)
        uops.push_back(uops::store(0x1000 + i * 4, 0x300000 + i * 8));
    CoreConfig cfg;
    cfg.params.sqSize = 2; // overridden by idealSb
    cfg.idealSb = true;
    build(std::move(uops), cfg);
    runUops(5000);
    EXPECT_EQ(core->stats().sbStalls(), 0u);
    EXPECT_EQ(core->effectiveSbSize(), 1024u);
}

TEST_F(CoreTest, MispredictTriggersRecoveryAndWrongPath)
{
    // load (cold) -> alu -> mispredicted branch, then plain alu work.
    std::vector<MicroOp> uops;
    uops.push_back(uops::load(0x1000, 0x400000));
    uops.push_back(uops::alu(0x1004, 1));
    uops.push_back(uops::branch(0x1008, true, 1));
    for (int i = 0; i < 13; ++i)
        uops.push_back(uops::alu(0x100c + i * 4));
    build(std::move(uops));
    runUops(3000);
    const auto &s = core->stats();
    EXPECT_GT(s.mispredicts, 0u);
    EXPECT_GT(s.wrongPathFetched, 0u);
    EXPECT_GT(s.squashedUops, 0u);
    // Wrong-path loads really reached the L1D.
    EXPECT_GT(mem->l1d(0).stats().wrongPathLoads, 0u);
}

TEST_F(CoreTest, WrongPathWindowTracksLoadLatency)
{
    // The branch depends on a load; the longer the load takes, the
    // more wrong-path uops are fetched. Compare a cold-miss chain
    // against an L1-resident chain.
    auto make_trace = [](Addr base) {
        std::vector<MicroOp> uops;
        uops.push_back(uops::load(0x1000, base));
        uops.push_back(uops::alu(0x1004, 1));
        uops.push_back(uops::branch(0x1008, true, 1));
        for (int i = 0; i < 5; ++i)
            uops.push_back(uops::alu(0x100c + i * 4));
        return uops;
    };
    // Cold: every iteration loads a different line (VectorSource loops,
    // so the same address becomes warm — use a long-latency block by
    // measuring only the first iterations).
    build(make_trace(0x500000));
    runUops(64);
    const auto cold_wrong_path = core->stats().wrongPathFetched;
    EXPECT_GT(cold_wrong_path, 20u)
        << "a DRAM-latency branch feeds a long wrong-path episode";
}

TEST_F(CoreTest, StoreToLoadForwardingAvoidsL1)
{
    // store to X, then immediately load X: the load must forward.
    std::vector<MicroOp> uops;
    uops.push_back(uops::store(0x1000, 0x600000, 8));
    uops.push_back(uops::load(0x1004, 0x600000, 8));
    uops.push_back(uops::alu(0x1008, 1));
    build(std::move(uops));
    runUops(3000);
    EXPECT_GT(core->storeBuffer().stats().forwards, 0u);
}

TEST_F(CoreTest, DeterministicAcrossRuns)
{
    auto run_once = [this] {
        std::vector<MicroOp> uops;
        for (int i = 0; i < 8; ++i) {
            uops.push_back(uops::load(0x1000 + i * 8, 0x700000 + i * 64));
            uops.push_back(uops::alu(0x2000 + i * 4, 1));
            uops.push_back(
                uops::store(0x3000 + i * 4, 0x800000 + i * 8, 8, 1));
        }
        clock = SimClock{};
        build(std::move(uops));
        runUops(30000);
        return core->stats().cycles;
    };
    const Cycle a = run_once();
    const Cycle b = run_once();
    EXPECT_EQ(a, b);
}

TEST_F(CoreTest, AtExecutePrefetchesFromExecute)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 64; ++i)
        uops.push_back(uops::store(0x1000 + i * 4, 0x900000 + i * 8));
    CoreConfig cfg;
    cfg.policy = StorePrefetchPolicy::AtExecute;
    build(std::move(uops), cfg);
    runUops(500);
    EXPECT_GT(mem->l1d(0).stats().pfIssued +
                  mem->l1d(0).stats().pfDiscarded,
              0u);
}

TEST_F(CoreTest, SpbEngineWiredWhenEnabled)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 512; ++i)
        uops.push_back(uops::store(0x1000 + (i % 64) * 4,
                                   0xa00000 + i * 8, 8, 0,
                                   Region::Memset));
    CoreConfig cfg;
    cfg.useSpb = true;
    cfg.spb.checkInterval = 8;
    build(std::move(uops), cfg);
    runUops(4000);
    ASSERT_NE(core->spbEngine(), nullptr);
    EXPECT_GT(core->spbEngine()->stats().bursts, 0u);
    EXPECT_GT(mem->l1d(0).stats().spbIssued, 0u);
}

TEST_F(CoreTest, RegisterAccountingBalances)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 7; ++i)
        uops.push_back(uops::alu(0x1000 + i * 4, 1));
    MicroOp fp = uops::alu(0x2000, 1);
    fp.cls = OpClass::FpAdd;
    uops.push_back(fp);
    build(std::move(uops));
    runUops(50000);
    // If freeing leaked, the core would wedge on Regs long before 50k.
    EXPECT_EQ(core->stats()
                  .dispatchStalls[static_cast<int>(StallResource::Regs)],
              0u);
}

TEST(CoreParamsTest, TableIIPresets)
{
    const auto presets = tableIIPresets();
    ASSERT_EQ(presets.size(), 5u);
    EXPECT_EQ(presets[0].name, "SLM");
    EXPECT_EQ(presets[0].robSize, 32u);
    EXPECT_EQ(presets[0].sqSize, 16u);
    EXPECT_EQ(presets[3].name, "SKL");
    EXPECT_EQ(presets[3].robSize, 224u);
    EXPECT_EQ(presets[3].iqSize, 97u);
    EXPECT_EQ(presets[3].issueWidth, 8u);
    EXPECT_EQ(presets[4].name, "SNC");
    EXPECT_EQ(presets[4].sqSize, 72u);
}

TEST(CoreParamsTest, LatenciesMatchTableI)
{
    const CoreParams p = skylakeParams();
    EXPECT_EQ(p.opLatency(OpClass::IntAlu), 1u);
    EXPECT_EQ(p.opLatency(OpClass::IntMul), 4u);
    EXPECT_EQ(p.opLatency(OpClass::IntDiv), 22u);
    EXPECT_EQ(p.opLatency(OpClass::FpAdd), 5u);
    EXPECT_EQ(p.opLatency(OpClass::FpMul), 5u);
    EXPECT_EQ(p.opLatency(OpClass::FpDiv), 22u);
    EXPECT_EQ(p.sqSize, 56u);
    EXPECT_EQ(p.lqSize, 72u);
    EXPECT_EQ(p.robSize, 224u);
}

TEST(CoreParamsTest, PolicyNames)
{
    EXPECT_STREQ(storePrefetchPolicyName(StorePrefetchPolicy::None),
                 "none");
    EXPECT_STREQ(storePrefetchPolicyName(StorePrefetchPolicy::AtCommit),
                 "at-commit");
    EXPECT_STREQ(storePrefetchPolicyName(StorePrefetchPolicy::AtExecute),
                 "at-execute");
}

} // namespace
} // namespace spburst
