/**
 * @file
 * System-level integration and property tests: determinism, the
 * paper's performance ordering (ideal >= SPB >= at-commit >= none on
 * SB-bound workloads), SB-stall behaviour across SB sizes, multicore
 * runs, and energy accounting.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "energy/energy_model.hh"
#include "sim/system.hh"

namespace spburst
{
namespace
{

SimResult
quickRun(const std::string &workload, unsigned sb,
         StorePrefetchPolicy policy, bool spb = false, bool ideal = false,
         std::uint64_t uops = 40'000)
{
    SystemConfig cfg = makeConfig(workload, sb, policy, spb, ideal);
    cfg.maxUopsPerCore = uops;
    return runSystem(cfg);
}

TEST(SystemIntegration, RunsToCompletion)
{
    const SimResult r =
        quickRun("x264", 56, StorePrefetchPolicy::AtCommit);
    EXPECT_GE(r.committedUops(), 40'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc(), 0.0);
}

// The cycle limit is uops * cyclesPerUopLimit + 100k: at 2^62 uops the
// product wrapped to 0, and the run died at cycle 100,001 with a false
// "exceeded the cycle limit". It saturates now, so only the interrupt
// stops this run.
TEST(SystemIntegration, HugeUopBudgetDoesNotWrapTheCycleLimit)
{
    SystemConfig cfg = makeConfig("x264", 56, StorePrefetchPolicy::AtCommit);
    cfg.maxUopsPerCore = std::uint64_t{1} << 62;
    System sys(cfg);
    FatalThrowGuard guard;
    EXPECT_THROW(sys.run([&sys] { return sys.clock().now > 200'000; }),
                 SimInterrupted);
    EXPECT_GT(sys.clock().now, 200'000u);
}

TEST(SystemIntegration, DeterministicUnderSeed)
{
    const SimResult a =
        quickRun("blender", 28, StorePrefetchPolicy::AtCommit);
    const SimResult b =
        quickRun("blender", 28, StorePrefetchPolicy::AtCommit);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d[0].loadMisses, b.l1d[0].loadMisses);
    EXPECT_EQ(a.dramReads, b.dramReads);
}

TEST(SystemIntegration, SeedChangesTheRun)
{
    SystemConfig cfg = makeConfig("blender", 28,
                                  StorePrefetchPolicy::AtCommit);
    cfg.maxUopsPerCore = 30'000;
    const SimResult a = runSystem(cfg);
    cfg.seed = 99;
    const SimResult b = runSystem(cfg);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(SystemIntegration, PaperOrderingOnSbBoundWorkload)
{
    const std::uint64_t uops = 60'000;
    const SimResult none =
        quickRun("x264", 14, StorePrefetchPolicy::None, false, false,
                 uops);
    const SimResult ac =
        quickRun("x264", 14, StorePrefetchPolicy::AtCommit, false, false,
                 uops);
    const SimResult spb =
        quickRun("x264", 14, StorePrefetchPolicy::AtCommit, true, false,
                 uops);
    const SimResult ideal =
        quickRun("x264", 14, StorePrefetchPolicy::AtCommit, false, true,
                 uops);
    // The paper's central result, as cycle counts (lower is better):
    EXPECT_LE(ideal.cycles, spb.cycles);
    EXPECT_LT(spb.cycles, ac.cycles);
    EXPECT_LE(ac.cycles, none.cycles * 101 / 100);
    // And SPB must recover most of the at-commit -> ideal gap.
    const double gap_closed =
        static_cast<double>(ac.cycles - spb.cycles) /
        static_cast<double>(ac.cycles - ideal.cycles);
    EXPECT_GT(gap_closed, 0.5);
}

TEST(SystemIntegration, SpbRemovesMostSbStalls)
{
    const SimResult ac =
        quickRun("bwaves", 14, StorePrefetchPolicy::AtCommit);
    const SimResult spb =
        quickRun("bwaves", 14, StorePrefetchPolicy::AtCommit, true);
    EXPECT_LT(spb.sbStalls(), ac.sbStalls() / 2);
}

TEST(SystemIntegration, SmallerSbMeansMoreSbStalls)
{
    const SimResult sb56 =
        quickRun("roms", 56, StorePrefetchPolicy::AtCommit);
    const SimResult sb14 =
        quickRun("roms", 14, StorePrefetchPolicy::AtCommit);
    EXPECT_GT(sb14.sbStallRatio(), sb56.sbStallRatio())
        << "Fig. 1: shrinking the SB must increase SB-induced stalls";
}

TEST(SystemIntegration, NonSbBoundWorkloadBarelyCares)
{
    const SimResult sb56 =
        quickRun("namd", 56, StorePrefetchPolicy::AtCommit);
    const SimResult sb14 =
        quickRun("namd", 14, StorePrefetchPolicy::AtCommit);
    EXPECT_LT(sb56.sbStallRatio(), 0.02);
    const double slowdown = static_cast<double>(sb14.cycles) /
                            static_cast<double>(sb56.cycles);
    EXPECT_LT(slowdown, 1.06);
}

TEST(SystemIntegration, SpbIssuesBurstsOnlyWhenPatternsExist)
{
    const SimResult bound =
        quickRun("x264", 56, StorePrefetchPolicy::AtCommit, true);
    ASSERT_EQ(bound.spbs.size(), 1u);
    EXPECT_GT(bound.spbs[0].bursts, 0u);

    const SimResult chase =
        quickRun("mcf", 56, StorePrefetchPolicy::AtCommit, true);
    ASSERT_EQ(chase.spbs.size(), 1u);
    // mcf stores are scattered: bursts must be (nearly) absent.
    EXPECT_LT(chase.spbs[0].bursts, bound.spbs[0].bursts / 4 + 1);
}

TEST(SystemIntegration, StorePrefetchOutcomesPartition)
{
    const SimResult r =
        quickRun("x264", 28, StorePrefetchPolicy::AtCommit, true);
    const auto &l1 = r.l1d[0];
    // Outcome classes never exceed the store prefetches that went out.
    EXPECT_LE(l1.pfSuccessful + l1.pfNeverUsed,
              l1.pfIssued + l1.spbIssued + l1.pfDiscarded);
    EXPECT_GT(l1.pfSuccessful, 0u);
}

TEST(SystemIntegration, AtCommitPrefetchesAreMostlyLate)
{
    // Paper Fig. 11: at-commit success is low and late dominates.
    const SimResult r =
        quickRun("bwaves", 56, StorePrefetchPolicy::AtCommit);
    const auto &l1 = r.l1d[0];
    EXPECT_GT(l1.pfLate, l1.pfSuccessful)
        << "at-commit prefetches should mostly be late";
}

TEST(SystemIntegration, SpbFlipsLateIntoSuccessful)
{
    const SimResult ac =
        quickRun("bwaves", 56, StorePrefetchPolicy::AtCommit);
    const SimResult spb =
        quickRun("bwaves", 56, StorePrefetchPolicy::AtCommit, true);
    const double ac_succ =
        ratio(static_cast<double>(ac.l1d[0].pfSuccessful),
              static_cast<double>(ac.l1d[0].pfSuccessful +
                                  ac.l1d[0].pfLate));
    const double spb_succ =
        ratio(static_cast<double>(spb.l1d[0].pfSuccessful),
              static_cast<double>(spb.l1d[0].pfSuccessful +
                                  spb.l1d[0].pfLate));
    EXPECT_GT(spb_succ, ac_succ + 0.2);
}

TEST(SystemIntegration, EnergyComponentsArePositiveAndOrdered)
{
    const SimResult r =
        quickRun("cam4", 56, StorePrefetchPolicy::AtCommit);
    EXPECT_GT(r.energy.cacheDynamicPj, 0.0);
    EXPECT_GT(r.energy.coreDynamicPj, 0.0);
    EXPECT_GT(r.energy.leakagePj, 0.0);
    EXPECT_NEAR(r.energy.totalPj(),
                r.energy.cacheDynamicPj + r.energy.coreDynamicPj +
                    r.energy.leakagePj,
                1e-6);
}

TEST(SystemIntegration, SpbSavesEnergyOnSmallSb)
{
    // Paper Fig. 7: for SB14 the SPB net energy is clearly lower.
    const SimResult ac =
        quickRun("x264", 14, StorePrefetchPolicy::AtCommit, false, false,
                 60'000);
    const SimResult spb =
        quickRun("x264", 14, StorePrefetchPolicy::AtCommit, true, false,
                 60'000);
    EXPECT_LT(spb.energy.totalPj(), ac.energy.totalPj());
}

TEST(SystemIntegration, PrefetcherKindsAllRun)
{
    for (L1PrefetcherKind kind :
         {L1PrefetcherKind::None, L1PrefetcherKind::Stream,
          L1PrefetcherKind::Aggressive, L1PrefetcherKind::Adaptive}) {
        SystemConfig cfg =
            makeConfig("fotonik3d", 28, StorePrefetchPolicy::AtCommit);
        cfg.l1Prefetcher = kind;
        cfg.maxUopsPerCore = 20'000;
        const SimResult r = runSystem(cfg);
        EXPECT_GE(r.committedUops(), 20'000u)
            << l1PrefetcherKindName(kind);
    }
}

TEST(SystemIntegration, TableIIPresetsAllRun)
{
    // Under full checks, so the core's scheduler oracle runs on every
    // ROB size from SLM's 32 to SNC's 352: ring capacity equal to the
    // ROB size (32, 128) and larger than it (192, 224, 352).
    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);
    for (const CoreParams &p : tableIIPresets()) {
        SystemConfig cfg =
            makeConfig("blender", 0, StorePrefetchPolicy::AtCommit);
        cfg.coreParams = p;
        cfg.maxUopsPerCore = 20'000;
        const SimResult r = runSystem(cfg);
        EXPECT_GE(r.committedUops(), 20'000u) << p.name;
        EXPECT_EQ(r.checks.totalViolations(), 0u) << p.name;
        EXPECT_GT(r.checks.evaluated[static_cast<int>(
                      check::Domain::Pipeline)],
                  0u)
            << p.name;
    }
    check::setLevel(saved);
}

// ---------------------------------------------------------------------
// Multicore
// ---------------------------------------------------------------------

TEST(SystemMulticore, EightThreadParsecRuns)
{
    SystemConfig cfg =
        makeConfig("dedup", 28, StorePrefetchPolicy::AtCommit, true);
    cfg.threads = 8;
    cfg.maxUopsPerCore = 8'000;
    const SimResult r = runSystem(cfg);
    EXPECT_EQ(r.cores.size(), 8u);
    for (const auto &c : r.cores)
        EXPECT_GE(c.committedUops, 8'000u);
    // Shared-region traffic exercises the directory.
    EXPECT_GT(r.directory.invalidations + r.directory.downgrades, 0u);
}

TEST(SystemMulticore, SpbHelpsParallelSbBoundApp)
{
    SystemConfig ac =
        makeConfig("x264_parsec", 14, StorePrefetchPolicy::AtCommit);
    ac.threads = 4;
    ac.maxUopsPerCore = 12'000;
    SystemConfig spb = ac;
    spb.useSpb = true;
    const SimResult ra = runSystem(ac);
    const SimResult rs = runSystem(spb);
    EXPECT_LT(rs.cycles, ra.cycles)
        << "SPB must also help the multithreaded SB-bound runs";
}

// ---------------------------------------------------------------------
// Parameterised property sweeps
// ---------------------------------------------------------------------

class SbSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SbSizeSweep, CyclesMonotonicallyImproveTowardIdeal)
{
    const unsigned sb = GetParam();
    const SimResult ac =
        quickRun("x264", sb, StorePrefetchPolicy::AtCommit, false, false,
                 30'000);
    const SimResult spb =
        quickRun("x264", sb, StorePrefetchPolicy::AtCommit, true, false,
                 30'000);
    const SimResult ideal =
        quickRun("x264", sb, StorePrefetchPolicy::AtCommit, false, true,
                 30'000);
    EXPECT_LE(ideal.cycles, spb.cycles * 101 / 100);
    EXPECT_LE(spb.cycles, ac.cycles * 101 / 100);
    // All configurations commit exactly the same work.
    EXPECT_EQ(ac.committedUops(), spb.committedUops());
}

INSTANTIATE_TEST_SUITE_P(SbSizes, SbSizeSweep,
                         ::testing::Values(8u, 14u, 20u, 28u, 56u));

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, InvariantsHoldAcrossSeeds)
{
    SystemConfig cfg =
        makeConfig("deepsjeng", 28, StorePrefetchPolicy::AtCommit, true);
    cfg.seed = GetParam();
    cfg.maxUopsPerCore = 25'000;
    const SimResult r = runSystem(cfg);
    const auto &c = r.cores[0];
    const auto &l1 = r.l1d[0];
    // Conservation: every committed store drained or is still senior.
    EXPECT_LE(r.sbs[0].drained, c.committedStores);
    // No stall counter can exceed total cycles.
    EXPECT_LE(c.sbStalls(), r.cycles);
    EXPECT_LE(c.execStallL1dPending, r.cycles);
    // Hits + misses == demand loads that reached the L1D.
    EXPECT_EQ(l1.loadHits + l1.loadMisses, c.loadsToL1);
    // DRAM reads can never exceed total L2 misses going down.
    EXPECT_GT(r.dramReads, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 17ull,
                                           123456789ull));

class NSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(NSweep, SpbWorksForEveryWindowLength)
{
    SystemConfig cfg =
        makeConfig("blender", 14, StorePrefetchPolicy::AtCommit, true);
    cfg.spb.checkInterval = GetParam();
    cfg.maxUopsPerCore = 25'000;
    const SimResult r = runSystem(cfg);
    ASSERT_EQ(r.spbs.size(), 1u);
    EXPECT_GT(r.spbs[0].bursts, 0u)
        << "N=" << GetParam() << " must still detect memset bursts";
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, NSweep,
                         ::testing::Values(8u, 16u, 24u, 32u, 48u, 64u));

} // namespace
} // namespace spburst
