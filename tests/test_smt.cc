/**
 * @file
 * Tests for the SMT core: static partitioning, fairness, the paper's
 * motivating effect (per-thread SB pressure grows with thread count)
 * and SPB's rescue of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "check/check.hh"
#include "common/clock.hh"
#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace spburst
{
namespace
{

class SmtTest : public ::testing::Test
{
  protected:
    /** Build an SMT core running @p threads copies of @p workload. */
    void
    build(const std::string &workload, int threads,
          CoreConfig cfg = CoreConfig{})
    {
        mem = std::make_unique<MemorySystem>(MemSystemParams::tableI(1),
                                             &clock);
        traces.clear();
        trace_ptrs.clear();
        for (int t = 0; t < threads; ++t) {
            traces.push_back(
                buildWorkload(findProfile(workload), 1 + t, 0, 1));
            trace_ptrs.push_back(traces.back().get());
        }
        smt = std::make_unique<Core>(cfg, 0, &clock, &mem->l1d(0),
                                     trace_ptrs);
    }

    void
    runUopsPerThread(std::uint64_t target, Cycle budget = 20'000'000)
    {
        const Cycle limit = clock.now + budget;
        while (smt->minCommitted() < target && clock.now < limit) {
            clock.tick();
            smt->tick();
        }
        ASSERT_GE(smt->minCommitted(), target) << "SMT made no progress";
    }

    SimClock clock;
    std::unique_ptr<MemorySystem> mem;
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<TraceSource *> trace_ptrs;
    std::unique_ptr<Core> smt;
};

TEST_F(SmtTest, SbIsStaticallyPartitioned)
{
    build("x264", 4);
    EXPECT_EQ(smt->effectiveSbSize(), 14u) << "56 / 4 threads";
    build("x264", 2);
    EXPECT_EQ(smt->effectiveSbSize(), 28u);
    build("x264", 1);
    EXPECT_EQ(smt->effectiveSbSize(), 56u);
}

TEST_F(SmtTest, AllThreadsMakeFairProgress)
{
    build("blender", 4);
    runUopsPerThread(5'000);
    std::uint64_t lo = ~0ull, hi = 0;
    for (int t = 0; t < 4; ++t) {
        lo = std::min(lo, smt->committed(t));
        hi = std::max(hi, smt->committed(t));
    }
    // Threads run different workload seeds, so some imbalance is the
    // workload's, not the scheduler's; a starving scheduler would show
    // up as an order-of-magnitude gap.
    EXPECT_LT(static_cast<double>(hi), static_cast<double>(lo) * 2.5)
        << "round-robin sharing must not starve any thread";
}

TEST_F(SmtTest, Smt1MatchesSingleThreadBallpark)
{
    // One hardware thread on the SMT core should behave like the
    // plain Core within a modest factor (the arbitration adds a
    // little overhead but no structural change).
    build("cam4", 1);
    runUopsPerThread(20'000);
    const Cycle smt_cycles = clock.now;

    SystemConfig cfg =
        makeConfig("cam4", 56, StorePrefetchPolicy::AtCommit);
    cfg.maxUopsPerCore = 20'000;
    cfg.seed = 1;
    const SimResult r = runSystem(cfg);
    EXPECT_LT(static_cast<double>(smt_cycles),
              static_cast<double>(r.cycles) * 1.3);
    EXPECT_GT(static_cast<double>(smt_cycles),
              static_cast<double>(r.cycles) * 0.7);
}

TEST_F(SmtTest, SbPartitioningIsWhatHurtsSmt4)
{
    // The paper's Fig. 1 motivation, isolated on real SMT: the same
    // four threads run faster when each gets a full 56-entry SB
    // (sqSize=224 partitioned four ways) than with the statically
    // partitioned 14 entries each (sqSize=56). Everything else about
    // the two machines is identical.
    CoreConfig partitioned; // 56 total -> 14 per thread
    build("bwaves", 4, partitioned);
    runUopsPerThread(10'000);
    const Cycle small_sb = clock.now;
    std::uint64_t small_stalls = 0;
    for (int t = 0; t < 4; ++t)
        small_stalls += smt->stats(t).sbStalls();

    clock = SimClock{};
    CoreConfig generous;
    generous.params.sqSize = 224; // -> 56 per thread
    build("bwaves", 4, generous);
    runUopsPerThread(10'000);
    const Cycle big_sb = clock.now;
    std::uint64_t big_stalls = 0;
    for (int t = 0; t < 4; ++t)
        big_stalls += smt->stats(t).sbStalls();

    EXPECT_LT(big_sb, small_sb)
        << "a per-thread 56-entry SB must beat 14 entries per thread";
    EXPECT_LT(big_stalls, small_stalls);
}

TEST_F(SmtTest, SpbRescuesSmt4)
{
    CoreConfig ac;
    build("bwaves", 4, ac);
    runUopsPerThread(15'000);
    const Cycle base = clock.now;

    clock = SimClock{};
    CoreConfig spb;
    spb.useSpb = true;
    build("bwaves", 4, spb);
    runUopsPerThread(15'000);
    const Cycle with_spb = clock.now;

    EXPECT_LT(with_spb, base)
        << "SPB must recover SMT-4 store-buffer pressure";
}

TEST_F(SmtTest, DeterministicAcrossRuns)
{
    build("dedup", 2);
    runUopsPerThread(8'000);
    const Cycle a = clock.now;
    clock = SimClock{};
    build("dedup", 2);
    runUopsPerThread(8'000);
    EXPECT_EQ(a, clock.now);
}

TEST_F(SmtTest, WrongPathIsolatedPerThread)
{
    build("deepsjeng", 2);
    runUopsPerThread(10'000);
    for (int t = 0; t < 2; ++t) {
        EXPECT_GT(smt->stats(t).mispredicts, 0u);
        EXPECT_GT(smt->stats(t).wrongPathFetched, 0u);
    }
}

/** Final state of one run of a multi-threaded core. */
struct SmtRun
{
    Cycle cycles = 0;
    Cycle skipped = 0; //!< cycles the quiescence skip jumped over
    std::vector<StatSet> core;
    std::vector<StoreBufferStats> sb;
    StatSet l1d;
};

/** Run @p threads threads of @p workload until each commits @p uops,
 *  ticking every cycle or fast-forwarding over quiescent stretches the
 *  way System::run does. */
SmtRun
runThreads(const std::string &workload, int threads, bool spb,
           bool fast_forward, std::uint64_t uops)
{
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(1), &clock);
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<TraceSource *> ptrs;
    for (int t = 0; t < threads; ++t) {
        traces.push_back(buildWorkload(findProfile(workload), 1 + t, 0, 1));
        ptrs.push_back(traces.back().get());
    }
    CoreConfig cfg;
    cfg.useSpb = spb;
    Core core(cfg, 0, &clock, &mem.l1d(0), ptrs);

    SmtRun run;
    const Cycle limit = 20'000'000;
    while (core.minCommitted() < uops && clock.now < limit) {
        if (fast_forward) {
            const Cycle next = clock.events.nextEventCycle();
            if (next > clock.now + 1 && next != kNeverCycle &&
                core.quiescent()) {
                const Cycle n = next - clock.now - 1;
                core.skipQuiescentCycles(n);
                clock.now += n;
                run.skipped += n;
            }
        }
        clock.tick();
        core.tick();
    }
    EXPECT_GE(core.minCommitted(), uops) << "SMT made no progress";
    run.cycles = clock.now;
    for (int t = 0; t < core.threads(); ++t) {
        run.core.push_back(core.stats(t).toStatSet());
        run.sb.push_back(core.storeBuffer(t).stats());
    }
    run.l1d = mem.l1d(0).stats().toStatSet();
    return run;
}

TEST(SmtFastForward, SkippingQuiescentCyclesChangesNoStatistic)
{
    for (const char *workload : {"dedup", "canneal"}) {
        for (bool spb : {false, true}) {
            SCOPED_TRACE(std::string(workload) +
                         (spb ? " at-commit+SPB" : " at-commit"));
            const SmtRun ticked = runThreads(workload, 2, spb, false, 6'000);
            const SmtRun skipped = runThreads(workload, 2, spb, true, 6'000);
            EXPECT_EQ(ticked.skipped, 0u);
            EXPECT_GT(skipped.skipped, 0u) << "the skip path never ran";
            EXPECT_EQ(ticked.cycles, skipped.cycles);
            ASSERT_EQ(ticked.core.size(), 2u);
            ASSERT_EQ(skipped.core.size(), 2u);
            for (std::size_t t = 0; t < 2; ++t) {
                EXPECT_EQ(ticked.core[t].toString(),
                          skipped.core[t].toString())
                    << "thread " << t;
                const StoreBufferStats &a = ticked.sb[t];
                const StoreBufferStats &b = skipped.sb[t];
                EXPECT_EQ(a.drained, b.drained);
                EXPECT_EQ(a.forwards, b.forwards);
                EXPECT_EQ(a.headBlockedCycles, b.headBlockedCycles);
                EXPECT_EQ(a.squashed, b.squashed);
                EXPECT_EQ(a.occupancySum, b.occupancySum);
                EXPECT_EQ(a.fullCycles, b.fullCycles);
                EXPECT_EQ(a.coalesced, b.coalesced);
            }
            EXPECT_EQ(ticked.l1d.toString(), skipped.l1d.toString());
        }
    }
}

TEST(SmtFullCheck, MispredictHeavyTwoThreadsPassTheSchedulerOracle)
{
    // leela mispredicts most often of all profiles, so both threads
    // squash and refill their ROBs constantly while the per-tick
    // scheduler oracle compares the ready set, timer set and oldest
    // in-flight load with a full recomputation.
    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);
    const check::Counters before = check::counters();
    SmtRun run;
    {
        check::ThrowGuard guard;
        EXPECT_NO_THROW(run = runThreads("leela", 2, false, true, 10'000));
    }
    const check::Counters d = check::counters().delta(before);
    check::setLevel(saved);
    EXPECT_EQ(d.totalViolations(), 0u);
    EXPECT_GT(d.evaluated[static_cast<int>(check::Domain::Pipeline)], 0u);
    ASSERT_EQ(run.core.size(), 2u);
    for (const StatSet &s : run.core) {
        EXPECT_GT(s.get("mispredicts"), 100.0);
        EXPECT_GT(s.get("squashed_uops"), 0.0);
    }
}

/** Every statistic of @p run as sorted "name = value" lines: the final
 *  cycle, then per-thread core and SB stats (tN.*, tN.sb.*) and the
 *  shared L1D's (l1d.*). */
std::string
sortedStats(const SmtRun &run)
{
    StatSet s;
    s.set("cycles", static_cast<double>(run.cycles));
    for (std::size_t t = 0; t < run.core.size(); ++t) {
        const std::string tp = "t" + std::to_string(t) + ".";
        s.merge(tp, run.core[t]);
        const StoreBufferStats &sb = run.sb[t];
        StatSet b;
        b.set("drained", static_cast<double>(sb.drained));
        b.set("forwards", static_cast<double>(sb.forwards));
        b.set("head_blocked_cycles",
              static_cast<double>(sb.headBlockedCycles));
        b.set("squashed", static_cast<double>(sb.squashed));
        b.set("occupancy_sum", static_cast<double>(sb.occupancySum));
        b.set("full_cycles", static_cast<double>(sb.fullCycles));
        b.set("coalesced", static_cast<double>(sb.coalesced));
        s.merge(tp + "sb.", b);
    }
    s.merge("l1d.", run.l1d);
    std::vector<std::string> lines;
    for (const auto &[name, value] : s.entries()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " = %.17g", value);
        lines.push_back(name + buf);
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

/** FNV-1a over @p text, as 16 hex digits. */
std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

TEST(SmtPinned, StatsMatchRecordedDigests)
{
    // System builds single-threaded cores only, so no end-to-end digest
    // covers T >= 2: these constants pin the SMT issue, wakeup and
    // recovery paths across refactors. A deliberate model change that
    // moves them must re-record them (the failure prints the stats).
    struct Case
    {
        const char *workload;
        int threads;
        bool spb;
        const char *digest;
    };
    const Case cases[] = {
        {"dedup", 2, false, "7b3d836721691929"},
        {"dedup", 2, true, "3dd6599f44b62eef"},
        {"dedup", 4, false, "ad55127fa0844292"},
        {"dedup", 4, true, "5f5042c3c1d89f9e"},
        {"canneal", 2, false, "9bf7f6ae6f1aa12d"},
        {"canneal", 2, true, "9bf7f6ae6f1aa12d"},
        {"canneal", 4, false, "d5322105dac6f32d"},
        {"canneal", 4, true, "d5322105dac6f32d"},
    };
    for (const Case &c : cases) {
        const std::string name = std::string(c.workload) + " T=" +
                                 std::to_string(c.threads) +
                                 (c.spb ? " at-commit+SPB" : " at-commit");
        const std::string stats =
            sortedStats(runThreads(c.workload, c.threads, c.spb, true,
                                   20'000));
        EXPECT_EQ(fnv1aHex(stats), c.digest) << name << ":\n" << stats;
    }
}

} // namespace
} // namespace spburst
