/**
 * @file
 * Calendar-queue scheduler unit tests and the fast-forward / check
 * level differential determinism suite.
 *
 * The calendar queue's contract is (cycle, schedule-id) execution
 * order, including bucket wraparound, far-future overflow and events
 * scheduled mid-drain, and an assertion for any event scheduled into
 * the drained past. The differential suite then asserts the strongest
 * system-level property: byte-identical sorted statistics reports with
 * fast-forward on and off, and across checking levels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "common/event_queue.hh"
#include "sim/system.hh"

using namespace spburst;

TEST(CalendarQueue, BucketWraparound)
{
    // Same bucket index (cycle % 256) used across several wheel turns;
    // order must stay strictly by cycle.
    EventQueue q;
    std::vector<Cycle> order;
    Cycle cursor = 0;
    for (int turn = 0; turn < 4; ++turn) {
        const Cycle when = 10 + static_cast<Cycle>(turn) * 256;
        // Advance the drained horizon so each schedule lands within the
        // wheel span (mirrors the simulator's cycle-by-cycle advance).
        q.runUntil(cursor);
        q.schedule(when, [&order, when] { order.push_back(when); });
        cursor = when;
    }
    q.runUntil(cursor);
    EXPECT_EQ(order, (std::vector<Cycle>{10, 266, 522, 778}));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, FarFutureOverflow)
{
    // Events far beyond the 256-cycle wheel span (e.g. a congested DRAM
    // channel) take the overflow heap and still run at the right cycle.
    EventQueue q;
    std::vector<Cycle> order;
    for (Cycle when : {100'000, 5, 70'000, 300, 256, 99'999})
        q.schedule(when, [&order, when] { order.push_back(when); });
    EXPECT_EQ(q.nextEventCycle(), 5u);
    q.runUntil(100'000);
    EXPECT_EQ(order,
              (std::vector<Cycle>{5, 256, 300, 70'000, 99'999, 100'000}));
}

TEST(CalendarQueue, SameCycleFifoAcrossBucketAndOverflow)
{
    // Interleave near (bucket) and far (overflow) schedules for one
    // cycle; execution must follow schedule order, not storage.
    EventQueue q;
    std::vector<int> order;
    const Cycle target = 500; // > 256 from cycle 0: first two overflow
    q.schedule(target, [&] { order.push_back(0); });
    q.schedule(target, [&] { order.push_back(1); });
    q.runUntil(300); // target now within the wheel span
    q.schedule(target, [&] { order.push_back(2); });
    q.schedule(target, [&] { order.push_back(3); });
    q.runUntil(target);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueueDeathTest, SchedulingIntoTheDrainedPastAsserts)
{
    // Every cycle up to the drained horizon has run, so an event there
    // could never run in (cycle, id) order.
    EventQueue q;
    q.runUntil(100);
    EXPECT_DEATH(q.schedule(50, [] {}), "drained horizon");
    EXPECT_DEATH(q.schedule(100, [] {}), "drained horizon");
    // From inside an event, only the cycle being drained is allowed.
    q.schedule(120, [&q] { q.schedule(119, [] {}); });
    EXPECT_DEATH(q.runUntil(120), "drained horizon");
}

TEST(CalendarQueue, NextEventCycleTracksScheduleAndConsumption)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kNeverCycle);
    q.schedule(1000, [] {});
    EXPECT_EQ(q.nextEventCycle(), 1000u);
    q.schedule(40, [] {});
    EXPECT_EQ(q.nextEventCycle(), 40u);
    q.runUntil(40);
    EXPECT_EQ(q.nextEventCycle(), 1000u);
    q.runUntil(1000);
    EXPECT_EQ(q.nextEventCycle(), kNeverCycle);
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(CalendarQueue, OccupancyBitmapSkipsSilentSpans)
{
    // One event per occupancy word of the wheel (bits 0..63, 64..127,
    // 128..191, 192..255): the silent-span skip must land on each in
    // order, across several wheel turns, with cascaded rescheduling
    // from inside a drained cycle.
    EventQueue q;
    std::vector<Cycle> order;
    std::vector<Cycle> targets;
    for (Cycle base : {Cycle{0}, Cycle{256}, Cycle{512}})
        for (Cycle slot : {Cycle{3}, Cycle{77}, Cycle{140}, Cycle{201}})
            targets.push_back(base + slot);
    // Schedule the first; each event schedules its successor (always
    // within the 255-cycle horizon of its own cycle or handled by a
    // later wheel turn via intermediate hops).
    std::function<void(std::size_t)> arm = [&](std::size_t k) {
        order.push_back(targets[k]);
        if (k + 1 < targets.size()) {
            // Hop in <=200-cycle steps so every reschedule stays
            // within the wheel span.
            Cycle next = targets[k + 1];
            q.schedule(next, [&arm, k] { arm(k + 1); });
        }
    };
    q.schedule(targets[0], [&arm] { arm(0); });
    q.runUntil(1000);
    EXPECT_EQ(order, targets);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventCycle(), kNeverCycle);
}

TEST(CalendarQueue, NextEventCycleAcrossWheelWrapBoundary)
{
    // The bitmap scan starts mid-word when (cursor+1) % 256 != 0 and
    // must wrap: park the cursor just short of a boundary, then
    // schedule behind and ahead of the start slot.
    EventQueue q;
    q.runUntil(200); // start slot 201: bits 201..255, then 0..200
    q.schedule(450, [] {}); // bucket 194 < start slot: wrap partial word
    EXPECT_EQ(q.nextEventCycle(), 450u);
    q.schedule(210, [] {}); // bucket 210 >= start slot: first word
    EXPECT_EQ(q.nextEventCycle(), 210u);
    q.runUntil(210);
    EXPECT_EQ(q.nextEventCycle(), 450u);
    q.runUntil(460);
    EXPECT_TRUE(q.empty());
}

TEST(Scheduler, ScheduledDuringDrainKeepsFifo)
{
    EventQueue q;
    std::vector<int> order;
    // Event A (id 0) schedules D (id 3) at the same cycle; B and C
    // (ids 1, 2) are already queued. Required order: A B C D.
    q.schedule(9, [&] {
        order.push_back(0);
        q.schedule(9, [&] { order.push_back(3); });
    });
    q.schedule(9, [&] { order.push_back(1); });
    q.schedule(9, [&] { order.push_back(2); });
    q.runUntil(9);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Scheduler, MoveOnlyCallbacksPopWithoutCopying)
{
    // Callbacks are move-only, so a unique_ptr capture compiles and
    // survives the pop — a copy anywhere would fail to compile.
    EventQueue q;
    int sum = 0;
    for (int i = 1; i <= 4; ++i) {
        auto payload = std::make_unique<int>(i);
        q.schedule(static_cast<Cycle>(i),
                   [&sum, p = std::move(payload)] { sum += *p; });
    }
    q.runUntil(4);
    EXPECT_EQ(sum, 10);
}

TEST(Scheduler, InterleavedRunUntilRunsInCycleThenScheduleOrder)
{
    // An irregular schedule/drain sequence with delays >= 1, as the
    // simulator schedules, across the wheel span and into the overflow
    // heap, some of it from inside events. The executed order must be
    // the record of schedules stably sorted by cycle: (cycle, schedule
    // id) order.
    EventQueue q;
    std::vector<std::pair<Cycle, int>> scheduled, executed;
    std::uint64_t x = 12345;
    auto next_random = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
    };
    Cycle now = 0;
    std::function<void(Cycle)> add = [&](Cycle from) {
        const Cycle when = from + 1 + next_random() % 600;
        const int id = static_cast<int>(scheduled.size());
        scheduled.emplace_back(when, id);
        q.schedule(when, [&, when, id] {
            executed.emplace_back(when, id);
            if (id % 7 == 0 && scheduled.size() < 3000)
                add(when); // a follow-up scheduled mid-drain
        });
    };
    for (int step = 0; step < 2000; ++step) {
        add(now);
        if (step % 3 == 0) {
            now += next_random() % 64;
            q.runUntil(now);
        }
    }
    q.runUntil(kNeverCycle - 1);
    EXPECT_TRUE(q.empty());
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(executed, scheduled);
}

// ---------------------------------------------------------------------
// Differential determinism: fast-forward x check level
// ---------------------------------------------------------------------

namespace
{

/** Render a run's full stats as sorted "name = value" lines. */
std::string
sortedReport(const SimResult &r)
{
    std::map<std::string, double> sorted;
    const StatSet stats = r.toStatSet();
    for (const auto &[name, value] : stats.entries())
        sorted[name] = value;
    std::ostringstream os;
    os.precision(17);
    for (const auto &[name, value] : sorted)
        os << name << " = " << value << "\n";
    return os.str();
}

std::string
runOnce(const std::string &workload, bool fast_forward, check::Level level,
        int cores = 1)
{
    const check::Level saved = check::level();
    check::setLevel(level);
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.threads = cores;
    cfg.useSpb = true;
    cfg.maxUopsPerCore = 20'000;
    cfg.fastForward = fast_forward;
    System sys(cfg);
    const SimResult r = sys.run();
    if (!fast_forward) {
        EXPECT_EQ(sys.fastForwardedCycles(), 0u);
        EXPECT_EQ(sys.sleptCoreCycles(), 0u);
    } else if (cores > 1) {
        // Per-core sleep must actually run on a multicore machine,
        // not only the jump taken while every core sleeps.
        EXPECT_GT(sys.sleptCoreCycles(),
                  static_cast<Cycle>(cores) * sys.fastForwardedCycles())
            << workload << ": no core slept while another ran";
    }
    check::setLevel(saved);
    return sortedReport(r);
}

} // namespace

TEST(SchedulerDifferential, ByteIdenticalStatsAcrossHotPathModes)
{
    // The paper-facing configurations must be bit-identical no matter
    // how the host hot path is configured. mcf is the most memory-bound
    // SPEC workload (deep fast-forward), x264 the most compute-bound
    // (barely any), dedup exercises the PARSEC generator.
    for (const std::string w : {"x264", "mcf", "dedup"}) {
        EXPECT_EQ(runOnce(w, false, check::Level::Fast),
                  runOnce(w, true, check::Level::Fast))
            << w << ": fast-forward changed results";
    }
    // Four cores (at-commit + SPB): a quiescent core sleeps while the
    // others tick, and each callback into it must wake it first.
    for (const std::string w : {"dedup", "canneal"}) {
        EXPECT_EQ(runOnce(w, false, check::Level::Fast, 4),
                  runOnce(w, true, check::Level::Fast, 4))
            << w << " on 4 cores: fast-forward changed results";
    }
}

TEST(SchedulerDifferential, ByteIdenticalStatsAcrossCheckLevels)
{
    // Checking levels must not interact with the new hot path: the
    // reported statistics (check.* counters excluded, as they count
    // checker activity itself) stay byte-identical under off/fast/full
    // with fast-forward enabled. This is also the gate for a check
    // condition with a side effect, which runs only at fast/full and
    // shows only on a path the workload reaches: hence the hot-path
    // test's three workloads, not one.
    auto strip_check_stats = [](const std::string &report) {
        std::istringstream is(report);
        std::ostringstream os;
        std::string line;
        while (std::getline(is, line))
            if (line.rfind("check.", 0) != 0)
                os << line << "\n";
        return os.str();
    };
    for (const std::string w : {"x264", "mcf", "dedup"}) {
        const std::string off =
            strip_check_stats(runOnce(w, true, check::Level::Off));
        EXPECT_EQ(off,
                  strip_check_stats(runOnce(w, true, check::Level::Fast)))
            << w << ": check level fast changed results";
        EXPECT_EQ(off,
                  strip_check_stats(runOnce(w, true, check::Level::Full)))
            << w << ": check level full changed results";
    }
}
