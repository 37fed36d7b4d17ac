/**
 * @file
 * Unit tests for the common substrate: address math, RNG, statistics,
 * tables and the event queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace spburst
{
namespace
{

// ---------------------------------------------------------------------
// Address geometry
// ---------------------------------------------------------------------

TEST(Types, BlockAlignmentMasksLowBits)
{
    EXPECT_EQ(blockAlign(0x0), 0u);
    EXPECT_EQ(blockAlign(0x3f), 0u);
    EXPECT_EQ(blockAlign(0x40), 0x40u);
    EXPECT_EQ(blockAlign(0x7f), 0x40u);
    EXPECT_EQ(blockAlign(0x123456789a), 0x1234567880u);
}

TEST(Types, BlockNumberIsAddrShifted)
{
    EXPECT_EQ(blockNumber(0x0), 0u);
    EXPECT_EQ(blockNumber(0x40), 1u);
    EXPECT_EQ(blockNumber(0xfff), 63u);
}

TEST(Types, PageGeometry)
{
    EXPECT_EQ(pageAlign(0x1fff), 0x1000u);
    EXPECT_EQ(pageNumber(0x1fff), 1u);
    EXPECT_EQ(pageOffset(0x1fff), 0xfffu);
    EXPECT_EQ(kBlocksPerPage, 64u);
}

TEST(Types, BlockIndexInPage)
{
    EXPECT_EQ(blockIndexInPage(0x1000), 0u);
    EXPECT_EQ(blockIndexInPage(0x1040), 1u);
    EXPECT_EQ(blockIndexInPage(0x1fff), 63u);
}

TEST(Types, SameBlockAndSamePage)
{
    EXPECT_TRUE(sameBlock(0x100, 0x13f));
    EXPECT_FALSE(sameBlock(0x100, 0x140));
    EXPECT_TRUE(samePage(0x1000, 0x1fff));
    EXPECT_FALSE(samePage(0x1000, 0x2000));
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, BurstLengthBoundedAndRoughlyMean)
{
    Rng r(13);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const auto v = r.burstLength(8.0, 100);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 100u);
        sum += static_cast<double>(v);
    }
    EXPECT_NEAR(sum / 20000.0, 8.0, 1.0);
}

// ---------------------------------------------------------------------
// StatSet and aggregation helpers
// ---------------------------------------------------------------------

TEST(Stats, StatSetInsertLookup)
{
    StatSet s;
    s.set("a", 1.0);
    s.set("b", 2.0);
    EXPECT_TRUE(s.has("a"));
    EXPECT_FALSE(s.has("c"));
    EXPECT_DOUBLE_EQ(s.get("b"), 2.0);
    s.set("a", 3.0); // overwrite keeps position
    EXPECT_DOUBLE_EQ(s.get("a"), 3.0);
    EXPECT_EQ(s.entries().size(), 2u);
}

TEST(Stats, StatSetAddByName)
{
    StatSet s;
    s.add("n", 2.0); // absent: created at the delta
    s.add("n", 3.0);
    EXPECT_DOUBLE_EQ(s.get("n"), 5.0);
    EXPECT_EQ(s.entries().size(), 1u);
}

TEST(Stats, StatSetMergePrefixes)
{
    StatSet inner;
    inner.set("x", 1.0);
    StatSet outer;
    outer.merge("l1.", inner);
    EXPECT_DOUBLE_EQ(outer.get("l1.x"), 1.0);
}

TEST(Stats, GeomeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
}

TEST(Stats, MeanAndRatio)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(ratio(6, 3), 2.0);
    EXPECT_DOUBLE_EQ(ratio(6, 0, -1.0), -1.0);
}

// ---------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------

TEST(Table, RendersAlignedRows)
{
    TextTable t("T", {"name", "v"});
    t.addRow({"x", "1"});
    t.addRow("y", {2.5}, 1);
    const std::string s = t.render();
    EXPECT_NE(s.find("== T =="), std::string::npos);
    EXPECT_NE(s.find("| x"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
}

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

TEST(EventQueue, RunsInCycleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(5); });
    q.schedule(3, [&] { order.push_back(3); });
    q.schedule(4, [&] { order.push_back(4); });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{3, 4, 5}));
}

TEST(EventQueue, FifoAmongSameCycle)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runUntil(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, DoesNotRunFutureEvents)
{
    EventQueue q;
    bool ran = false;
    q.schedule(10, [&] { ran = true; });
    q.runUntil(9);
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.nextEventCycle(), 10u);
    q.runUntil(10);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsScheduledDuringRunSameCycleExecute)
{
    EventQueue q;
    int depth = 0;
    q.schedule(1, [&] {
        ++depth;
        q.schedule(1, [&] { ++depth; });
    });
    q.runUntil(1);
    EXPECT_EQ(depth, 2);
}

TEST(Clock, TickAdvancesAndDrains)
{
    SimClock sim_clock;
    int fired = 0;
    sim_clock.events.schedule(2, [&] { ++fired; });
    sim_clock.tick();
    EXPECT_EQ(sim_clock.now, 1u);
    EXPECT_EQ(fired, 0);
    sim_clock.tick();
    EXPECT_EQ(fired, 1);
}

} // namespace
} // namespace spburst
