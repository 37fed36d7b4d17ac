/**
 * @file
 * Tests for the simcheck invariant subsystem: the macro/level/counter
 * core, the shadow-memory forwarding oracle, mutation-style tests that
 * seed classic simulator bugs and assert the matching invariant fires,
 * and regression tests for the real bugs the checkers caught.
 */

#include <gtest/gtest.h>

#include "check/check.hh"
#include "check/invariants.hh"
#include "check/shadow_mem.hh"
#include "common/clock.hh"
#include "cpu/store_buffer.hh"
#include "exp/options.hh"
#include "mem/memory_system.hh"

namespace spburst
{
namespace
{

/** Saves and restores the global check level around each test. */
class CheckTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = check::level(); }
    void TearDown() override { check::setLevel(saved_); }

  private:
    check::Level saved_;
};

// ---------------------------------------------------------------------
// Levels, counters, macro behaviour
// ---------------------------------------------------------------------

// --check=NAME parses through the option table's names (levelName).
TEST_F(CheckTest, ParseAndNameRoundTrip)
{
    using check::Level;
    SystemConfig cfg;
    for (Level l : {Level::Off, Level::Fast, Level::Full}) {
        exp::configOption("check").parse(cfg, check::levelName(l));
        EXPECT_EQ(check::level(), l);
    }
    EXPECT_STREQ(check::levelName(Level::Full), "full");
}

TEST_F(CheckTest, LevelsGateEnabledAndFull)
{
    check::setLevel(check::Level::Off);
    EXPECT_FALSE(check::enabled());
    EXPECT_FALSE(check::full());
    check::setLevel(check::Level::Fast);
    EXPECT_TRUE(check::enabled());
    EXPECT_FALSE(check::full());
    check::setLevel(check::Level::Full);
    EXPECT_TRUE(check::enabled());
    EXPECT_TRUE(check::full());
}

TEST_F(CheckTest, OffLevelSkipsEvenFailingChecks)
{
    check::setLevel(check::Level::Off);
    check::ThrowGuard guard;
    const std::uint64_t before = check::counters().totalViolations();
    SPBURST_CHECK(Spb, false, "must not fire at --check=off");
    SPBURST_CHECK_SLOW(Spb, false, "must not fire at --check=off");
    EXPECT_EQ(check::counters().totalViolations(), before);
}

TEST_F(CheckTest, FastLevelSkipsSlowChecks)
{
    check::setLevel(check::Level::Fast);
    check::ThrowGuard guard;
    SPBURST_CHECK_SLOW(Spb, false, "slow checks are full-mode only");
    EXPECT_THROW(SPBURST_CHECK(Spb, false, "fast checks do fire"),
                 check::CheckViolation);
}

TEST_F(CheckTest, ThrowGuardConvertsAbortIntoTypedThrow)
{
    check::setLevel(check::Level::Fast);
    check::ThrowGuard guard;
    try {
        SPBURST_CHECK(Mshr, 1 + 1 == 3, "arithmetic is broken: %d", 42);
        FAIL() << "check did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::Mshr);
        EXPECT_NE(std::string(v.what()).find("42"), std::string::npos);
    }
}

TEST_F(CheckTest, CountersTrackViolationsAndEvaluations)
{
    check::setLevel(check::Level::Full);
    check::ThrowGuard guard;
    const check::Counters before = check::counters();
    SPBURST_CHECK(Forwarding, true, "passes");
    EXPECT_THROW(SPBURST_CHECK(Forwarding, false, "fails"),
                 check::CheckViolation);
    const check::Counters d = check::counters().delta(before);
    const int fwd = static_cast<int>(check::Domain::Forwarding);
    EXPECT_EQ(d.evaluated[fwd], 2u);
    EXPECT_EQ(d.violations[fwd], 1u);
    EXPECT_EQ(d.totalViolations(), 1u);

    const StatSet s = d.toStatSet();
    EXPECT_EQ(s.get("violations"), 1.0);
    EXPECT_EQ(s.get("violations.forward"), 1.0);
    EXPECT_EQ(s.get("evaluated"), 2.0);
}

TEST_F(CheckTest, FastModeDoesNotCountEvaluations)
{
    // The evaluation counter is the one per-check cost that is not
    // O(1)-branch-cheap, so it only runs in full mode.
    check::setLevel(check::Level::Fast);
    const check::Counters before = check::counters();
    SPBURST_CHECK(Pipeline, true, "passes");
    EXPECT_EQ(check::counters().delta(before).totalEvaluated(), 0u);
}

// ---------------------------------------------------------------------
// Reusable invariant helpers
// ---------------------------------------------------------------------

TEST(InOrderChecker, StrictlyIncreasingOnly)
{
    check::InOrderChecker c;
    EXPECT_TRUE(c.observe(5));
    EXPECT_TRUE(c.observe(6));
    EXPECT_FALSE(c.observe(6)); // equal is a violation too
    EXPECT_FALSE(c.observe(2));
    EXPECT_EQ(c.last(), 2u); // high-water mark always advances
    c.reset();
    EXPECT_TRUE(c.observe(1));
}

TEST(ShadowMemory, SingleWriterFullCoverForwards)
{
    check::ShadowMemory shadow;
    shadow.write(10, 0x100, 8);
    EXPECT_EQ(shadow.expectedForward(11, 0x100, 8), 10u);
    EXPECT_EQ(shadow.expectedForward(11, 0x104, 4), 10u);
    // Not older than the load: must not forward.
    EXPECT_EQ(shadow.expectedForward(10, 0x100, 8), kInvalidSeqNum);
    // Partially uncovered load: must not forward.
    EXPECT_EQ(shadow.expectedForward(11, 0x100, 16), kInvalidSeqNum);
    EXPECT_EQ(shadow.pendingBytes(), 8u);
}

TEST(ShadowMemory, MixedYoungestWritersBlockForwarding)
{
    check::ShadowMemory shadow;
    shadow.write(10, 0x100, 8);
    shadow.write(12, 0x104, 4);
    // Bytes 0x100..0x103 are youngest-written by 10, 0x104..0x107 by
    // 12: no single store may supply the full load.
    EXPECT_EQ(shadow.expectedForward(13, 0x100, 8), kInvalidSeqNum);
    EXPECT_EQ(shadow.expectedForward(13, 0x104, 4), 12u);
    // A load older than 12 sees a uniform youngest writer again.
    EXPECT_EQ(shadow.expectedForward(11, 0x100, 8), 10u);
    shadow.erase(12, 0x104, 4);
    EXPECT_EQ(shadow.expectedForward(13, 0x100, 8), 10u);
}

TEST(ShadowMemory, EraseDropsBytes)
{
    check::ShadowMemory shadow;
    shadow.write(1, 0x200, 8);
    shadow.write(2, 0x200, 8);
    shadow.erase(1, 0x200, 8);
    EXPECT_EQ(shadow.expectedForward(3, 0x200, 8), 2u);
    shadow.erase(2, 0x200, 8);
    EXPECT_TRUE(shadow.empty());
    EXPECT_EQ(shadow.expectedForward(3, 0x200, 8), kInvalidSeqNum);
}

// ---------------------------------------------------------------------
// Mutation tests: seed a classic simulator bug through the public API
// and assert the matching invariant fires. Detached store buffers
// (no L1D) drain in one cycle, which keeps these single-stepped.
// ---------------------------------------------------------------------

class MutationTest : public CheckTest
{
  protected:
    void
    SetUp() override
    {
        CheckTest::SetUp();
        check::setLevel(check::Level::Full);
    }
};

TEST_F(MutationTest, OutOfOrderDispatchFires)
{
    check::ThrowGuard guard;
    StoreBuffer sb(8, nullptr, 0);
    sb.allocate(10, Region::App);
    EXPECT_THROW(sb.allocate(5, Region::App), check::CheckViolation);
}

TEST_F(MutationTest, CommitBeforeOlderStoreFires)
{
    check::ThrowGuard guard;
    StoreBuffer sb(8, nullptr, 0);
    sb.allocate(1, Region::App);
    sb.allocate(2, Region::App);
    sb.setAddress(1, 0x1000, 8);
    sb.setAddress(2, 0x1040, 8);
    // Committing 2 while 1 is still speculative breaks the senior-
    // prefix property the in-order drain relies on.
    try {
        sb.markSenior(2);
        FAIL() << "senior-prefix check did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::StoreBuffer);
    }
}

TEST_F(MutationTest, WrongPathCommitFires)
{
    check::ThrowGuard guard;
    StoreBuffer sb(8, nullptr, 0);
    sb.allocate(3, Region::App, /*wrongPath=*/true);
    sb.setAddress(3, 0x2000, 8);
    try {
        sb.markSenior(3);
        FAIL() << "wrong-path containment check did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::Pipeline);
    }
}

TEST_F(MutationTest, AddressAfterCommitFires)
{
    check::ThrowGuard guard;
    StoreBuffer sb(8, nullptr, 0);
    sb.allocate(4, Region::App);
    sb.setAddress(4, 0x3000, 8);
    sb.markSenior(4);
    EXPECT_THROW(sb.setAddress(4, 0x4000, 8), check::CheckViolation);
}

TEST_F(MutationTest, DrainOrderRegressionAfterSeqReuseFires)
{
    check::ThrowGuard guard;
    StoreBuffer sb(8, nullptr, 0);
    sb.allocate(10, Region::App);
    sb.setAddress(10, 0x1000, 8);
    sb.markSenior(10);
    sb.tick(1); // detached: drains immediately; high-water mark = 10

    // A buggy sequence allocator that reuses numbers below a drained
    // store breaks TSO store->store order at the drain.
    sb.allocate(5, Region::App);
    sb.setAddress(5, 0x1040, 8);
    sb.markSenior(5);
    try {
        sb.tick(2);
        FAIL() << "drain-order check did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::StoreBuffer);
    }
}

TEST_F(MutationTest, DuplicateOwnerFiresSwmrAudit)
{
    check::ThrowGuard guard;
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(2), &clock);
    // writeback() installs a Modified copy without consulting the
    // directory — calling it on two cores forges the exact state SWMR
    // forbids: two simultaneous owners.
    const Addr addr = 0x7000;
    mem.l1d(0).writeback(addr, 0);
    mem.l1d(1).writeback(addr, 1);
    try {
        mem.auditor().auditBlock(addr);
        FAIL() << "SWMR audit did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::Coherence);
    }
}

TEST_F(MutationTest, LeakedMshrFiresDrainAudit)
{
    check::ThrowGuard guard;
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(1), &clock);
    MemRequest req;
    req.cmd = MemCmd::ReadReq;
    req.blockAddr = 0x8000;
    // Issue a miss and then pretend the run ended without ever running
    // its fill event: the MSHR entry is still live.
    mem.l1d(0).issueLoad(req, {});
    EXPECT_EQ(mem.l1d(0).mshrInUse(), 1u);
    try {
        mem.auditor().auditDrained();
        FAIL() << "MSHR drain audit did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::Mshr);
    }
}

TEST_F(MutationTest, PageCrossingBurstFires)
{
    check::ThrowGuard guard;
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(1), &clock);
    // A burst starting at the last block of a page with count 2 would
    // prefetch into the next page — forbidden (SPB is page-bounded).
    const Addr last_block = 0x10000 + (kBlocksPerPage - 1) * kBlockSize;
    try {
        mem.l1d(0).enqueueBurst(last_block, 2, 0, Region::App);
        FAIL() << "page-bound check did not fire";
    } catch (const check::CheckViolation &v) {
        EXPECT_EQ(v.domain, check::Domain::Spb);
    }
    // The same burst clipped to the page is fine.
    mem.l1d(0).enqueueBurst(last_block, 1, 0, Region::App);
}

// ---------------------------------------------------------------------
// Regression tests for the real bugs the checkers caught (see
// CHANGES.md, PR 2).
// ---------------------------------------------------------------------

/** Advance the clock until the hierarchy's event queue is empty. */
void
quiesce(SimClock &clock, Cycle budget = 50'000)
{
    const Cycle limit = clock.now + budget;
    while (!clock.events.empty() && clock.now < limit)
        clock.tick();
    ASSERT_TRUE(clock.events.empty()) << "hierarchy failed to quiesce";
}

TEST_F(CheckTest, RegressionPartialOverlapBlocksForwarding)
{
    // Bug: forwards() used to return the oldest full cover even when a
    // *younger* store partially overlapped the load, handing the load
    // stale bytes for the overlap. Run in full mode so the shadow
    // oracle cross-checks every answer.
    check::setLevel(check::Level::Full);
    StoreBuffer sb(8, nullptr, 0);
    sb.allocate(1, Region::App);
    sb.setAddress(1, 0x100, 8);
    sb.allocate(2, Region::App);
    sb.setAddress(2, 0x104, 4);

    EXPECT_EQ(sb.forwards(3, 0x100, 8), kInvalidSeqNum)
        << "younger partial overlap must block forwarding";
    EXPECT_EQ(sb.forwards(3, 0x104, 4), 2u);
    EXPECT_EQ(sb.forwards(3, 0x100, 4), 1u)
        << "bytes untouched by the younger store still forward";
}

TEST_F(CheckTest, RegressionPrefetchMergeRequestsOwnershipOnce)
{
    // Bug: a write-prefetch merging into an in-flight read miss
    // appended an ownership target without setting ownershipRequested,
    // so later write-prefetches piled on duplicate upgrade targets.
    check::setLevel(check::Level::Full);
    check::ThrowGuard guard;
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(2), &clock);
    const Addr addr = 0x9000;

    // Park a Shared copy in core 0 so core 1's read fill arrives
    // without ownership.
    bool warm = false;
    MemRequest r0;
    r0.cmd = MemCmd::ReadReq;
    r0.blockAddr = addr;
    r0.core = 0;
    mem.l1d(0).issueLoad(r0, [&] { warm = true; });
    quiesce(clock);
    ASSERT_TRUE(warm);

    MemRequest r1 = r0;
    r1.core = 1;
    bool loaded = false;
    mem.l1d(1).issueLoad(r1, [&] { loaded = true; });
    MemRequest pf;
    pf.cmd = MemCmd::StorePF;
    pf.blockAddr = addr;
    pf.core = 1;
    mem.l1d(1).issueStorePrefetch(pf); // merges into the read MSHR
    mem.l1d(1).issueStorePrefetch(pf); // must not add a second upgrade
    quiesce(clock);

    EXPECT_TRUE(loaded);
    EXPECT_TRUE(mem.l1d(1).probeOwned(addr))
        << "the merged write-prefetch must still deliver ownership";
    mem.auditor().auditDrained(); // no leaked upgrade targets
    mem.auditor().auditFull();
}

TEST_F(CheckTest, RegressionInvalidationRacingFillDoesNotInstall)
{
    // Bug: a directory invalidation that raced an in-flight fill let
    // the fill re-install the block afterwards, resurrecting a copy
    // the directory believed gone (and breaking SWMR for ownership
    // fills).
    check::setLevel(check::Level::Full);
    check::ThrowGuard guard;
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(2), &clock);
    const Addr addr = 0xA000;

    bool loaded = false;
    MemRequest r0;
    r0.cmd = MemCmd::ReadReq;
    r0.blockAddr = addr;
    r0.core = 0;
    mem.l1d(0).issueLoad(r0, [&] { loaded = true; });
    // Let the request pass the directory but not complete (the DRAM
    // round trip takes ~175 cycles).
    for (int i = 0; i < 40; ++i)
        clock.tick();
    ASSERT_FALSE(loaded);

    // Core 1 writes the same block: the directory invalidates core 0,
    // whose fill is still in flight.
    bool drained = false;
    MemRequest w1;
    w1.cmd = MemCmd::WriteOwnReq;
    w1.blockAddr = addr;
    w1.core = 1;
    mem.l1d(1).drainStore(w1, [&] { drained = true; });
    quiesce(clock);

    EXPECT_TRUE(loaded);
    EXPECT_TRUE(drained);
    EXPECT_TRUE(mem.l1d(1).probeOwned(addr));
    EXPECT_FALSE(mem.l1d(0).probeValid(addr))
        << "the invalidated fill must not re-install the block";
    mem.auditor().auditFull(); // SWMR holds
    mem.auditor().auditDrained();
}

} // namespace
} // namespace spburst
