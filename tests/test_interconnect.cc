/**
 * @file
 * Unit tests for the interconnect hop and the DRAM MemLevel adapter,
 * plus VectorSource trace behaviour.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/clock.hh"
#include "mem/dram_level.hh"
#include "mem/interconnect.hh"
#include "trace/source.hh"

namespace spburst
{
namespace
{

TEST(Interconnect, AddsLatencyBothWays)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 2}, &clock);
    DramLevel level(&dram, &clock);
    Interconnect icn(&level, 6, &clock);

    bool done = false;
    Cycle done_at = 0;
    MemRequest req;
    req.cmd = MemCmd::ReadReq;
    req.blockAddr = 0x1000;
    icn.request(req, [&](bool ownership) {
        EXPECT_TRUE(ownership);
        done = true;
        done_at = clock.now;
    });
    for (int i = 0; i < 300 && !done; ++i)
        clock.tick();
    ASSERT_TRUE(done);
    // 6 out + 100 DRAM + 6 back = 112.
    EXPECT_EQ(done_at, 112u);
}

TEST(Interconnect, DeliversEveryMessage)
{
    SimClock clock;
    DramModel dram(DramParams{10, 1, 2}, &clock);
    DramLevel level(&dram, &clock);
    Interconnect icn(&level, 2, &clock);

    int completions = 0;
    MemRequest req;
    req.cmd = MemCmd::ReadReq;
    for (int i = 0; i < 5; ++i) {
        req.blockAddr = 0x1000 + i * kBlockSize;
        icn.request(req, [&](bool) { ++completions; });
    }
    icn.writeback(0x9000, 0);
    for (int i = 0; i < 100; ++i)
        clock.tick();
    EXPECT_EQ(completions, 5);
    EXPECT_EQ(dram.writes(), 1u);
}

/** A far side that holds every request until the test answers it. */
class ManualLevel : public MemLevel
{
  public:
    void
    request(const MemRequest &req, FillCallback done) override
    {
        pending_.emplace_back(req.blockAddr, std::move(done));
    }

    void writeback(Addr, int) override {}

    /** Answer the held request for @p block now. */
    void
    answer(Addr block, bool ownership)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->first != block)
                continue;
            FillCallback done = std::move(it->second);
            pending_.erase(it);
            done(ownership);
            return;
        }
        ADD_FAILURE() << "no request held for block " << block;
    }

  private:
    std::vector<std::pair<Addr, FillCallback>> pending_;
};

TEST(Interconnect, OvertakingResponseReusesItsSlot)
{
    SimClock clock;
    ManualLevel farSide;
    Interconnect icn(&farSide, 3, &clock);

    struct Completion
    {
        int calls = 0;
        Cycle at = 0;
        bool ownership = false;
    };
    Completion a, b, c;
    auto send = [&](Addr block, Completion &into) {
        MemRequest req;
        req.blockAddr = block;
        icn.request(req, [&clock, &into](bool ownership) {
            ++into.calls;
            into.at = clock.now;
            into.ownership = ownership;
        });
    };
    auto runTo = [&](Cycle cycle) {
        while (clock.now < cycle)
            clock.tick();
    };

    send(0x1000, a);
    send(0x2000, b);
    runTo(5);
    farSide.answer(0x2000, false); // the later request is answered first
    runTo(9);
    EXPECT_EQ(b.calls, 1);
    EXPECT_EQ(b.at, 8u);
    EXPECT_FALSE(b.ownership);

    // B's slot is free again; C takes it while A is still outstanding.
    send(0x3000, c);
    runTo(14);
    farSide.answer(0x3000, true);
    runTo(20);
    farSide.answer(0x1000, true);
    runTo(30);

    EXPECT_EQ(a.calls, 1);
    EXPECT_EQ(a.at, 23u);
    EXPECT_TRUE(a.ownership);
    EXPECT_EQ(b.calls, 1);
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.at, 17u);
    EXPECT_TRUE(c.ownership);
}

TEST(DramLevel, WritebackConsumesBandwidthNotLatency)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    DramLevel level(&dram, &clock);
    level.writeback(0x1000, 0);
    EXPECT_EQ(dram.writes(), 1u);
    // A read right after queues behind the writeback on the channel.
    bool done = false;
    Cycle done_at = 0;
    MemRequest req;
    req.blockAddr = 0x2000;
    level.request(req, [&](bool) {
        done = true;
        done_at = clock.now;
    });
    for (int i = 0; i < 300 && !done; ++i)
        clock.tick();
    EXPECT_EQ(done_at, 104u);
}

TEST(VectorSource, LoopsByDefault)
{
    VectorSource src({uops::alu(0x1), uops::alu(0x2)});
    EXPECT_EQ(src.next().pc, 0x1u);
    EXPECT_EQ(src.next().pc, 0x2u);
    EXPECT_EQ(src.next().pc, 0x1u);
    EXPECT_EQ(src.produced(), 3u);
}

TEST(VectorSource, NonLoopEmitsNops)
{
    VectorSource src({uops::store(0x1, 0x1000)}, false);
    EXPECT_EQ(src.next().cls, OpClass::Store);
    const MicroOp pad = src.next();
    EXPECT_EQ(pad.cls, OpClass::IntAlu);
}

} // namespace
} // namespace spburst
