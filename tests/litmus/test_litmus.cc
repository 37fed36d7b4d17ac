/**
 * @file
 * TSO litmus tests on the SMT core.
 *
 * The simulator is trace-driven and carries no data values, so litmus
 * outcomes are synthesized from the check::EventLog the core records:
 * a store becomes globally visible when its SB drain completes; a load
 * observes either a same-thread forwarding store or the latest visible
 * store to its address at its data-ready cycle (see
 * check/event_log.hh). Each classic pattern (SB, MP, LB, CoWW,
 * same-address forwarding) is replayed under several front-end skews
 * so the threads interleave differently, and every observed outcome
 * must be TSO-legal. Runs at --check=full, so the shadow-memory
 * forwarding oracle also cross-checks every forwarding decision made
 * along the way.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/check.hh"
#include "check/event_log.hh"
#include "common/clock.hh"
#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "trace/source.hh"

namespace spburst
{
namespace
{

constexpr Addr kX = 0x1000; // two distinct cache blocks
constexpr Addr kY = 0x2000;

/** The writer a load observed, resolved through the event log. */
struct Observed
{
    bool fromStore = false; //!< false: the load saw the initial value
    int thread = -1;
    SeqNum seq = kInvalidSeqNum;
};

class LitmusTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = check::level();
        // Full checking: the forwarding oracle and coherence audits run
        // on every litmus interleaving for free.
        check::setLevel(check::Level::Full);
    }

    void TearDown() override { check::setLevel(saved_); }

    /** @p n front-end skew no-ops; prepended to a thread's program. */
    static std::vector<MicroOp>
    skew(unsigned n)
    {
        std::vector<MicroOp> ops;
        for (unsigned i = 0; i < n; ++i)
            ops.push_back(uops::alu(0xF00 + i));
        return ops;
    }

    static std::vector<MicroOp>
    concat(std::vector<MicroOp> head, const std::vector<MicroOp> &tail)
    {
        head.insert(head.end(), tail.begin(), tail.end());
        return head;
    }

    /** Run @p progs (one per hardware thread) to completion and drain
     *  every SB and the hierarchy, so all stores are visible. */
    void
    run(const std::vector<std::vector<MicroOp>> &progs)
    {
        clock_ = SimClock{};
        log_.clear();
        mem_ = std::make_unique<MemorySystem>(MemSystemParams::tableI(1),
                                              &clock_);
        sources_.clear();
        ptrs_.clear();
        lens_.clear();
        for (const auto &p : progs) {
            lens_.push_back(p.size());
            sources_.push_back(
                std::make_unique<VectorSource>(p, /*loop=*/false,
                                               "litmus"));
            ptrs_.push_back(sources_.back().get());
        }
        smt_ = std::make_unique<Core>(CoreConfig{}, 0, &clock_,
                                      &mem_->l1d(0), ptrs_);
        smt_->setEventLog(&log_);

        const Cycle limit = clock_.now + 200'000;
        auto committed_all = [&] {
            for (int t = 0; t < smt_->threads(); ++t)
                if (smt_->committed(t) < lens_[t])
                    return false;
            return true;
        };
        auto drained = [&] {
            if (!clock_.events.empty())
                return false;
            for (int t = 0; t < smt_->threads(); ++t)
                if (smt_->storeBuffer(t).size() != 0)
                    return false;
            return true;
        };
        while ((!committed_all() || !drained()) && clock_.now < limit) {
            clock_.tick();
            smt_->tick();
        }
        ASSERT_TRUE(committed_all()) << "litmus program did not finish";
        ASSERT_TRUE(drained()) << "stores did not all become visible";
    }

    /** The (only) load of @p thread to @p addr. */
    const check::MemEvent *
    loadEvent(int thread, Addr addr) const
    {
        for (const auto &e : log_.events())
            if (e.kind == check::MemEvent::Kind::LoadObserved &&
                e.thread == thread && e.addr == addr)
                return &e;
        return nullptr;
    }

    /** StoreVisible events of @p thread to @p addr, in log order. */
    std::vector<const check::MemEvent *>
    storesVisible(int thread, Addr addr) const
    {
        std::vector<const check::MemEvent *> out;
        for (const auto &e : log_.events())
            if (e.kind == check::MemEvent::Kind::StoreVisible &&
                e.thread == thread && e.addr == addr)
                out.push_back(&e);
        return out;
    }

    Observed
    observed(int thread, Addr addr) const
    {
        const check::MemEvent *load = loadEvent(thread, addr);
        EXPECT_NE(load, nullptr) << "no load event for thread " << thread;
        Observed o;
        if (load)
            o.fromStore = log_.observedWriter(*load, &o.thread, &o.seq);
        return o;
    }

    SimClock clock_;
    check::EventLog log_;
    std::unique_ptr<MemorySystem> mem_;
    std::vector<std::unique_ptr<VectorSource>> sources_;
    std::vector<TraceSource *> ptrs_;
    std::vector<std::size_t> lens_;
    std::unique_ptr<Core> smt_;

  private:
    check::Level saved_;
};

TEST_F(LitmusTest, SameAddressForwarding)
{
    // T0: St x; Ld x  — the load must observe its own thread's store,
    // never the initial memory value (TSO read-own-write).
    for (unsigned s : {0u, 1u, 3u}) {
        run({concat(skew(s), {uops::store(0x10, kX), uops::load(0x14, kX)})});
        const Observed o = observed(0, kX);
        ASSERT_TRUE(o.fromStore) << "load missed its own store";
        EXPECT_EQ(o.thread, 0);
        const auto st = storesVisible(0, kX);
        ASSERT_EQ(st.size(), 1u);
        EXPECT_EQ(o.seq, st[0]->seq);
    }
}

TEST_F(LitmusTest, CoWWDrainsInProgramOrder)
{
    // Two same-address stores of one thread must become visible in
    // program order (coherence order == program order, TSO CoWW).
    run({{uops::store(0x10, kX), uops::alu(0x14),
          uops::store(0x18, kX)}});
    const auto st = storesVisible(0, kX);
    ASSERT_EQ(st.size(), 2u);
    EXPECT_LT(st[0]->seq, st[1]->seq);
    EXPECT_LT(st[0]->cycle, st[1]->cycle)
        << "younger same-address store became visible first";
}

TEST_F(LitmusTest, MessagePassingForbiddenOutcomeNeverOccurs)
{
    // T0: St x=1; St y=1.   T1: Ld y; Ld x (address-dependent).
    // Forbidden under TSO: T1 sees the y-store but stale x. The
    // address dependence orders T1's loads; the SB's in-order drain
    // orders T0's stores.
    for (unsigned s0 : {0u, 2u, 4u, 7u}) {
        for (unsigned s1 : {0u, 3u, 5u}) {
            run({concat(skew(s0), {uops::store(0x10, kX),
                                   uops::store(0x14, kY)}),
                 concat(skew(s1),
                        {uops::load(0x20, kY),
                         uops::load(0x24, kX, 8, /*addrSrc=*/1)})});
            const Observed oy = observed(1, kY);
            if (!oy.fromStore)
                continue; // T1 ran ahead of the message: legal
            EXPECT_EQ(oy.thread, 0);
            const Observed ox = observed(1, kX);
            EXPECT_TRUE(ox.fromStore && ox.thread == 0)
                << "skew (" << s0 << "," << s1 << "): saw y=1 but "
                << "stale x — store->store or load->load reordering";
        }
    }
}

TEST_F(LitmusTest, LoadBufferingForbiddenOutcomeNeverOccurs)
{
    // T0: Ld x; St y.   T1: Ld y; St x.  Both loads observing the
    // other thread's store would need stores to pass their own
    // program-earlier loads — forbidden under TSO (no St->Ld
    // reordering backwards).
    for (unsigned s0 : {0u, 2u, 5u}) {
        for (unsigned s1 : {0u, 1u, 4u}) {
            run({concat(skew(s0), {uops::load(0x10, kX),
                                   uops::store(0x14, kY)}),
                 concat(skew(s1), {uops::load(0x20, kY),
                                   uops::store(0x24, kX)})});
            const Observed ox = observed(0, kX);
            const Observed oy = observed(1, kY);
            EXPECT_FALSE(ox.fromStore && oy.fromStore)
                << "skew (" << s0 << "," << s1
                << "): both loads saw the other thread's later store";
        }
    }
}

TEST_F(LitmusTest, StoreBufferingRelaxationIsVisible)
{
    // T0: St x; Ld y.   T1: St y; Ld x.  TSO *allows* both loads to
    // see the initial value (the store-buffering relaxation this whole
    // paper is about), and the harness must be able to exhibit it. To
    // make the window deterministic, each thread first warms the line
    // the *other* thread will load (the L1D is shared across SMT
    // threads) plus its own DTLB entry for the page it loads from (the
    // DTLB is per-thread, so a same-page touch of a *different* block
    // keeps loadEvent() unique), and each store's data hangs off a
    // divide: the L1-hit loads complete well before either store can
    // commit, let alone drain. Any observed writer must still be the
    // other thread's (only) store to that address.
    auto prog = [this](Addr warm, Addr st, Addr ld, unsigned s) {
        std::vector<MicroOp> p{uops::load(0x30, warm),
                               uops::load(0x34, ld + kBlockSize)};
        // Enough filler to overlap the warming loads' DRAM round trip
        // (the per-thread ROB holds it back until the loads complete).
        for (unsigned i = 0; i < 300 + s; ++i)
            p.push_back(uops::alu(0x800 + i));
        MicroOp div;
        div.pc = 0x40;
        div.cls = OpClass::IntDiv;
        div.hasDest = true;
        p.push_back(div);
        p.push_back(uops::store(0x44, st, 8, /*dataSrc=*/1));
        p.push_back(uops::load(0x48, ld));
        return p;
    };
    unsigned both_initial = 0, runs = 0;
    for (unsigned s0 : {0u, 2u, 6u}) {
        for (unsigned s1 : {0u, 3u}) {
            run({prog(kX, kX, kY, s0), prog(kY, kY, kX, s1)});
            ++runs;
            const Observed oy = observed(0, kY);
            const Observed ox = observed(1, kX);
            if (oy.fromStore) {
                EXPECT_EQ(oy.thread, 1);
            }
            if (ox.fromStore) {
                EXPECT_EQ(ox.thread, 0);
            }
            if (!oy.fromStore && !ox.fromStore)
                ++both_initial;
        }
    }
    EXPECT_GT(both_initial, 0u)
        << "r1=r2=0 never occurred in " << runs
        << " runs — the SB is not actually buffering stores";
}

} // namespace
} // namespace spburst
