/**
 * @file
 * The store buffer / store queue under study.
 *
 * Entries are allocated at dispatch (a full SB therefore stalls
 * dispatch — the "SB-induced stall" of the paper), receive their
 * address at execute, become *senior* when the store commits, and are
 * freed when the store has drained into the L1D. Senior stores drain
 * strictly in order (TSO store→store order); a drain that misses blocks
 * everything behind it until ownership arrives — the serialization SPB
 * exists to hide. Loads forward from older, address-known entries.
 *
 * simcheck coverage (see DESIGN.md "Invariants & checking levels"):
 * entries stay in program order, senior marking follows commit order,
 * wrong-path stores never drain, drains are strictly in order, and in
 * full mode every forwarding decision is cross-checked against the
 * byte-granular check::ShadowMemory oracle.
 */

#pragma once

#include <cstdint>
#include <functional>

#include "check/event_log.hh"
#include "check/invariants.hh"
#include "check/shadow_mem.hh"
#include "common/clock.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/pipeline_structs.hh"
#include "trace/uop.hh"

namespace spburst
{

class CacheController;
class Core;
class SpbEngine;

/** Store-buffer statistics. */
struct StoreBufferStats
{
    std::uint64_t drained = 0;          //!< stores written to the L1D
    std::uint64_t forwards = 0;         //!< loads served from the SB
    std::uint64_t headBlockedCycles = 0; //!< head waiting for ownership
    std::uint64_t squashed = 0;         //!< wrong-path entries removed
    std::uint64_t occupancySum = 0;     //!< per-cycle occupancy integral
    std::uint64_t fullCycles = 0;       //!< cycles at capacity
    std::uint64_t coalesced = 0;        //!< entries merged (coalescing)
};

/** TSO store buffer with in-order drain and load forwarding. */
class StoreBuffer
{
  public:
    /**
     * @param capacity SB entries (56 / 28 / 14 / ... in the paper).
     * @param l1d      The core's L1D controller.
     * @param core     Owning core id.
     */
    StoreBuffer(unsigned capacity, CacheController *l1d, int core);

    /** Attach the owning core, woken before a drain completes (see
     *  Core::wake). Detached store buffers have none. */
    void setOwner(Core *owner) { owner_ = owner; }

    /** Attach the SPB engine (notified on every senior store). */
    void setSpbEngine(SpbEngine *spb) { spb_ = spb; }

    /** At-commit write-prefetch hook toggle. */
    void setPrefetchAtCommit(bool on) { prefetchAtCommit_ = on; }

    /**
     * Non-speculative store coalescing (Ros & Kaxiras [24], discussed
     * in the paper's related work): when a store commits directly
     * behind a senior store to the same block, the two merge into one
     * SB entry, freeing capacity. TSO-safe because only *consecutive*
     * same-block seniors merge. Off by default.
     */
    void setCoalescing(bool on) { coalescing_ = on; }

    /**
     * Attach a litmus event log: each completed drain records a
     * StoreVisible event stamped with @p clock->now (used only by the
     * litmus harness; null in normal runs).
     */
    void
    setEventLog(check::EventLog *log, int thread, const SimClock *clock)
    {
        eventLog_ = log;
        eventThread_ = thread;
        eventClock_ = clock;
    }

    // ---- pipeline hooks ----

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Dispatch: reserve an entry (caller must check !full()). */
    void allocate(SeqNum seq, Region region, bool wrongPath = false);

    /** Execute: the store's address is now known. */
    void setAddress(SeqNum seq, Addr addr, unsigned size);

    /** Commit: mark senior; triggers at-commit prefetch and SPB. */
    void markSenior(SeqNum seq);

    /** Squash all (necessarily non-senior) entries with seq >= @p seq. */
    void squashFrom(SeqNum seq);

    /** Advance one cycle: drain the head if possible. */
    void tick(Cycle now);

    /** True when tick() would be a pure stat update: nothing to drain
     *  (empty / head not senior) or a drain already in flight. */
    bool
    quiescent() const
    {
        return drainInFlight_ || entries_.empty() ||
               !(entries_.flags(0) & sbflags::kSenior);
    }

    /** Account @p n skipped quiescent cycles (occupancy integral and
     *  full-cycle count, exactly as n quiescent ticks would). */
    void
    skipCycles(Cycle n)
    {
        stats_.occupancySum += n * entries_.size();
        if (full())
            stats_.fullCycles += n;
    }

    /**
     * Store-to-load forwarding: the seq of the older, address-known
     * entry that covers the load, or kInvalidSeqNum if the load must
     * go to the memory system. A younger *partially* overlapping store
     * blocks forwarding from anything older (the load would otherwise
     * mix stale bytes with pending ones).
     */
    SeqNum forwards(SeqNum load_seq, Addr addr, unsigned size);

    /** Region of the head entry (stall attribution, Fig. 3). */
    Region headRegion() const;

    /** True if the head is senior but still waiting on the L1D. */
    bool headDraining() const { return drainInFlight_; }

    const StoreBufferStats &stats() const { return stats_; }

  private:
    /** Pop the drained head: shadow/event-log bookkeeping + stats. */
    void finishDrain();

    unsigned capacity_;
    CacheController *l1d_;
    int core_;
    Core *owner_ = nullptr;
    SpbEngine *spb_ = nullptr;
    bool prefetchAtCommit_ = false;
    bool coalescing_ = false;
    SbRing entries_; // program order; senior prefix drains
    bool drainInFlight_ = false;
    std::uint64_t drainToken_ = 0; //!< guards stale drain callbacks
    StoreBufferStats stats_;

    check::InOrderChecker drainOrder_; //!< TSO store→store order
    check::ShadowMemory shadow_;       //!< full-mode forwarding oracle
    check::EventLog *eventLog_ = nullptr;
    int eventThread_ = 0;
    const SimClock *eventClock_ = nullptr;
};

} // namespace spburst
