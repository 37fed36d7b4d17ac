/**
 * @file
 * A global memory-order event log for litmus testing.
 *
 * The simulator is trace-driven and carries no data values, so litmus
 * outcomes are synthesized from timing: a store's value becomes visible
 * to other cores when its SB drain completes (the cache line is
 * written); a load observes either a forwarding store (same thread) or
 * the latest globally visible store to its address at the cycle its
 * data arrives. The litmus harness (tests/litmus/) replays classic TSO
 * patterns through a multi-threaded Core with this log attached
 * (Core::setEventLog) and asserts only TSO-legal outcomes occur.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace spburst::check
{

/** One globally ordered memory event. */
struct MemEvent
{
    enum class Kind : std::uint8_t
    {
        StoreVisible, //!< SB drain completed; line updated in cache
        LoadObserved, //!< load data ready (forwarded or from cache)
    };

    Kind kind;
    int thread;            //!< hardware thread id
    SeqNum seq;            //!< instruction sequence number
    Addr addr;             //!< first byte accessed
    unsigned size;         //!< bytes accessed
    Cycle cycle;           //!< when the event became architectural
    //! For LoadObserved: the same-thread store that forwarded, or
    //! kInvalidSeqNum when the value came from the memory system.
    SeqNum forwardedFrom = kInvalidSeqNum;
};

/** Append-only log shared by all threads of a litmus run. */
class EventLog
{
  public:
    EventLog() { events_.reserve(1024); }

    void record(const MemEvent &e) { events_.push_back(e); }

    const std::vector<MemEvent> &events() const { return events_; }

    void clear() { events_.clear(); }

    /**
     * The (thread, seq) of the store whose value a load observes, given
     * the load's own event. Forwarded loads observe the forwarding
     * store; others observe the latest StoreVisible to the same
     * address with cycle <= the load's cycle. Returns false if the load
     * sees the initial memory value (no store visible yet).
     */
    bool observedWriter(const MemEvent &load, int *thread,
                        SeqNum *seq) const;

  private:
    std::vector<MemEvent> events_;
};

} // namespace spburst::check
