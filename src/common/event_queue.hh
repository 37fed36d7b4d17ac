/**
 * @file
 * The discrete-event scheduler behind the simulation clock.
 *
 * The core pipeline advances cycle by cycle; the memory hierarchy is
 * event-driven. Each simulated cycle, the system first drains all events
 * scheduled at or before the current cycle (in deterministic FIFO order
 * among same-cycle events), then ticks the cores.
 *
 * The queue is a 256-bucket timing wheel of intrusive, pool-allocated
 * event records with small-buffer callback storage. Scheduling and
 * popping are O(1); a silent cycle (no events due) costs two pointer
 * checks. Events beyond the wheel horizon go to a far-future overflow
 * min-heap and are merged back, by the global (cycle, id) order, when
 * their cycle is drained, so bucket wraparound never reorders
 * anything. Execution order is (cycle, schedule id): FIFO among
 * same-cycle events, regardless of which structure stored them.
 *
 * Every event is scheduled after the drained horizon, or at the cycle
 * being drained from inside one of its events; anything earlier is an
 * assertion failure.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_function.hh"
#include "common/types.hh"

namespace spburst
{

/** Deterministic event queue keyed by (cycle, schedule order). */
class EventQueue
{
  public:
    /** Callback storage; sized so every steady-state capture in the
     *  memory hierarchy (interconnect hop wrappers included) stays
     *  inline. */
    using Callback = SmallFunction<void(), 112>;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    // Movable so tests can reset a SimClock wholesale. The moved-from
    // queue is only safe to destroy.
    EventQueue(EventQueue &&) = default;
    EventQueue &operator=(EventQueue &&) = default;

    /** Schedule @p cb to run at absolute cycle @p when: after the
     *  drained horizon, or at the cycle being drained. */
    void schedule(Cycle when, Callback cb);

    /** Run every event scheduled at or before @p now. */
    void runUntil(Cycle now);

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Cycle of the earliest pending event (kNeverCycle if none). */
    Cycle nextEventCycle() const;

    /** Events executed since construction (throughput accounting). */
    std::uint64_t executedEvents() const { return executed_; }

  private:
    /** Wheel span in cycles; must be a power of two. Sized to cover a
     *  full L1-to-DRAM round trip (~170 cycles in the Table I system),
     *  so only bandwidth-congested DRAM completions overflow. */
    static constexpr std::size_t kBuckets = 256;

    /** Pool-allocated intrusive record for one near-future event. */
    struct Node
    {
        Cycle when = 0;
        std::uint64_t id = 0;
        Node *next = nullptr;
        Callback cb;
    };

    /** FIFO bucket: singly linked with tail pointer for O(1) append. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** Far-future record (overflow min-heap element). */
    struct FlatEvent
    {
        Cycle when = 0;
        std::uint64_t id = 0;
        Callback cb;
    };

    /** An event due in the cycle currently being drained. */
    struct DueEvent
    {
        std::uint64_t id = 0;
        Callback cb;
    };

    void processCycle(Cycle c);
    Node *allocNode();
    void freeNode(Node *n);
    static void appendNode(Bucket &b, Node *n);
    /** Earliest pending cycle (kNeverCycle if none). */
    Cycle scanNextDue() const;
    Cycle nextBucketDue() const;

    /** Min-heap order on (when, id). */
    static bool
    heapLater(const FlatEvent &a, const FlatEvent &b)
    {
        return a.when != b.when ? a.when > b.when : a.id > b.id;
    }

    std::size_t size_ = 0;
    std::uint64_t nextId_ = 0;
    std::uint64_t executed_ = 0;

    std::array<Bucket, kBuckets> buckets_;
    /** Bucket-occupancy bitmap (bit b set iff buckets_[b] is
     *  non-empty): silent spans are skipped with a four-word scan
     *  instead of one wheel probe per cycle, and nextEventCycle
     *  recomputes in O(words) instead of O(kBuckets). Every node in a
     *  live bucket shares one `when` (live events span < kBuckets
     *  cycles), so the first occupied bucket at wheel distance d from
     *  cursor_+1 is due exactly at cursor_+1+d. */
    std::array<std::uint64_t, kBuckets / 64> occupied_{};
    std::vector<FlatEvent> overflow_;      //!< min-heap on (when, id)
    std::vector<std::unique_ptr<Node[]>> chunks_; //!< node pool backing
    Node *freeNodes_ = nullptr;
    Cycle cursor_ = 0;         //!< every cycle <= cursor_ is drained
    bool draining_ = false;    //!< inside processCycle
    Cycle drainCycle_ = 0;     //!< cycle being drained
    std::vector<DueEvent> due_; //!< scratch: current cycle's events
    std::vector<FlatEvent> dueOverflow_; //!< scratch: overflow's share
    /** Exact earliest pending cycle; kNeverCycle when the cache is
     *  stale (recomputed lazily by nextEventCycle). */
    mutable Cycle cachedNext_ = kNeverCycle;
    mutable bool cachedNextValid_ = true;
};

} // namespace spburst
