#include "common/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace spburst
{

namespace
{

/** Nodes are pooled in chunks; 64 covers a core's worth of in-flight
 *  misses without a second allocation. */
constexpr std::size_t kChunkNodes = 64;

} // namespace

EventQueue::EventQueue()
{
    overflow_.reserve(64);
    due_.reserve(64);
    dueOverflow_.reserve(16);
}

EventQueue::~EventQueue() = default;

EventQueue::Node *
EventQueue::allocNode()
{
    if (freeNodes_ == nullptr) {
        // Pool refill: one chunk allocation amortised over kChunkNodes
        // events.
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
        Node *chunk = chunks_.back().get();
        for (std::size_t i = 0; i < kChunkNodes; ++i) {
            chunk[i].next = freeNodes_;
            freeNodes_ = &chunk[i];
        }
    }
    Node *n = freeNodes_;
    freeNodes_ = n->next;
    n->next = nullptr;
    return n;
}

void
EventQueue::freeNode(Node *n)
{
    n->cb = nullptr; // release any heap-stored capture promptly
    n->next = freeNodes_;
    freeNodes_ = n;
}

void
EventQueue::appendNode(Bucket &b, Node *n)
{
    if (b.tail == nullptr) {
        b.head = b.tail = n;
    } else {
        b.tail->next = n;
        b.tail = n;
    }
}

void
EventQueue::schedule(Cycle when, Callback cb)
{
    const std::uint64_t id = nextId_++;
    ++size_;
    if (cachedNextValid_ && when < cachedNext_)
        cachedNext_ = when;

    // An event scheduled *at* the cycle currently being drained (e.g. a
    // zero-delay completion fired from inside another event) joins the
    // tail of the in-flight due list: its id is larger than everything
    // already there, so FIFO order is preserved by construction.
    if (draining_ && when == drainCycle_) {
        due_.push_back(DueEvent{id, std::move(cb)});
        return;
    }
    SPB_ASSERT(when > cursor_,
               "event scheduled at cycle %llu, at or before the drained "
               "horizon %llu",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(cursor_));
    // Beyond the wheel horizon: far-future min-heap.
    if (when - cursor_ >= kBuckets) {
        overflow_.push_back(FlatEvent{when, id, std::move(cb)});
        std::push_heap(overflow_.begin(), overflow_.end(), heapLater);
        return;
    }
    Node *n = allocNode();
    n->when = when;
    n->id = id;
    n->cb = std::move(cb);
    const std::size_t b = static_cast<std::size_t>(when) & (kBuckets - 1);
    appendNode(buckets_[b], n);
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void
EventQueue::processCycle(Cycle c)
{
    draining_ = true;
    drainCycle_ = c;
    cursor_ = c;
    cachedNextValid_ = false;

    // Detach this cycle's bucket chain (all nodes in a live bucket
    // share one `when`, because live events span < kBuckets cycles).
    Node *chain = nullptr;
    const std::size_t bi = static_cast<std::size_t>(c) & (kBuckets - 1);
    Bucket &b = buckets_[bi];
    if (b.head != nullptr && b.head->when == c) {
        chain = b.head;
        b.head = b.tail = nullptr;
        occupied_[bi >> 6] &= ~(std::uint64_t{1} << (bi & 63));
    }

    // Pull this cycle's overflow events; heap pops yield ascending id
    // among equal `when`.
    dueOverflow_.clear();
    while (!overflow_.empty() && overflow_.front().when <= c) {
        std::pop_heap(overflow_.begin(), overflow_.end(), heapLater);
        dueOverflow_.push_back(std::move(overflow_.back()));
        overflow_.pop_back();
    }

    // Merge the two id-sorted streams so same-cycle FIFO order holds
    // across the bucket/overflow split.
    due_.clear();
    std::size_t oi = 0;
    for (Node *n = chain; n != nullptr || oi < dueOverflow_.size();) {
        if (n != nullptr && (oi >= dueOverflow_.size() ||
                             n->id < dueOverflow_[oi].id)) {
            due_.push_back(DueEvent{n->id, std::move(n->cb)});
            Node *dead = n;
            n = n->next;
            freeNode(dead);
        } else {
            due_.push_back(DueEvent{dueOverflow_[oi].id,
                                    std::move(dueOverflow_[oi].cb)});
            ++oi;
        }
    }
    dueOverflow_.clear();

    // Index loop: callbacks may append same-cycle events to due_.
    for (std::size_t i = 0; i < due_.size(); ++i) {
        Callback cb = std::move(due_[i].cb);
        --size_;
        ++executed_;
        cb();
    }
    due_.clear();
    draining_ = false;
}

/**
 * Earliest cycle with an occupied wheel bucket, from the occupancy
 * bitmap alone. Wheel distance d of bit position p from the start slot
 * s = (cursor_+1) & mask is (p - s) mod kBuckets; the first set bit in
 * that rotated order maps to cycle cursor_+1+d.
 */
Cycle
EventQueue::nextBucketDue() const
{
    constexpr std::size_t kWords = kBuckets / 64;
    const std::size_t s =
        static_cast<std::size_t>(cursor_ + 1) & (kBuckets - 1);
    const std::size_t w0 = s >> 6;
    const unsigned off = static_cast<unsigned>(s & 63);
    const std::uint64_t first = occupied_[w0] >> off;
    if (first != 0)
        return cursor_ + 1 + static_cast<Cycle>(std::countr_zero(first));
    for (std::size_t k = 1; k < kWords; ++k) {
        const std::uint64_t m = occupied_[(w0 + k) & (kWords - 1)];
        if (m != 0)
            return cursor_ + 1 +
                   static_cast<Cycle>(64 * k - off +
                                      std::countr_zero(m));
    }
    if (off != 0) {
        const std::uint64_t wrap =
            occupied_[w0] & ((std::uint64_t{1} << off) - 1);
        if (wrap != 0)
            return cursor_ + 1 +
                   static_cast<Cycle>(kBuckets - off +
                                      std::countr_zero(wrap));
    }
    return kNeverCycle;
}

void
EventQueue::runUntil(Cycle now)
{
    while (cursor_ < now) {
        // Jump straight to the next cycle that has work (always
        // > cursor_: processCycle pulls everything due). Events
        // scheduled by the callbacks land either in the in-flight due
        // list (same cycle) or the wheel/overflow (future), so
        // recomputing per iteration sees every new arrival.
        const Cycle next = scanNextDue();
        if (next > now) {
            cursor_ = now; // silent span: no wheel probes at all
            break;
        }
        processCycle(next);
    }
    if (size_ == 0) {
        cachedNext_ = kNeverCycle;
        cachedNextValid_ = true;
    }
}

Cycle
EventQueue::scanNextDue() const
{
    const Cycle bucket = nextBucketDue();
    if (!overflow_.empty() && overflow_.front().when < bucket)
        return overflow_.front().when;
    return bucket;
}

Cycle
EventQueue::nextEventCycle() const
{
    if (!cachedNextValid_) {
        cachedNext_ = scanNextDue();
        cachedNextValid_ = true;
    }
    return cachedNext_;
}

} // namespace spburst
