/**
 * @file
 * Struct-of-arrays ring buffers for the pipeline hot structures, and
 * the slot-indexed sets the core's scheduler keeps beside the ROB.
 *
 * With `std::deque` each probe pays a chunk-map indirection and drags
 * a whole ~80-byte entry through the cache to test one flag. The rings
 * here split every entry across parallel arrays so an access touches
 * only the fields it reads: one packed flag byte per entry, cycle
 * stamps and source seqs alongside, and the cold payload (`MicroOp`,
 * lifetime token) in side arrays that only dispatch/commit touch.
 *
 * All rings are power-of-two sized and indexed logically: index 0 is
 * the oldest entry, `phys(i) = (head + i) & mask`. The ROB ring also
 * owns the seq-contiguity invariant the cores rely on for O(1)
 * producer lookup: entry i holds sequence number `frontSeq() + i` by
 * construction (squash reuses the freed numbers, so contiguity
 * survives recovery).
 *
 * An entry never moves between physical slots while it is buffered, so
 * the scheduler's ready set, timer set, wakeup matrix and load list
 * (SlotBitmap, WakeupMatrix, SlotList) are indexed by physical slot and
 * need no update when the head advances.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "trace/uop.hh"

namespace spburst
{

/** Packed per-entry ROB state, one byte per entry. */
namespace robflags
{
inline constexpr std::uint8_t kWrongPath = 0x01;
inline constexpr std::uint8_t kInIq = 0x02;
inline constexpr std::uint8_t kIssued = 0x04;
inline constexpr std::uint8_t kCompleted = 0x08;
inline constexpr std::uint8_t kMemPending = 0x10;
} // namespace robflags

/** Smallest power of two >= @p n (and >= 1). */
constexpr std::size_t
ringCapacityFor(std::size_t n)
{
    std::size_t cap = 1;
    while (cap < n)
        cap <<= 1;
    return cap;
}

/** Bit of slot @p p within its 64-bit word. */
constexpr std::uint64_t
slotBit(std::size_t p)
{
    return std::uint64_t{1} << (p & 63);
}

/** Fixed-size set of ring slots, one bit per physical slot. */
class SlotBitmap
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Size for @p slots slots, all clear. */
    void reset(std::size_t slots) { words_.assign((slots + 63) / 64, 0); }

    void set(std::size_t p) { words_[p >> 6] |= slotBit(p); }
    void clear(std::size_t p) { words_[p >> 6] &= ~slotBit(p); }
    bool
    test(std::size_t p) const
    {
        return (words_[p >> 6] & slotBit(p)) != 0;
    }

    bool
    any() const
    {
        for (const std::uint64_t w : words_)
            if (w != 0)
                return true;
        return false;
    }

    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (const std::uint64_t w : words_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** Lowest set slot in [@p from, @p to), or npos. */
    std::size_t
    findNext(std::size_t from, std::size_t to) const
    {
        if (from >= to)
            return npos;
        std::size_t w = from >> 6;
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
        const std::size_t last = (to - 1) >> 6;
        while (bits == 0) {
            if (++w > last)
                return npos;
            bits = words_[w];
        }
        const std::size_t p =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        return p < to ? p : npos;
    }

    /** Call @p fn(slot) for every set slot, lowest first. @p fn may
     *  clear bits; a bit it sets in a word already reached is skipped. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                fn((w << 6) +
                   static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;
};

/**
 * Producer-to-consumer wakeup matrix over ring slots: row p holds the
 * slots of the uops waiting for the uop in slot p to complete. One
 * flat allocation (slots x slots bits) made at reset.
 */
class WakeupMatrix
{
  public:
    void
    reset(std::size_t slots)
    {
        rowWords_ = (slots + 63) / 64;
        bits_.assign(slots * rowWords_, 0);
    }

    void
    add(std::size_t producer, std::size_t consumer)
    {
        bits_[producer * rowWords_ + (consumer >> 6)] |= slotBit(consumer);
    }

    void
    remove(std::size_t producer, std::size_t consumer)
    {
        bits_[producer * rowWords_ + (consumer >> 6)] &= ~slotBit(consumer);
    }

    /** Call @p fn(consumer) for every consumer of @p producer and
     *  empty its row. */
    template <typename Fn>
    void
    drainRow(std::size_t producer, Fn &&fn)
    {
        std::uint64_t *row = &bits_[producer * rowWords_];
        for (std::size_t w = 0; w < rowWords_; ++w) {
            for (std::uint64_t b = row[w]; b != 0; b &= b - 1)
                fn((w << 6) + static_cast<std::size_t>(std::countr_zero(b)));
            row[w] = 0;
        }
    }

  private:
    std::vector<std::uint64_t> bits_;
    std::size_t rowWords_ = 0;
};

/**
 * Intrusive doubly linked FIFO of ring slots: O(1) append, O(1) erase
 * from anywhere, the oldest append at front(). Storage is two link
 * arrays sized at reset; a slot is in the list at most once.
 */
class SlotList
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    void
    reset(std::size_t slots)
    {
        prev_.assign(slots, kNil);
        next_.assign(slots, kNil);
        head_ = kNil;
        tail_ = kNil;
    }

    /** Oldest slot in the list, or npos when empty. */
    std::size_t front() const { return head_ == kNil ? npos : head_; }

    void
    pushBack(std::size_t p)
    {
        const auto s = static_cast<std::uint32_t>(p);
        prev_[p] = tail_;
        next_[p] = kNil;
        if (tail_ == kNil)
            head_ = s;
        else
            next_[tail_] = s;
        tail_ = s;
    }

    void
    erase(std::size_t p)
    {
        const std::uint32_t before = prev_[p];
        const std::uint32_t after = next_[p];
        if (before == kNil)
            head_ = after;
        else
            next_[before] = after;
        if (after == kNil)
            tail_ = before;
        else
            prev_[after] = before;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
};

/**
 * Reorder buffer as a struct-of-arrays ring.
 *
 * Hot arrays: flags (IQ/issued/completed/memory-pending state),
 * readyCycle (completion timer), issuedAt (exec-stall attribution),
 * src1/src2 (producer seqs). Cold arrays: the MicroOp payload and the
 * lifetime token that fends off stale memory callbacks after a squash.
 */
class RobRing
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    RobRing() = default;

    /** Size the ring for @p capacity entries and empty it. */
    void
    reset(std::size_t capacity)
    {
        const std::size_t cap = ringCapacityFor(capacity);
        flags_.assign(cap, 0);
        ready_.assign(cap, kNeverCycle);
        issuedAt_.assign(cap, 0);
        src1_.assign(cap, kInvalidSeqNum);
        src2_.assign(cap, kInvalidSeqNum);
        op_.assign(cap, MicroOp{});
        token_.assign(cap, 0);
        mask_ = cap - 1;
        head_ = 0;
        count_ = 0;
        frontSeq_ = 1;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Seq of the oldest entry (meaningful only when non-empty). */
    SeqNum frontSeq() const { return frontSeq_; }
    /** Seq of the youngest entry (requires non-empty). */
    SeqNum backSeq() const { return frontSeq_ + count_ - 1; }
    /** Seq of logical entry @p i (contiguity invariant). */
    SeqNum seqAt(std::size_t i) const { return frontSeq_ + i; }

    /**
     * Logical index of @p seq, or npos when it is not buffered
     * (committed, squashed, never dispatched, or kInvalidSeqNum — the
     * unsigned wrap maps all of those past count_).
     */
    std::size_t
    indexOf(SeqNum seq) const
    {
        const std::size_t i = static_cast<std::size_t>(seq - frontSeq_);
        return i < count_ ? i : npos;
    }

    /**
     * Append a fresh entry for @p seq with default-initialised hot
     * state (flags 0, readyCycle never, sources invalid) and return
     * its logical index. @p seq must extend the contiguous range.
     */
    std::size_t
    pushBack(SeqNum seq, std::uint64_t token)
    {
        SPB_ASSERT(count_ <= mask_, "ROB ring overflow");
        if (count_ == 0)
            frontSeq_ = seq;
        else
            SPB_ASSERT(seq == frontSeq_ + count_,
                       "ROB lost seq contiguity");
        const std::size_t p = (head_ + count_) & mask_;
        flags_[p] = 0;
        ready_[p] = kNeverCycle;
        issuedAt_[p] = 0;
        src1_[p] = kInvalidSeqNum;
        src2_[p] = kInvalidSeqNum;
        token_[p] = token;
        return count_++;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
        ++frontSeq_;
    }

    void popBack() { --count_; }

    std::uint8_t &flags(std::size_t i) { return flags_[phys(i)]; }
    std::uint8_t flags(std::size_t i) const { return flags_[phys(i)]; }
    Cycle &readyCycle(std::size_t i) { return ready_[phys(i)]; }
    Cycle readyCycle(std::size_t i) const { return ready_[phys(i)]; }
    Cycle &issuedAt(std::size_t i) { return issuedAt_[phys(i)]; }
    Cycle issuedAt(std::size_t i) const { return issuedAt_[phys(i)]; }
    SeqNum &src1(std::size_t i) { return src1_[phys(i)]; }
    SeqNum src1(std::size_t i) const { return src1_[phys(i)]; }
    SeqNum &src2(std::size_t i) { return src2_[phys(i)]; }
    SeqNum src2(std::size_t i) const { return src2_[phys(i)]; }
    MicroOp &op(std::size_t i) { return op_[phys(i)]; }
    const MicroOp &op(std::size_t i) const { return op_[phys(i)]; }
    std::uint64_t token(std::size_t i) const { return token_[phys(i)]; }

    // Physical-slot view: an entry keeps its slot while buffered, so
    // slot-indexed side structures stay valid as the head advances.

    /** Number of physical slots (a power of two >= the reset size). */
    std::size_t capacity() const { return mask_ + 1; }
    /** Physical slot of logical entry @p i. */
    std::size_t slotOf(std::size_t i) const { return phys(i); }
    /** Logical index of the entry in physical slot @p p. */
    std::size_t
    indexOfSlot(std::size_t p) const
    {
        return (p - head_) & mask_;
    }

    std::uint8_t &slotFlags(std::size_t p) { return flags_[p]; }
    Cycle &slotReadyCycle(std::size_t p) { return ready_[p]; }
    Cycle slotIssuedAt(std::size_t p) const { return issuedAt_[p]; }
    const MicroOp &slotOp(std::size_t p) const { return op_[p]; }

    /**
     * Logical index of the oldest entry at or after logical index
     * @p from whose slot is set in @p slots, or npos. Walks the live
     * slots in age order across the ring wrap, a word at a time.
     */
    std::size_t
    findFrom(const SlotBitmap &slots, std::size_t from) const
    {
        if (from >= count_)
            return npos;
        const std::size_t cap = mask_ + 1;
        const std::size_t begin = head_ + from;
        const std::size_t end = head_ + count_;
        if (begin < cap) {
            const std::size_t p = slots.findNext(begin, end < cap ? end : cap);
            if (p != SlotBitmap::npos)
                return p - head_;
            if (end <= cap)
                return npos;
            const std::size_t q = slots.findNext(0, end - cap);
            return q == SlotBitmap::npos ? npos : q + cap - head_;
        }
        const std::size_t p = slots.findNext(begin - cap, end - cap);
        return p == SlotBitmap::npos ? npos : p + cap - head_;
    }

  private:
    std::size_t phys(std::size_t i) const { return (head_ + i) & mask_; }

    std::vector<std::uint8_t> flags_;
    std::vector<Cycle> ready_;
    std::vector<Cycle> issuedAt_;
    std::vector<SeqNum> src1_;
    std::vector<SeqNum> src2_;
    std::vector<MicroOp> op_;
    std::vector<std::uint64_t> token_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
    SeqNum frontSeq_ = 1;
};

/** One fetched uop waiting in the front-end pipe. */
struct FetchedUop
{
    MicroOp op;
    Cycle fetchCycle = 0;
    bool wrongPath = false;
};

/**
 * Front-end pipe as a plain ring of FetchedUop. The pipe is only ever
 * touched at its ends (fetch appends, dispatch pops the head, squash
 * clears), so parallel arrays buy nothing here — the win over deque is
 * the fixed power-of-two storage and the branch-free index math.
 */
class FetchRing
{
  public:
    FetchRing() = default;

    void
    reset(std::size_t capacity)
    {
        slots_.assign(ringCapacityFor(capacity), FetchedUop{});
        mask_ = slots_.size() - 1;
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    void clear() { count_ = 0; }

    FetchedUop &front() { return slots_[head_]; }
    const FetchedUop &front() const { return slots_[head_]; }

    void
    pushBack(FetchedUop f)
    {
        SPB_ASSERT(count_ <= mask_, "fetch ring overflow");
        slots_[(head_ + count_) & mask_] = std::move(f);
        ++count_;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

  private:
    std::vector<FetchedUop> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
};

/** Packed per-entry store-buffer state. */
namespace sbflags
{
inline constexpr std::uint8_t kSenior = 0x01;
inline constexpr std::uint8_t kAddressKnown = 0x02;
inline constexpr std::uint8_t kWrongPath = 0x04;
} // namespace sbflags

/**
 * Store-buffer entries as a struct-of-arrays ring. The forwarding scan
 * (youngest-to-oldest, every load) reads only seq/flags/addr/size, so
 * those live in parallel arrays; region rides in its own byte array
 * (read at commit and for stall attribution only).
 *
 * Unlike the ROB, SB seqs are sparse (only stores), so lookup stays a
 * linear seq scan — over a dense array instead of deque chunks.
 */
class SbRing
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    SbRing() = default;

    void
    reset(std::size_t capacity)
    {
        const std::size_t cap = ringCapacityFor(capacity);
        seq_.assign(cap, kInvalidSeqNum);
        addr_.assign(cap, kInvalidAddr);
        size_.assign(cap, 0);
        flags_.assign(cap, 0);
        region_.assign(cap, static_cast<std::uint8_t>(Region::App));
        mask_ = cap - 1;
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Append a fresh entry (flags 0, address unknown); returns its
     *  logical index. */
    std::size_t
    pushBack(SeqNum seq, Region region, bool wrongPath)
    {
        SPB_ASSERT(count_ <= mask_, "SB ring overflow");
        const std::size_t p = (head_ + count_) & mask_;
        seq_[p] = seq;
        addr_[p] = kInvalidAddr;
        size_[p] = 0;
        flags_[p] = wrongPath ? sbflags::kWrongPath : std::uint8_t{0};
        region_[p] = static_cast<std::uint8_t>(region);
        return count_++;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void popBack() { --count_; }

    /** Remove logical entry @p i, sliding everything younger down one
     *  slot (rare: only the coalescing merge uses it). */
    void
    eraseAt(std::size_t i)
    {
        for (std::size_t j = i + 1; j < count_; ++j) {
            const std::size_t d = phys(j - 1);
            const std::size_t s = phys(j);
            seq_[d] = seq_[s];
            addr_[d] = addr_[s];
            size_[d] = size_[s];
            flags_[d] = flags_[s];
            region_[d] = region_[s];
        }
        --count_;
    }

    /** Logical index of @p seq, or npos. */
    std::size_t
    indexOf(SeqNum seq) const
    {
        for (std::size_t i = 0; i < count_; ++i)
            if (seq_[phys(i)] == seq)
                return i;
        return npos;
    }

    SeqNum seq(std::size_t i) const { return seq_[phys(i)]; }
    Addr &addr(std::size_t i) { return addr_[phys(i)]; }
    Addr addr(std::size_t i) const { return addr_[phys(i)]; }
    unsigned &sizeBytes(std::size_t i) { return size_[phys(i)]; }
    unsigned sizeBytes(std::size_t i) const { return size_[phys(i)]; }
    std::uint8_t &flags(std::size_t i) { return flags_[phys(i)]; }
    std::uint8_t flags(std::size_t i) const { return flags_[phys(i)]; }
    Region region(std::size_t i) const
    {
        return static_cast<Region>(region_[phys(i)]);
    }

  private:
    std::size_t phys(std::size_t i) const { return (head_ + i) & mask_; }

    std::vector<SeqNum> seq_;
    std::vector<Addr> addr_;
    std::vector<unsigned> size_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint8_t> region_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
};

} // namespace spburst
