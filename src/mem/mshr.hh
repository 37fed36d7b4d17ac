/**
 * @file
 * Miss Status Holding Registers.
 *
 * One MSHR entry tracks one outstanding block miss at one cache level;
 * later requests to the same block merge as extra targets. The MSHR
 * count bounds the memory-level parallelism of a cache (64 per cache in
 * the paper's configuration) — it is what ultimately caps how much of
 * an SPB burst can be in flight at once.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/level.hh"
#include "mem/request.hh"

namespace spburst
{

/** A requester waiting on an in-flight miss. */
struct MshrTarget
{
    bool needsOwnership = false; //!< must wait for write permission
    bool isPrefetch = false;     //!< no one is architecturally waiting
    bool demandLoad = false;     //!< counts toward load miss latency
    Cycle queuedAt = 0;          //!< cycle the target joined the entry
    FillCallback done;           //!< completion callback (may be empty)
};

/** One outstanding miss. */
struct MshrEntry
{
    Addr blockAddr = kInvalidAddr;
    bool ownershipRequested = false; //!< in-flight request wants M/E
    bool lateCounted = false;   //!< already classified as a late prefetch
    /** The directory invalidated this block while its fill was still in
     *  flight: the fill must not install (readers complete with the
     *  pre-invalidation data; writers re-request ownership). */
    bool invalidatedInFlight = false;
    /** The directory downgraded the block mid-flight: any granted
     *  ownership is void; the fill installs Shared at most. */
    bool downgradedInFlight = false;
    MemCmd firstCmd = MemCmd::ReadReq; //!< command that allocated it
    Cycle allocCycle = 0;
    Cycle extraLatency = 0;     //!< coherence-hub latency (shared level)
    bool sharedGrant = true;    //!< hub's read-ownership decision
    std::vector<MshrTarget> targets;
};

/** Fixed-capacity MSHR file with block-address lookup.
 *
 *  Entries live in a fixed slot array recycled through a free list, and
 *  the lookup index is a dense array of the in-use block addresses
 *  (at most `capacity` long, scanned linearly, swap-removed on
 *  deallocate). All three are sized at construction, so
 *  allocate/find/deallocate never touch the heap and each slot's
 *  `targets` vector keeps its capacity across misses. Slot pointers
 *  stay valid until the entry is deallocated. */
class MshrFile
{
  public:
    /** Initial per-slot target capacity: one drain + a handful of
     *  merged loads/prefetches covers nearly every miss. */
    static constexpr std::size_t kTargetsReserve = 8;

    explicit MshrFile(std::size_t capacity);

    /** Entry for @p block_addr if a miss is outstanding, else nullptr. */
    MshrEntry *find(Addr block_addr);

    /**
     * Allocate an entry for a new miss.
     * @return the new entry, or nullptr if the file is full.
     */
    MshrEntry *allocate(Addr block_addr, MemCmd cmd, Cycle now);

    /** Release the entry for @p block_addr (must exist). */
    void deallocate(Addr block_addr);

    bool full() const { return liveAddrs_.size() >= capacity_; }
    std::size_t inUse() const { return liveAddrs_.size(); }
    std::size_t capacity() const { return capacity_; }

  private:
    /** Position of @p aligned in liveAddrs_, or liveAddrs_.size(). */
    std::size_t indexOf(Addr aligned) const;

    std::size_t capacity_;
    std::vector<MshrEntry> slots_;          //!< fixed; never reallocates
    std::vector<std::uint32_t> freeSlots_;  //!< LIFO recycling
    /** Block address of every entry in use, in no particular order;
     *  liveSlots_[i] is the slot of liveAddrs_[i]. */
    std::vector<Addr> liveAddrs_;
    std::vector<std::uint32_t> liveSlots_;
};

} // namespace spburst
