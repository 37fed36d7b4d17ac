/**
 * @file
 * Set-associative cache tag/data array with LRU replacement.
 *
 * This class is purely structural (lookup / insert / evict / state);
 * all timing, MSHRs, and hierarchy logic live in CacheController.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/coherence.hh"
#include "mem/request.hh"

namespace spburst
{

/** One cache block frame. */
struct CacheBlk
{
    Addr tag = 0;                        //!< block address (full, aligned)
    CohState state = CohState::Invalid;  //!< MESI state
    std::uint64_t lastTouch = 0;         //!< LRU timestamp
    bool prefetched = false;             //!< filled by a prefetch
    bool prefetchUsed = false;           //!< demand-referenced since fill
    MemCmd fillCmd = MemCmd::ReadReq;    //!< command that caused the fill

    bool operator==(const CacheBlk &) const = default;
};

/** Geometry of a cache. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (kBlockSize * ways);
    }
};

/**
 * The frames of one cache that changed since its change bits were
 * last cleared, with the LRU clock. Invalid frames are included, so
 * applying a delta replays evictions too. Sampled runs record one per
 * level and window into architectural checkpoints (see src/sample).
 */
struct CacheTagDelta
{
    struct Frame
    {
        std::uint32_t index = 0; //!< position in frames()
        Addr tag = 0;
        CohState state = CohState::Invalid;
        std::uint64_t lastTouch = 0;
    };
    std::uint64_t lruClock = 0;
    std::vector<Frame> frames; //!< changed frames, index-ascending
};

/** Structural set-associative cache with LRU replacement. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geometry);

    /** Find the frame holding @p block_addr, or nullptr. Does NOT touch
     *  LRU state; call touch() on a real access. */
    CacheBlk *find(Addr block_addr);
    const CacheBlk *find(Addr block_addr) const;

    /** Promote a block to MRU. */
    void touch(CacheBlk &blk);

    /**
     * Choose a victim frame in @p block_addr's set: an invalid frame if
     * one exists, otherwise the LRU block. The caller is responsible
     * for writing back the victim if dirty and then overwriting it.
     */
    CacheBlk &victim(Addr block_addr);

    /** Install @p block_addr into @p frame with the given state. */
    void fill(CacheBlk &frame, Addr block_addr, CohState state);

    /** Invalidate a block if present; returns true if it was dirty. */
    bool invalidate(Addr block_addr);

    /** Number of valid blocks (for tests / occupancy stats). */
    std::uint64_t validCount() const;

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** All frames (set-major); for stats finalisation and tests. */
    const std::vector<CacheBlk> &frames() const { return frames_; }

    // Change tracking for sampled runs. Every frame has a change bit,
    // set by the non-const find() on a hit and by victim() on the frame
    // it returns: every mutation of a frame goes through a pointer or
    // reference one of the two handed out. The const find() marks
    // nothing.

    /** The frames marked since the last clearChanges(), as a delta. */
    CacheTagDelta snapshotChanges() const;

    /** Write @p delta's frames (marking them) and its LRU clock.
     *  Prefetch metadata of the written frames is cleared. */
    void applyDelta(const CacheTagDelta &delta);

    /**
     * Make this array equal @p image frame for frame, under the
     * transplant normalisation: an invalid image frame becomes
     * CacheBlk{}, a valid one keeps tag, state and LRU stamp and loses
     * its prefetch metadata (functional warming models demand traffic
     * only). Only frames marked in either array are copied: the others
     * are still equal as of the previous restoreFrom() (or of
     * construction), provided the image clears its bits only right
     * after it was copied from. Copies the LRU clock and clears this
     * array's change bits, not the image's.
     */
    void restoreFrom(const SetAssocCache &image);

    /** True if every frame equals @p image's under the transplant
     *  normalisation and the LRU clocks match: the full-copy reference
     *  that --check=full holds restoreFrom() to. */
    bool equalsTransplantOf(const SetAssocCache &image) const;

    /** Clear every change bit. */
    void clearChanges();

    /** Set index of an address (for conflict analysis in tests). */
    std::uint64_t
    setIndex(Addr block_addr) const
    {
        return blockNumber(block_addr) % sets_;
    }

  private:
    // Construction-time geometry, identical across the warming and
    // detailed hierarchies.
    std::uint64_t sets_;
    std::uint32_t ways_;
    std::vector<CacheBlk> frames_; // sets_ * ways_, set-major
    std::uint64_t clock_ = 0;      // LRU timestamp source
    // Host bookkeeping of which frames changed, not simulated state.
    std::vector<std::uint64_t> changed_; // one bit per frame

    /** Index of the frame holding @p block_addr, or frames_.size(). */
    std::size_t lookup(Addr block_addr) const;

    void
    markChanged(std::size_t frame)
    {
        changed_[frame >> 6] |= std::uint64_t{1} << (frame & 63);
    }
};

} // namespace spburst
