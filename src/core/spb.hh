/**
 * @file
 * Store-Prefetch Burst (SPB) — the paper's contribution.
 *
 * SPB watches the stream of *committing* stores with three registers
 * (67 bits total in the paper's configuration):
 *
 *   - last block   (58 bits): block address of the last committed store;
 *   - sat. counter  (4 bits): saturating count of consecutive-block
 *                             transitions (delta == +1) in the window;
 *   - store count   (5 bits): committed stores in the current window.
 *
 * Every N committed stores (N = 48 by default, Sec. IV-C) the counter
 * is compared against N/8 — the number of distinct blocks that N
 * contiguous 8-byte stores cover. On a match, SPB predicts a store
 * burst and asks the L1D controller for write permission for every
 * remaining block of the current page, forwards only, in one burst of
 * GetPFx requests.
 *
 * A dynamic-threshold variant (Sec. IV-C) replaces the fixed N/8 with
 * N/S, where S adapts to the store sizes seen in the window; the paper
 * found it inferior due to adaptation hysteresis, and this
 * implementation reproduces it for the ablation bench.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"
#include "trace/uop.hh"

namespace spburst
{

class CacheController;

/** SPB configuration. */
struct SpbParams
{
    /** Window length N: the saturating counter is checked every N
     *  committed stores. The paper evaluates 8..64 and picks 48. */
    unsigned checkInterval = 48;

    /** Sec. IV-C variant: test against N/S with S adapted to the
     *  store sizes of the window instead of the fixed N/8. */
    bool dynamicThreshold = false;

    /**
     * Extension the paper describes but declines (Sec. IV-A): also
     * detect *descending* contiguous patterns (stack writes) and burst
     * backwards to the start of the page. Costs one more 4-bit
     * saturating counter. Off by default, as in the paper; the
     * `ablation_extensions` bench quantifies it.
     */
    bool backwardBursts = false;

    /** Saturating-counter ceiling (4 bits in the paper). */
    unsigned counterMax = 15;
};

/** Counters describing detector behaviour. */
struct SpbStats
{
    std::uint64_t storesObserved = 0;
    std::uint64_t windowChecks = 0;  //!< every N stores
    std::uint64_t bursts = 0;        //!< windows that fired
    std::uint64_t backwardBursts = 0; //!< subset fired by the extension
    std::uint64_t blocksRequested = 0; //!< GetPFx sent across all bursts
    std::uint64_t endOfPageSuppressed = 0; //!< fired with 0 blocks left
};

/** A burst decision: prefetch @p count blocks starting at @p firstBlock. */
struct SpbBurst
{
    Addr firstBlock = 0;
    unsigned count = 0;
};

/**
 * Compute the page-bounded burst for a store to @p addr: all blocks of
 * the page strictly after the store's block (forwards only, never
 * crossing the page boundary).
 */
SpbBurst computeBurst(Addr addr);

/**
 * Backward-burst variant: all blocks of the page strictly before the
 * store's block (used by the backwardBursts extension).
 */
SpbBurst computeBackwardBurst(Addr addr);

/** Architectural register contents of an SpbDetector — everything the
 *  detector carries between stores, excluding statistics. Used by the
 *  sampling subsystem to warm the detector functionally and transplant
 *  its state into the detailed core (see src/sample). */
struct SpbDetectorState
{
    Addr lastBlock = 0;
    Addr lastAddr = kInvalidAddr;
    unsigned satCounter = 0;
    unsigned backwardCounter = 0;
    unsigned storeCount = 0;
    std::uint64_t windowBytes = 0;

    bool operator==(const SpbDetectorState &) const = default;
};

/** The 67-bit detection state machine. */
class SpbDetector
{
  public:
    explicit SpbDetector(const SpbParams &params);

    /**
     * Observe one committing store.
     *
     * @param addr Full byte address of the store.
     * @param size Store size in bytes (used by the dynamic variant).
     * @return Burst to issue; count == 0 means "no burst".
     */
    SpbBurst onStoreCommit(Addr addr, unsigned size);

    // State accessors (tests and the running example).
    Addr lastBlock() const { return regs_.lastBlock; }
    unsigned satCounter() const { return regs_.satCounter; }
    unsigned backwardCounter() const { return regs_.backwardCounter; }
    unsigned storeCount() const { return regs_.storeCount; }

    /** Copy out the architectural registers (statistics excluded). */
    SpbDetectorState architecturalState() const { return regs_; }

    /** Overwrite the architectural registers (statistics untouched). */
    void
    restoreArchitecturalState(const SpbDetectorState &state)
    {
        regs_ = state;
    }

    /** Storage cost in bits: 58 + 4 + ceil(log2(N)) (+4 with the
     *  backward extension). */
    unsigned storageBits() const;

    const SpbStats &stats() const { return stats_; }

  private:
    SpbParams params_;
    /** Every register the detector carries between stores, in one
     *  struct so that snapshot and restore copy all of them. */
    SpbDetectorState regs_;
    /** Measurement counters, outside the architectural state by design
     *  (the paper reports them per measurement interval). */
    SpbStats stats_;
};

/**
 * Glue between the commit stage and the L1D controller: feeds the
 * detector and turns its decisions into burst enqueues.
 */
class SpbEngine
{
  public:
    /**
     * @param params Detector configuration.
     * @param l1d    The core's L1D controller (burst sink); may be
     *               nullptr in detector-only unit tests.
     * @param core   Core id stamped on burst requests.
     */
    SpbEngine(const SpbParams &params, CacheController *l1d, int core);

    /** Hook called by the store buffer when a store commits. */
    void onStoreCommit(Addr addr, unsigned size, Region region);

    const SpbDetector &detector() const { return detector_; }
    const SpbStats &stats() const { return detector_.stats(); }

    /** Transplant functionally-warmed detector registers (sampling). */
    void
    restoreDetectorState(const SpbDetectorState &state)
    {
        detector_.restoreArchitecturalState(state);
    }

  private:
    SpbDetector detector_;
    CacheController *l1d_;
    int core_;
};

} // namespace spburst
