/**
 * @file
 * DSPatch: Dual Spatial Pattern prefetcher (Bera et al., MICRO 2019;
 * PAPERS.md arXiv:1910.03075), adapted to this simulator's L2.
 *
 * DSPatch learns, per physical 4 KiB page, the bit-pattern of cache
 * blocks a program touches between the first access to the page (the
 * "trigger") and the page's eviction from a small page buffer (one
 * "generation"). Two patterns are kept side by side:
 *
 *  - CovP, the coverage-biased pattern: OR-accumulated across
 *    generations, so it grows toward everything the page ever needed.
 *  - AccP, the accuracy-biased pattern: AND-accumulated, so it shrinks
 *    toward the blocks touched in *every* generation.
 *
 * Each pattern carries a 2-bit quality counter measured at generation
 * end (did the pattern's prediction actually cover / stay accurate?),
 * and the choice between them is modulated by measured DRAM bandwidth
 * utilization: with headroom DSPatch prefetches the aggressive CovP,
 * under pressure it falls back to the conservative AccP (or nothing).
 *
 * Patterns are stored anchored (rotated) to the trigger block so a page
 * re-entered at a different offset still matches its learned footprint.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.hh"
#include "common/types.hh"
#include "mem/dram.hh"
#include "mem/prefetcher_iface.hh"

namespace spburst
{

/** Tuning knobs of the DSPatch prefetcher. */
struct DSPatchParams
{
    std::size_t pageBufferEntries = 32; //!< active-page tracking slots
    std::size_t tableEntries = 256;     //!< pattern table (direct-mapped)
    unsigned qualityMax = 3;            //!< 2-bit quality counter cap
    unsigned qualityInit = 2;           //!< quality of a fresh pattern
    unsigned maxDegree = 16;            //!< prefetches per trigger cap
    Cycle bwEpochCycles = 4096;         //!< bandwidth sampling period
    unsigned bwHighLevel = 2;           //!< quantized level >= this: high
};

/** Learning-side statistics of a DSPatchPrefetcher (tests/diagnostics);
 *  the issued/useful/late/pollution counters live in the inherited
 *  PrefetcherStats block. */
struct DSPatchLearnStats
{
    std::uint64_t triggers = 0;      //!< first-access-to-page events
    std::uint64_t patternHits = 0;   //!< triggers with a learned pattern
    std::uint64_t generations = 0;   //!< page generations closed
    std::uint64_t covPredictions = 0; //!< triggers that used CovP
    std::uint64_t accPredictions = 0; //!< triggers that used AccP
    std::uint64_t suppressed = 0;    //!< pattern hit, both qualities 0
    std::uint64_t bwEpochs = 0;      //!< bandwidth epochs sampled
    std::uint64_t bwHighEpochs = 0;  //!< ... that measured high usage
};

/** The dual-spatial-pattern prefetch engine. */
class DSPatchPrefetcher : public PrefetcherIface
{
  public:
    explicit DSPatchPrefetcher(
        const DSPatchParams &params = DSPatchParams{});

    const char *name() const override { return "dspatch"; }
    void notifyAccess(const MemRequest &req, bool hit,
                      std::vector<Addr> &out) override;

    /**
     * Attach the DRAM bandwidth probe. Both pointers are observed, not
     * owned; utilization is computed from simulated state only (read /
     * write counters against elapsed cycles), so runs stay
     * deterministic. Without a probe DSPatch assumes low bandwidth.
     */
    void setDramProbe(const DramModel *dram, const SimClock *clock);

    /** Close every open page generation (end-of-run or tests). */
    void flush();

    const DSPatchLearnStats &learning() const { return learn_; }

    /** Last quantized bandwidth utilization level (0..3). */
    unsigned bwLevel() const { return bwLevel_; }

    /** Snapshot of one pattern-table entry (tests/diagnostics). */
    struct PatternView
    {
        bool valid = false;
        std::uint64_t covPattern = 0; //!< anchored to the trigger block
        std::uint64_t accPattern = 0;
        unsigned covQuality = 0;
        unsigned accQuality = 0;
    };
    PatternView lookupPattern(Addr page) const;

  private:
    /** One active page generation. */
    struct PageEntry
    {
        Addr page = kInvalidAddr;
        std::uint64_t accessed = 0;  //!< block bitmap, bit = page index
        std::uint64_t predicted = 0; //!< bitmap we prefetched (anchored
                                     //!< to real indices, not rotated)
        unsigned triggerIndex = 0;   //!< block index of the first access
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** One learned dual pattern, tagged by page number. */
    struct PatternEntry
    {
        Addr page = kInvalidAddr;
        std::uint64_t covPattern = 0; //!< OR-accumulated, anchored
        std::uint64_t accPattern = 0; //!< AND-accumulated, anchored
        unsigned covQuality = 0;
        unsigned accQuality = 0;
        bool valid = false;
    };

    PageEntry *findPage(Addr page);
    PageEntry *victimPage();
    PatternEntry &tableSlot(Addr page);
    void closeGeneration(PageEntry &entry);
    void predictOnTrigger(PageEntry &entry, std::vector<Addr> &out);
    void sampleBandwidth();

    DSPatchParams params_;
    std::vector<PageEntry> pageBuffer_;
    std::vector<PatternEntry> table_;
    std::uint64_t useClock_ = 0;

    // DRAM bandwidth probe (epoch deltas of simulated counters).
    const DramModel *dram_ = nullptr;
    const SimClock *clock_ = nullptr;
    Cycle epochStart_ = 0;
    std::uint64_t epochTransfers_ = 0;
    unsigned bwLevel_ = 0;

    DSPatchLearnStats learn_;
};

} // namespace spburst
