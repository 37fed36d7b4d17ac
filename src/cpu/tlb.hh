/**
 * @file
 * Data TLB model (Table I lists an 8-way, 1 KiB TLB).
 *
 * Address translation is identity in this simulator (virtual ==
 * physical), so the TLB contributes *timing* only: a miss charges a
 * page-walk latency to the access that triggered it. The TLB is also
 * the architectural reason SPB bursts stop at page boundaries — the
 * next virtual page may map anywhere.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace spburst
{

/** TLB configuration. */
struct TlbParams
{
    unsigned entries = 64;   //!< total entries (8-way x 8 sets)
    unsigned ways = 8;
    Cycle walkLatency = 50;  //!< page-walk penalty on a miss
    bool enabled = true;
};

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/** Point-in-time copy of the valid TLB entries and use clock; the
 *  sampling subsystem transplants warmed translations into the
 *  detailed core at each window start (see src/sample). */
struct TlbSnapshot
{
    struct Entry
    {
        std::uint32_t index = 0; //!< position in the set-major array
        Addr page = 0;
        std::uint64_t lastUse = 0;
    };
    std::uint64_t useClock = 0;
    std::vector<Entry> entries; //!< valid entries only, index-ascending
};

/** Set-associative, LRU data TLB. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Translate the page of @p vaddr.
     * @return Extra access latency: 0 on a hit, walkLatency on a miss
     *         (the entry is filled).
     */
    Cycle access(Addr vaddr);

    /** Non-timing presence probe (tests). */
    bool probe(Addr vaddr) const;

    /** Copy out the valid entries and use clock. */
    TlbSnapshot snapshotEntries() const;

    /** Replace all entries with @p snap (statistics untouched). */
    void restoreEntries(const TlbSnapshot &snap);

    const TlbStats &stats() const { return stats_; }
    const TlbParams &params() const { return params_; }

  private:
    struct Entry
    {
        Addr page = kInvalidAddr;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t setIndex(Addr page) const;

    // Construction-time geometry, identical in the warming and detailed
    // Tlb by construction.
    TlbParams params_;
    unsigned sets_;
    std::vector<Entry> entries_; // set-major
    std::uint64_t useClock_ = 0;
    // Measurement counters, reset at interval boundaries by the
    // sampling driver, not warm state.
    TlbStats stats_;
};

} // namespace spburst
