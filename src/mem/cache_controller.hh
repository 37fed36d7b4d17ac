/**
 * @file
 * Timed cache controller: tags + MSHRs + prefetch/burst queues for one
 * cache level, chained to the level below through the MemLevel
 * interface.
 *
 * The L1D instance is where the paper's mechanisms meet: demand loads,
 * store-buffer drains (which need MESI ownership), at-commit/at-execute
 * write-prefetches (WritePF, discarded as "PopReq" when the block is
 * already present or in flight), SPB burst elements (GetPFx, rate-
 * limited through a burst queue), and the L1 cache prefetcher.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/level.hh"
#include "mem/mshr.hh"
#include "mem/prefetcher_iface.hh"
#include "mem/request.hh"

namespace spburst
{

class DirectoryController;

/** Configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    CacheGeometry geometry;
    Cycle hitLatency = 4;              //!< lookup-to-data on a hit
    std::size_t mshrs = 64;            //!< outstanding misses
    std::size_t demandReservedMshrs = 8; //!< MSHRs prefetches may not use
    std::uint32_t prefetchIssuePerCycle = 2; //!< PF/burst tag checks per cycle
    std::size_t prefetchQueueCap = 64; //!< pending WritePF/ReadPF backlog
};

/** Event counters for one cache level. */
struct CacheStats
{
    // Array activity.
    std::uint64_t tagAccesses = 0;
    std::uint64_t tagAccessesPrefetch = 0; //!< REQ in Fig. 12/13
    std::uint64_t dataAccesses = 0;

    // Demand traffic.
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t wrongPathLoads = 0;
    std::uint64_t storeOwnHits = 0;  //!< SB drain found E/M
    std::uint64_t storeOwnMisses = 0; //!< SB drain needed a GetX
    std::uint64_t upgrades = 0;      //!< S -> E/M permission misses
    std::uint64_t loadMissCycles = 0; //!< aggregate demand-load miss wait

    // Prefetch traffic (store prefetches + cache prefetcher).
    std::uint64_t pfIssued = 0;     //!< forwarded below (MISS in Fig. 12)
    std::uint64_t pfDiscarded = 0;  //!< PopReq: present or in flight
    std::uint64_t pfDroppedFull = 0; //!< queue/MSHR pressure drops
    std::uint64_t spbIssued = 0;    //!< subset of pfIssued from bursts
    std::uint64_t spbDiscarded = 0;

    // Fill / eviction activity.
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacksOut = 0;
    std::uint64_t writebacksIn = 0;
    std::uint64_t evictPrefetchedUnused = 0;

    // Store-prefetch outcome classification (paper Fig. 11).
    std::uint64_t pfSuccessful = 0; //!< drain hit a prefetched block
    std::uint64_t pfLate = 0;       //!< drain merged into in-flight PF
    std::uint64_t pfEarly = 0;      //!< prefetched, evicted, then needed
    std::uint64_t pfNeverUsed = 0;  //!< prefetched, never demanded
    std::uint64_t loadHitOnStorePf = 0; //!< super-linear side effect

    // Contention.
    std::uint64_t mshrDemandRetries = 0;

    /** Export as named values. */
    StatSet toStatSet() const;
};

/** A timed, MSHR-based cache level. */
class CacheController : public MemLevel
{
  public:
    /**
     * @param params Geometry and timing.
     * @param clock  Shared simulation clock.
     * @param below  Next level (another controller, an interconnect, or
     *               the DRAM adapter).
     * @param core   Owning core (-1 for shared levels).
     * @param is_l1d Enables L1D-only behaviour: prefetcher hooks, store
     *               prefetch classification, burst queue.
     */
    CacheController(const CacheParams &params, SimClock *clock,
                    MemLevel *below, int core, bool is_l1d);

    // MemLevel interface (called by the level above).
    void request(const MemRequest &req, FillCallback done) override;
    void writeback(Addr block_addr, int core) override;

    // ---- CPU-facing API (L1D instances) ----

    /** Demand load; @p done runs when data is available. */
    void issueLoad(const MemRequest &req, MemCallback done);

    /** Drain the SB head: obtain ownership if needed, perform the
     *  write (block becomes M), then run @p done. */
    void drainStore(const MemRequest &req, MemCallback done);

    /** Queue an at-commit / at-execute write-prefetch (WritePF). */
    void issueStorePrefetch(const MemRequest &req);

    /** Queue an SPB burst: @p count consecutive blocks starting at
     *  @p first_block (GetPFx each, paced by prefetchIssuePerCycle). */
    void enqueueBurst(Addr first_block, unsigned count, int core,
                      Region region);

    /** Non-timing ownership probe (no stats side effects). */
    bool probeOwned(Addr addr) const;

    /** Non-timing presence probe. */
    bool probeValid(Addr addr) const;

    // ---- wiring ----

    /** Attach the L1 cache prefetcher (L1D only). */
    void setPrefetcher(PrefetcherIface *pf) { prefetcher_ = pf; }

    /** Attach the MESI directory (shared L3 of a multicore system). */
    void setDirectory(DirectoryController *dir) { directory_ = dir; }

    /**
     * Called when this level evicts a valid block, so the system can
     * enforce inclusion by invalidating upper-level copies. Returns
     * true if any upper copy was dirty (the eviction then writes back).
     */
    void setBackInvalidate(std::function<bool(Addr)> cb)
    {
        backInvalidate_ = std::move(cb);
    }

    /** Invalidate a block (coherence action); returns true if dirty. */
    bool invalidateBlock(Addr block_addr);

    /** Downgrade a block to Shared; returns true if it was dirty. */
    bool downgradeBlock(Addr block_addr);

    // ---- inspection ----

    const CacheStats &stats() const { return stats_; }
    const SetAssocCache &tags() const { return tags_; }
    const CacheParams &params() const { return params_; }

    /** Pending SPB burst elements not yet issued. */
    std::size_t burstBacklog() const { return burstQueue_.size(); }

    /** Pending WritePF/ReadPF queue entries not yet issued. */
    std::size_t prefetchBacklog() const { return prefetchQueue_.size(); }

    /** Outstanding misses. */
    std::size_t mshrInUse() const { return mshr_.inUse(); }

    /** Fold still-resident unused prefetches into pfNeverUsed. */
    void finalizeStats();

    /**
     * Make the tag array equal the functionally-warmed @p image
     * (sampling; see src/sample), copying only the frames either side
     * changed since the previous transplant (see
     * SetAssocCache::restoreFrom). Only legal while the controller is
     * idle — no outstanding misses, bursts or queued prefetches — i.e.
     * between a drained detailed window and the next one. Under
     * --check=full the result is compared with a full copy of the
     * image.
     */
    void restoreWarmTags(const SetAssocCache &image);

  private:
    /** Bounded FIFO of queued prefetch requests. Its storage is
     *  allocated at the first push and never grows, so controllers that
     *  never queue (the L3, an L2 without a prefetcher) allocate
     *  nothing, and the others allocate once. */
    class RequestFifo
    {
      public:
        explicit RequestFifo(std::size_t cap) : cap_(cap) {}

        std::size_t size() const { return count_; }
        bool empty() const { return count_ == 0; }
        bool full() const { return count_ >= cap_; }
        const MemRequest &front() const { return slots_[head_]; }

        void
        push(const MemRequest &req)
        {
            SPB_ASSERT(!full(), "prefetch FIFO overflow");
            if (slots_.empty())
                slots_.resize(cap_);
            std::size_t tail = head_ + count_;
            if (tail >= cap_)
                tail -= cap_;
            slots_[tail] = req;
            ++count_;
        }

        void
        pop()
        {
            if (++head_ == cap_)
                head_ = 0;
            --count_;
        }

      private:
        std::vector<MemRequest> slots_;
        std::size_t cap_;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    /** Result of attempting to issue one queued prefetch. */
    enum class PfIssueResult { Issued, Discarded, Retry };

    void handleFill(Addr block_addr, bool ownership);
    void completeTarget(MshrTarget &target, bool ownership, Cycle delay);
    void installBlock(Addr block_addr, bool ownership, MemCmd fill_cmd);
    void evictFrame(CacheBlk &frame);
    PfIssueResult tryIssuePrefetch(const MemRequest &req);
    void pump();
    void schedulePump();
    void forwardMiss(const MemRequest &req);
    void classifyStoreDemand(Addr block_addr, CacheBlk *blk);
    void recordDemandFeedback(Addr block_addr, CacheBlk *blk);
    void notifyPrefetcher(const MemRequest &req, bool hit);

    CacheParams params_;
    SimClock *clock_;
    MemLevel *below_;
    int core_;
    bool l1d_;
    SetAssocCache tags_;
    MshrFile mshr_;
    PrefetcherIface *prefetcher_ = nullptr;
    DirectoryController *directory_ = nullptr;
    std::function<bool(Addr)> backInvalidate_;

    RequestFifo prefetchQueue_; //!< WritePF/ReadPF, prefetchQueueCap
    RequestFifo burstQueue_;    //!< GetPFx, four pages' worth of blocks
    bool pumpScheduled_ = false;

    /** handleFill scratch: swapped with the filling MSHR entry's target
     *  list so neither vector's capacity is ever given back mid-run. */
    std::vector<MshrTarget> fillTargets_;

    /** notifyPrefetcher scratch: the prefetcher's wanted blocks. */
    std::vector<Addr> wanted_;

    /** Blocks whose store prefetch was evicted before first use; a
     *  later store demand reclassifies them as "early". */
    BlockSet evictedUnusedPf_;

    CacheStats stats_;
};

} // namespace spburst
