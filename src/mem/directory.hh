/**
 * @file
 * Directory-based MESI coherence for multicore systems.
 *
 * The directory lives beside the shared L3 and tracks, per block, which
 * cores' private hierarchies may hold a copy and which core (if any)
 * owns it. Ownership requests (GetX / WritePF / GetPFx) invalidate
 * remote copies; reads downgrade a remote owner. Remote probes cost a
 * fixed round-trip latency, charged to the requester.
 *
 * Sharer information can be stale after silent private evictions; a
 * probe to a core that no longer holds the block is a harmless no-op
 * (the latency is charged regardless, a conservative approximation).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/block_map.hh"
#include "mem/cache_controller.hh"
#include "mem/request.hh"

namespace spburst
{

class CoherenceAuditor;

/** Per-core private hierarchy handles the directory can probe. */
struct CorePorts
{
    CacheController *l1d = nullptr;
    CacheController *l2 = nullptr;
};

/** Directory statistics. */
struct DirectoryStats
{
    std::uint64_t invalidations = 0;   //!< remote copies invalidated
    std::uint64_t invalidationsBySpb = 0; //!< caused by SPB bursts
    std::uint64_t downgrades = 0;      //!< M -> S on remote read
    std::uint64_t dirtyProbes = 0;     //!< probes that hit dirty data
};

/** MESI directory attached to the shared L3. */
class DirectoryController
{
  public:
    explicit DirectoryController(Cycle remote_latency);

    /** Register one core's private hierarchy (in core-id order). */
    void addCore(const CorePorts &ports);

    /**
     * Resolve coherence for a request about to be satisfied at the
     * shared level: invalidate or downgrade remote private copies and
     * update the directory.
     *
     * @param req The request (core + command).
     * @param[out] grant_ownership For reads: true if the block may be
     *             returned Exclusive (no other sharer). Ownership
     *             requests always end up granted.
     * @return Extra cycles of latency (remote probes) to charge.
     */
    Cycle resolve(const MemRequest &req, bool &grant_ownership);

    /** The shared level evicted this block (inclusion enforcement has
     *  already invalidated private copies). */
    void evicted(Addr block_addr);

    const DirectoryStats &stats() const { return stats_; }

    /** Directory view of a block (for invariant tests). */
    struct Entry
    {
        std::uint64_t sharers = 0; //!< bitmask of cores
        int owner = -1;            //!< core with E/M, or -1
    };

    /** Lookup for tests; returns a default entry if untracked. */
    Entry lookup(Addr block_addr) const;

    /** Registered per-core ports (for the SWMR auditor). */
    const std::vector<CorePorts> &ports() const { return cores_; }

    /** Every tracked block, ascending (for the full SWMR sweep). */
    std::vector<Addr> trackedBlocks() const { return dir_.sortedKeys(); }

    /** Attach the SWMR auditor (notified after each transaction in
     *  --check=full mode). */
    void setAuditor(CoherenceAuditor *auditor) { auditor_ = auditor; }

  private:
    Cycle remoteLatency_;
    std::vector<CorePorts> cores_;
    BlockMap<Entry> dir_;
    CoherenceAuditor *auditor_ = nullptr;
    DirectoryStats stats_;
};

} // namespace spburst
