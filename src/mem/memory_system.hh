/**
 * @file
 * Facade that wires the full memory hierarchy of a simulated system:
 * per-core L1D and private L2, a shared L3 (with a MESI directory when
 * there is more than one core), and DRAM — the Table I configuration
 * of the paper.
 */

#pragma once

#include <memory>
#include <vector>

#include "common/clock.hh"
#include "common/stats.hh"
#include "mem/cache_controller.hh"
#include "mem/coherence_audit.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/dram_level.hh"
#include "mem/interconnect.hh"

namespace spburst
{

/** Hierarchy-wide configuration. */
struct MemSystemParams
{
    CacheParams l1d;
    CacheParams l2;
    CacheParams l3;
    DramParams dram;
    Cycle l2ToL3Latency = 6;  //!< interconnect one-way hop
    Cycle remoteLatency = 30; //!< directory probe round trip
    int cores = 1;

    /** Table I defaults: 32KB/8w L1D (4c), 1MB/16w L2 (14c),
     *  16MB/16w L3 (36c), 64 MSHRs per cache. */
    static MemSystemParams tableI(int cores = 1);
};

/** A complete, wired memory hierarchy. */
class MemorySystem
{
  public:
    MemorySystem(const MemSystemParams &params, SimClock *clock);

    /** Per-core L1 data cache (the CPU-facing controller). */
    CacheController &l1d(int core) { return *l1d_.at(core); }
    const CacheController &l1d(int core) const { return *l1d_.at(core); }

    /** Per-core private L2. */
    CacheController &l2(int core) { return *l2_.at(core); }

    /** Shared L3. */
    CacheController &l3() { return *l3_; }
    const CacheController &l3() const { return *l3_; }

    /** Main memory. */
    DramModel &dram() { return dram_; }
    const DramModel &dram() const { return dram_; }

    /** MESI directory; nullptr on single-core systems. */
    DirectoryController *directory() { return dir_.get(); }

    int cores() const { return params_.cores; }

    /** The hierarchy's SWMR / MSHR auditor (always present; the SWMR
     *  portion is inert on single-core systems). */
    CoherenceAuditor &auditor() { return *auditor_; }

    /** Fold end-of-run prefetch residue into the stats. */
    void finalizeStats();

  private:
    MemSystemParams params_;
    SimClock *clock_;
    DramModel dram_;
    DramLevel dramLevel_;
    std::unique_ptr<CacheController> l3_;
    std::unique_ptr<DirectoryController> dir_;
    std::vector<std::unique_ptr<Interconnect>> icn_;
    std::vector<std::unique_ptr<CacheController>> l2_;
    std::vector<std::unique_ptr<CacheController>> l1d_;
    std::unique_ptr<CoherenceAuditor> auditor_;
};

} // namespace spburst
