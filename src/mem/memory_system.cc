#include "mem/memory_system.hh"

#include "common/logging.hh"

namespace spburst
{

MemSystemParams
MemSystemParams::tableI(int cores)
{
    MemSystemParams p;
    p.l1d = CacheParams{"l1d", CacheGeometry{32 * 1024, 8}, 4, 64, 8, 2, 64};
    p.l2 = CacheParams{"l2", CacheGeometry{1 << 20, 16}, 14, 64, 8, 4, 64};
    p.l3 =
        CacheParams{"l3", CacheGeometry{16 << 20, 16}, 36, 64, 8, 4, 64};
    p.cores = cores;
    return p;
}

MemorySystem::MemorySystem(const MemSystemParams &params, SimClock *clock)
    : params_(params),
      clock_(clock),
      dram_(params.dram, clock),
      dramLevel_(&dram_, clock)
{
    if (params.cores < 1 || params.cores > 64)
        SPB_FATAL("unsupported core count %d (1..64)", params.cores);

    l3_ = std::make_unique<CacheController>(params_.l3, clock_,
                                            &dramLevel_, -1, false);

    if (params_.cores > 1) {
        dir_ = std::make_unique<DirectoryController>(params_.remoteLatency);
        l3_->setDirectory(dir_.get());
    }

    for (int c = 0; c < params_.cores; ++c) {
        icn_.push_back(std::make_unique<Interconnect>(
            l3_.get(), params_.l2ToL3Latency, clock_));

        CacheParams l2p = params_.l2;
        l2p.name = params_.l2.name + std::to_string(c);
        l2_.push_back(std::make_unique<CacheController>(
            l2p, clock_, icn_.back().get(), c, false));

        CacheParams l1p = params_.l1d;
        l1p.name = params_.l1d.name + std::to_string(c);
        l1d_.push_back(std::make_unique<CacheController>(
            l1p, clock_, l2_.back().get(), c, true));

        // Inclusion: evicting an L2 block removes the L1 copy.
        CacheController *l1 = l1d_.back().get();
        l2_.back()->setBackInvalidate(
            [l1](Addr addr) { return l1->invalidateBlock(addr); });

        if (dir_)
            dir_->addCore(CorePorts{l1d_.back().get(), l2_.back().get()});
    }

    // Inclusion at the LLC: evicting an L3 block removes all private
    // copies; a dirty private copy makes the eviction a writeback.
    l3_->setBackInvalidate([this](Addr addr) {
        bool dirty = false;
        for (int c = 0; c < params_.cores; ++c) {
            dirty |= l1d_[c]->invalidateBlock(addr);
            dirty |= l2_[c]->invalidateBlock(addr);
        }
        return dirty;
    });

    // The SWMR / MSHR-drain auditor watches every controller; the
    // directory notifies it after each coherence transaction when
    // --check=full is active.
    std::vector<const CacheController *> audited;
    for (const auto &l1 : l1d_)
        audited.push_back(l1.get());
    for (const auto &l2 : l2_)
        audited.push_back(l2.get());
    audited.push_back(l3_.get());
    auditor_ = std::make_unique<CoherenceAuditor>(dir_.get(),
                                                  std::move(audited));
    if (dir_)
        dir_->setAuditor(auditor_.get());
}

void
MemorySystem::finalizeStats()
{
    for (auto &l1 : l1d_)
        l1->finalizeStats();
    for (auto &l2 : l2_)
        l2->finalizeStats();
    l3_->finalizeStats();
}

} // namespace spburst
