#include "mem/directory.hh"

#include "check/check.hh"
#include "common/logging.hh"
#include "mem/coherence_audit.hh"

namespace spburst
{

DirectoryController::DirectoryController(Cycle remote_latency)
    : remoteLatency_(remote_latency)
{
}

void
DirectoryController::addCore(const CorePorts &ports)
{
    SPB_ASSERT(ports.l1d && ports.l2, "directory core ports incomplete");
    SPB_ASSERT(cores_.size() < 64, "directory supports up to 64 cores");
    cores_.push_back(ports);
}

Cycle
DirectoryController::resolve(const MemRequest &req, bool &grant_ownership)
{
    const Addr addr = blockAlign(req.blockAddr);
    SPB_ASSERT(req.core >= 0 &&
                   static_cast<std::size_t>(req.core) < cores_.size(),
               "request from unregistered core %d", req.core);
    Entry &e = dir_[addr];
    const std::uint64_t cbit = 1ULL << req.core;
    Cycle extra = 0;

    if (wantsOwnership(req.cmd)) {
        const std::uint64_t others = e.sharers & ~cbit;
        if (others != 0) {
            for (std::size_t c = 0; c < cores_.size(); ++c) {
                if (!(others & (1ULL << c)))
                    continue;
                bool dirty = cores_[c].l1d->invalidateBlock(addr);
                dirty |= cores_[c].l2->invalidateBlock(addr);
                if (dirty)
                    ++stats_.dirtyProbes;
                ++stats_.invalidations;
                if (req.cmd == MemCmd::SpbPF)
                    ++stats_.invalidationsBySpb;
            }
            extra = remoteLatency_;
        }
        e.sharers = cbit;
        e.owner = req.core;
        grant_ownership = true;
        if (auditor_ && check::full())
            auditor_->onTransaction(addr);
        return extra;
    }

    // Read: a remote owner must be downgraded to Shared first.
    if (e.owner != -1 && e.owner != req.core) {
        const auto o = static_cast<std::size_t>(e.owner);
        bool dirty = cores_[o].l1d->downgradeBlock(addr);
        dirty |= cores_[o].l2->downgradeBlock(addr);
        if (dirty)
            ++stats_.dirtyProbes;
        ++stats_.downgrades;
        e.owner = -1;
        extra = remoteLatency_;
    }
    const bool sole = (e.sharers & ~cbit) == 0;
    e.sharers |= cbit;
    grant_ownership = sole;
    if (sole)
        e.owner = req.core;
    if (auditor_ && check::full())
        auditor_->onTransaction(addr);
    return extra;
}

void
DirectoryController::evicted(Addr block_addr)
{
    dir_.erase(blockAlign(block_addr));
}

DirectoryController::Entry
DirectoryController::lookup(Addr block_addr) const
{
    const Entry *e = dir_.find(blockAlign(block_addr));
    return e ? *e : Entry{};
}

} // namespace spburst
