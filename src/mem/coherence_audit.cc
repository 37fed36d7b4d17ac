#include "mem/coherence_audit.hh"

#include <vector>

#include "check/check.hh"
#include "mem/cache_controller.hh"
#include "mem/directory.hh"

namespace spburst
{

CoherenceAuditor::CoherenceAuditor(
    const DirectoryController *dir,
    std::vector<const CacheController *> caches)
    : dir_(dir), caches_(std::move(caches))
{
}

void
CoherenceAuditor::onTransaction(Addr block_addr)
{
    auditBlock(block_addr);
    if (++transactions_ % kFullSweepPeriod == 0)
        auditFull();
}

void
CoherenceAuditor::auditBlock(Addr block_addr) const
{
    if (!dir_)
        return;
    const Addr addr = blockAlign(block_addr);
    const DirectoryController::Entry entry = dir_->lookup(addr);
    const auto &ports = dir_->ports();

    int owners = 0;
    for (std::size_t c = 0; c < ports.size(); ++c) {
        const bool owned = ports[c].l1d->probeOwned(addr) ||
                           ports[c].l2->probeOwned(addr);
        const bool valid = ports[c].l1d->probeValid(addr) ||
                           ports[c].l2->probeValid(addr);
        if (owned)
            ++owners;
        SPBURST_CHECK(Coherence,
                      !owned || entry.owner == static_cast<int>(c),
                      "core %zu holds block %#llx in E/M but the "
                      "directory records owner %d",
                      c, static_cast<unsigned long long>(addr),
                      entry.owner);
        SPBURST_CHECK(Coherence,
                      !valid || (entry.sharers & (1ULL << c)) != 0,
                      "core %zu holds block %#llx but is missing from "
                      "the sharer mask %#llx",
                      c, static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(entry.sharers));
    }
    SPBURST_CHECK(Coherence, owners <= 1,
                  "SWMR violated: %d cores own block %#llx", owners,
                  static_cast<unsigned long long>(addr));
    SPBURST_CHECK(Coherence,
                  entry.owner == -1 ||
                      (entry.sharers & (1ULL << entry.owner)) != 0,
                  "directory owner %d of block %#llx missing from its "
                  "own sharer mask %#llx",
                  entry.owner, static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(entry.sharers));
}

void
CoherenceAuditor::auditFull() const
{
    if (!dir_)
        return;
    // Audit in address order so the first SPBURST_CHECK to fire — and
    // therefore the error report — is the same on every host.
    for (const Addr addr : dir_->trackedBlocks())
        auditBlock(addr);
}

void
CoherenceAuditor::auditDrained() const
{
    for (const CacheController *cache : caches_) {
        SPBURST_CHECK(Mshr, cache->mshrInUse() == 0,
                      "%s: %zu MSHR entries leaked past the drain",
                      cache->params().name.c_str(), cache->mshrInUse());
        SPBURST_CHECK(Mshr,
                      cache->burstBacklog() == 0 &&
                          cache->prefetchBacklog() == 0,
                      "%s: %zu burst + %zu prefetch requests stranded "
                      "past the drain",
                      cache->params().name.c_str(),
                      cache->burstBacklog(), cache->prefetchBacklog());
    }
}

} // namespace spburst
