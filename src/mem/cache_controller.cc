#include "mem/cache_controller.hh"

#include "check/check.hh"
#include "common/logging.hh"
#include "mem/directory.hh"

namespace spburst
{

namespace
{

/** No request may stay in an MSHR longer than this: even a fully
 *  congested DRAM + upgrade chain resolves orders of magnitude faster,
 *  so an older entry means a lost fill ("a request outlived its
 *  epoch"). */
constexpr Cycle kMshrEpochCycles = 1'000'000;

/** SPB burst elements a controller holds before dropping new ones. */
constexpr std::size_t kBurstQueueCap = 4 * kBlocksPerPage;

} // namespace

StatSet
CacheStats::toStatSet() const
{
    StatSet s;
    s.set("tag_accesses", static_cast<double>(tagAccesses));
    s.set("tag_accesses_prefetch", static_cast<double>(tagAccessesPrefetch));
    s.set("data_accesses", static_cast<double>(dataAccesses));
    s.set("load_hits", static_cast<double>(loadHits));
    s.set("load_misses", static_cast<double>(loadMisses));
    s.set("wrong_path_loads", static_cast<double>(wrongPathLoads));
    s.set("store_own_hits", static_cast<double>(storeOwnHits));
    s.set("store_own_misses", static_cast<double>(storeOwnMisses));
    s.set("upgrades", static_cast<double>(upgrades));
    s.set("load_miss_cycles", static_cast<double>(loadMissCycles));
    s.set("pf_issued", static_cast<double>(pfIssued));
    s.set("pf_discarded", static_cast<double>(pfDiscarded));
    s.set("pf_dropped_full", static_cast<double>(pfDroppedFull));
    s.set("spb_issued", static_cast<double>(spbIssued));
    s.set("spb_discarded", static_cast<double>(spbDiscarded));
    s.set("fills", static_cast<double>(fills));
    s.set("evictions", static_cast<double>(evictions));
    s.set("writebacks_out", static_cast<double>(writebacksOut));
    s.set("writebacks_in", static_cast<double>(writebacksIn));
    s.set("evict_prefetched_unused",
          static_cast<double>(evictPrefetchedUnused));
    s.set("pf_successful", static_cast<double>(pfSuccessful));
    s.set("pf_late", static_cast<double>(pfLate));
    s.set("pf_early", static_cast<double>(pfEarly));
    s.set("pf_never_used", static_cast<double>(pfNeverUsed));
    s.set("load_hit_on_store_pf", static_cast<double>(loadHitOnStorePf));
    s.set("mshr_demand_retries", static_cast<double>(mshrDemandRetries));
    return s;
}

CacheController::CacheController(const CacheParams &params, SimClock *clock,
                                 MemLevel *below, int core, bool is_l1d)
    : params_(params),
      clock_(clock),
      below_(below),
      core_(core),
      l1d_(is_l1d),
      tags_(params.geometry),
      mshr_(params.mshrs),
      prefetchQueue_(params.prefetchQueueCap),
      burstQueue_(kBurstQueueCap)
{
    SPB_ASSERT(clock != nullptr, "cache '%s' needs a clock",
               params.name.c_str());
    SPB_ASSERT(below != nullptr, "cache '%s' needs a level below",
               params.name.c_str());
    SPB_ASSERT(params.demandReservedMshrs < params.mshrs,
               "cache '%s': demand reserve must leave room for prefetches",
               params.name.c_str());
    // The fill scratch trades places with an MSHR slot's target list on
    // every fill, so it starts with the slots' capacity.
    fillTargets_.reserve(MshrFile::kTargetsReserve);
}

// ---------------------------------------------------------------------
// Generic level-to-level request path
// ---------------------------------------------------------------------

void
CacheController::request(const MemRequest &req_in, FillCallback done)
{
    MemRequest req = req_in;
    req.blockAddr = blockAlign(req.blockAddr);
    const bool wants_own = wantsOwnership(req.cmd);

    ++stats_.tagAccesses;
    if (isPrefetch(req.cmd))
        ++stats_.tagAccessesPrefetch;

    // Shared level: consult the directory before anything else.
    Cycle extra = 0;
    bool dir_grant = true;
    if (directory_)
        extra = directory_->resolve(req, dir_grant);

    CacheBlk *blk = tags_.find(req.blockAddr);
    // At the shared level the directory has already reclaimed ownership
    // from remote cores, so a data hit always satisfies ownership
    // requests.
    const bool satisfied =
        blk && (!wants_own || directory_ || hasOwnership(blk->state));

    // Non-L1 prefetchers (e.g. the FDP/BOP/DSPatch L2 prefetchers)
    // train on the demand stream arriving from the level above, and get
    // the same useful/late feedback the L1D paths produce.
    if (prefetcher_ && !l1d_ &&
        (req.cmd == MemCmd::ReadReq || req.cmd == MemCmd::WriteOwnReq)) {
        recordDemandFeedback(req.blockAddr, satisfied ? blk : nullptr);
        notifyPrefetcher(req, satisfied);
    }

    if (satisfied) {
        if (req.cmd == MemCmd::ReadReq)
            ++stats_.loadHits;
        else if (req.cmd == MemCmd::WriteOwnReq)
            ++stats_.storeOwnHits;
        tags_.touch(*blk);
        if (!isPrefetch(req.cmd))
            blk->prefetchUsed = true;
        ++stats_.dataAccesses;
        const bool grant =
            wants_own || (directory_ ? dir_grant : hasOwnership(blk->state));
        if (done) {
            clock_->events.schedule(
                clock_->now + params_.hitLatency + extra,
                [done = std::move(done), grant]() mutable { done(grant); });
        }
        return;
    }

    // Miss: either no data or insufficient permission.
    MshrTarget target;
    target.needsOwnership = wants_own;
    target.isPrefetch = isPrefetch(req.cmd);
    target.demandLoad = req.cmd == MemCmd::ReadReq;
    target.queuedAt = clock_->now;
    target.done = std::move(done);

    auto count_miss = [this, &req, blk, wants_own] {
        if (req.cmd == MemCmd::ReadReq)
            ++stats_.loadMisses;
        else if (req.cmd == MemCmd::WriteOwnReq)
            ++stats_.storeOwnMisses;
        if (blk && wants_own)
            ++stats_.upgrades;
    };

    if (MshrEntry *entry = mshr_.find(req.blockAddr)) {
        count_miss();
        if (wants_own)
            entry->ownershipRequested = true;
        entry->targets.push_back(std::move(target));
        return;
    }

    if (mshr_.full()) {
        // Replay next cycle; the callback is preserved and the miss is
        // only counted once it stops being rejected.
        ++stats_.mshrDemandRetries;
        clock_->events.schedule(
            clock_->now + 1,
            [this, req, done = std::move(target.done)]() mutable {
                request(req, std::move(done));
            });
        return;
    }

    count_miss();
    MshrEntry *entry = mshr_.allocate(req.blockAddr, req.cmd, clock_->now);
    entry->extraLatency = extra;
    entry->sharedGrant = dir_grant;
    entry->targets.push_back(std::move(target));
    forwardMiss(req);
}

void
CacheController::forwardMiss(const MemRequest &req)
{
    // One cycle of lookup before the request leaves for the next level.
    clock_->events.schedule(clock_->now + 1, [this, req] {
        below_->request(req, [this, addr = req.blockAddr](bool ownership) {
            handleFill(addr, ownership);
        });
    });
}

void
CacheController::handleFill(Addr block_addr, bool ownership)
{
    MshrEntry *entry = mshr_.find(block_addr);
    SPB_ASSERT(entry != nullptr, "%s: fill for block %#lx without MSHR",
               params_.name.c_str(),
               static_cast<unsigned long>(block_addr));

    const MemCmd fill_cmd = entry->firstCmd;
    const Cycle extra = entry->extraLatency;
    const bool invalidated = entry->invalidatedInFlight;
    const bool downgraded = entry->downgradedInFlight;
    SPBURST_CHECK(Mshr,
                  clock_->now - entry->allocCycle <= kMshrEpochCycles,
                  "%s: block %#llx sat %llu cycles in an MSHR",
                  params_.name.c_str(),
                  static_cast<unsigned long long>(block_addr),
                  static_cast<unsigned long long>(clock_->now -
                                                  entry->allocCycle));
    // A coherence action that raced the fill voids any granted
    // ownership; an invalidation also voids the data itself.
    if (invalidated || downgraded)
        ownership = false;
    const bool shared_grant =
        directory_ ? entry->sharedGrant : ownership;
    // Swap rather than move: the entry inherits the scratch vector's
    // capacity for its next miss, and no vector is deallocated here.
    // handleFill cannot re-enter itself (completions are scheduled, and
    // back-invalidations target other controllers), so one scratch
    // suffices.
    fillTargets_.clear();
    std::vector<MshrTarget> &targets = fillTargets_;
    std::swap(entry->targets, targets);

    for (const MshrTarget &t : targets) {
        if (t.demandLoad)
            stats_.loadMissCycles += clock_->now - t.queuedAt;
    }

    mshr_.deallocate(block_addr);
    if (!invalidated)
        installBlock(block_addr, ownership, fill_cmd);

    // If some target needs ownership the fill did not bring, complete
    // the readers and launch an upgrade for the writers.
    bool need_upgrade = false;
    for (const MshrTarget &t : targets)
        need_upgrade |= t.needsOwnership && !ownership;

    if (!need_upgrade) {
        CacheBlk *blk = tags_.find(block_addr);
        for (MshrTarget &t : targets) {
            if (!t.isPrefetch && blk)
                blk->prefetchUsed = true;
            completeTarget(t, shared_grant || ownership, extra);
        }
        return;
    }

    MemRequest upgrade;
    upgrade.cmd = MemCmd::WriteOwnReq;
    upgrade.blockAddr = block_addr;
    upgrade.core = core_;
    ++stats_.upgrades;
    MshrEntry *up = mshr_.allocate(block_addr, MemCmd::WriteOwnReq,
                                   clock_->now);
    // The upgrade cannot be refused MSHR space: we just freed an entry.
    SPB_ASSERT(up != nullptr, "%s: no MSHR for upgrade",
               params_.name.c_str());
    for (MshrTarget &t : targets) {
        if (t.needsOwnership) {
            up->targets.push_back(std::move(t));
        } else {
            CacheBlk *blk = tags_.find(block_addr);
            if (!t.isPrefetch && blk)
                blk->prefetchUsed = true;
            completeTarget(t, false, extra);
        }
    }
    forwardMiss(upgrade);
}

void
CacheController::completeTarget(MshrTarget &target, bool ownership,
                                Cycle delay)
{
    if (!target.done)
        return;
    // The directory's remote-probe latency (shared level only) delays
    // every waiter on this fill.
    clock_->events.schedule(clock_->now + delay,
                            [done = std::move(target.done),
                             ownership]() mutable { done(ownership); });
}

void
CacheController::installBlock(Addr block_addr, bool ownership,
                              MemCmd fill_cmd)
{
    CacheBlk *blk = tags_.find(block_addr);
    if (!blk) {
        CacheBlk &frame = tags_.victim(block_addr);
        if (isValid(frame.state))
            evictFrame(frame);
        tags_.fill(frame, block_addr,
                   ownership ? CohState::Exclusive : CohState::Shared);
        ++stats_.fills;
        blk = &frame;
    } else {
        if (ownership && !hasOwnership(blk->state))
            blk->state = CohState::Exclusive;
        tags_.touch(*blk);
    }
    if (isPrefetch(fill_cmd)) {
        blk->prefetched = true;
        blk->prefetchUsed = false;
        blk->fillCmd = fill_cmd;
    } else if (fill_cmd == MemCmd::Writeback) {
        blk->state = CohState::Modified;
    }
}

void
CacheController::evictFrame(CacheBlk &frame)
{
    ++stats_.evictions;
    if (frame.prefetched && !frame.prefetchUsed) {
        ++stats_.evictPrefetchedUnused;
        if (l1d_ && isStorePrefetch(frame.fillCmd)) {
            evictedUnusedPf_.insert(frame.tag);
        } else if (frame.fillCmd == MemCmd::ReadPF && prefetcher_) {
            PrefetchFeedback fb;
            fb.pollutionEvict = true;
            prefetcher_->notifyFeedback(fb);
        }
    }
    bool dirty = frame.state == CohState::Modified;
    if (backInvalidate_)
        dirty |= backInvalidate_(frame.tag);
    if (dirty) {
        ++stats_.writebacksOut;
        below_->writeback(frame.tag, core_);
    }
    if (directory_)
        directory_->evicted(frame.tag);
    frame.state = CohState::Invalid;
}

void
CacheController::writeback(Addr block_addr, int core)
{
    (void)core;
    ++stats_.writebacksIn;
    const Addr aligned = blockAlign(block_addr);
    CacheBlk *blk = tags_.find(aligned);
    if (blk) {
        blk->state = CohState::Modified;
        tags_.touch(*blk);
        return;
    }
    installBlock(aligned, true, MemCmd::Writeback);
}

bool
CacheController::invalidateBlock(Addr block_addr)
{
    const Addr aligned = blockAlign(block_addr);
    // A fill still in flight would re-install the block *after* this
    // invalidation, silently resurrecting a copy the directory believes
    // is gone (and, for ownership fills, breaking SWMR). Flag the MSHR
    // so handleFill discards the stale install.
    if (MshrEntry *e = mshr_.find(aligned))
        e->invalidatedInFlight = true;
    return tags_.invalidate(aligned);
}

bool
CacheController::downgradeBlock(Addr block_addr)
{
    const Addr aligned = blockAlign(block_addr);
    if (MshrEntry *e = mshr_.find(aligned))
        e->downgradedInFlight = true;
    CacheBlk *blk = tags_.find(aligned);
    if (!blk)
        return false;
    const bool dirty = blk->state == CohState::Modified;
    blk->state = CohState::Shared;
    return dirty;
}

// ---------------------------------------------------------------------
// CPU-facing API (L1D)
// ---------------------------------------------------------------------

void
CacheController::issueLoad(const MemRequest &req, MemCallback done)
{
    SPB_ASSERT(l1d_, "issueLoad on non-L1D cache '%s'",
               params_.name.c_str());
    const Addr addr = blockAlign(req.blockAddr);
    if (req.wrongPath)
        ++stats_.wrongPathLoads;

    CacheBlk *blk = tags_.find(addr);
    const bool hit = blk != nullptr;
    if (hit && blk->prefetched && !blk->prefetchUsed &&
        isStorePrefetch(blk->fillCmd)) {
        ++stats_.loadHitOnStorePf;
    }
    recordDemandFeedback(addr, blk);
    notifyPrefetcher(req, hit);

    MemRequest r = req;
    r.cmd = MemCmd::ReadReq;
    request(r, done ? FillCallback([done = std::move(done)](bool) mutable {
                          done();
                      })
                    : FillCallback());
}

void
CacheController::classifyStoreDemand(Addr block_addr, CacheBlk *blk)
{
    if (blk) {
        if (blk->prefetched && !blk->prefetchUsed &&
            isStorePrefetch(blk->fillCmd)) {
            ++stats_.pfSuccessful;
        }
        return;
    }
    if (MshrEntry *e = mshr_.find(block_addr)) {
        if (isStorePrefetch(e->firstCmd) && !e->lateCounted) {
            e->lateCounted = true;
            ++stats_.pfLate;
        }
        return;
    }
    if (evictedUnusedPf_.erase(block_addr))
        ++stats_.pfEarly;
}

/**
 * Cache-prefetcher (ReadPF) counterpart of classifyStoreDemand, shared
 * by loads, store drains and the non-L1 demand path: a demand reaching
 * a prefetched-unused block is a useful hit, a demand merging into an
 * in-flight ReadPF miss is a late prefetch. Store-prefetch fills
 * (WritePF/GetPFx) are classified separately and never reported here.
 */
void
CacheController::recordDemandFeedback(Addr block_addr, CacheBlk *blk)
{
    if (!prefetcher_)
        return;
    if (blk) {
        if (blk->prefetched && !blk->prefetchUsed &&
            blk->fillCmd == MemCmd::ReadPF) {
            blk->prefetchUsed = true;
            PrefetchFeedback fb;
            fb.usefulHit = true;
            prefetcher_->notifyFeedback(fb);
        }
        return;
    }
    if (MshrEntry *e = mshr_.find(block_addr);
        e && e->firstCmd == MemCmd::ReadPF && !e->lateCounted) {
        e->lateCounted = true;
        PrefetchFeedback fb;
        fb.latePrefetch = true;
        prefetcher_->notifyFeedback(fb);
    }
}

void
CacheController::drainStore(const MemRequest &req, MemCallback done)
{
    SPB_ASSERT(l1d_, "drainStore on non-L1D cache '%s'",
               params_.name.c_str());
    const Addr addr = blockAlign(req.blockAddr);
    CacheBlk *blk = tags_.find(addr);
    classifyStoreDemand(addr, blk);
    // Stores benefit from (and merge into) cache prefetches just like
    // loads: a drain hitting a ReadPF-filled block is a useful hit, a
    // drain merging into an in-flight ReadPF is a late prefetch.
    recordDemandFeedback(addr, blk);

    if (blk && hasOwnership(blk->state)) {
        ++stats_.tagAccesses;
        ++stats_.dataAccesses;
        ++stats_.storeOwnHits;
        blk->state = CohState::Modified;
        blk->prefetchUsed = true;
        tags_.touch(*blk);
        notifyPrefetcher(req, true);
        if (done)
            clock_->events.schedule(clock_->now + 1, std::move(done));
        return;
    }

    notifyPrefetcher(req, false);
    MemRequest r = req;
    r.cmd = MemCmd::WriteOwnReq;
    request(r, [this, addr, done = std::move(done)](bool) mutable {
        // Ownership (and data) arrived: perform the write.
        if (CacheBlk *b = tags_.find(addr)) {
            b->state = CohState::Modified;
            b->prefetchUsed = true;
            ++stats_.dataAccesses;
        }
        if (done)
            done();
    });
}

void
CacheController::issueStorePrefetch(const MemRequest &req)
{
    SPB_ASSERT(l1d_, "issueStorePrefetch on non-L1D cache '%s'",
               params_.name.c_str());
    if (prefetchQueue_.full()) {
        ++stats_.pfDroppedFull;
        return;
    }
    MemRequest r = req;
    r.blockAddr = blockAlign(r.blockAddr);
    prefetchQueue_.push(r);
    schedulePump();
}

void
CacheController::enqueueBurst(Addr first_block, unsigned count, int core,
                              Region region)
{
    SPB_ASSERT(l1d_, "enqueueBurst on non-L1D cache '%s'",
               params_.name.c_str());
    // Sink-side twin of the SPB engine's page-bound invariant: a burst
    // that crosses its page would prefetch another page's blocks.
    SPBURST_CHECK(Spb,
                  count == 0 ||
                      samePage(first_block, blockAlign(first_block) +
                                                Addr{count - 1} * kBlockSize),
                  "%s: burst [%#llx +%u blocks) crosses a page boundary",
                  params_.name.c_str(),
                  static_cast<unsigned long long>(first_block), count);
    for (unsigned i = 0; i < count; ++i) {
        if (burstQueue_.full()) {
            ++stats_.pfDroppedFull;
            continue;
        }
        MemRequest r;
        r.cmd = MemCmd::SpbPF;
        r.blockAddr = blockAlign(first_block) + Addr{i} * kBlockSize;
        r.core = core;
        r.region = region;
        burstQueue_.push(r);
    }
    schedulePump();
}

bool
CacheController::probeOwned(Addr addr) const
{
    const CacheBlk *blk = tags_.find(blockAlign(addr));
    return blk && hasOwnership(blk->state);
}

bool
CacheController::probeValid(Addr addr) const
{
    return tags_.find(blockAlign(addr)) != nullptr;
}

// ---------------------------------------------------------------------
// Prefetch / burst pump
// ---------------------------------------------------------------------

void
CacheController::schedulePump()
{
    if (pumpScheduled_)
        return;
    pumpScheduled_ = true;
    clock_->events.schedule(clock_->now + 1, [this] { pump(); });
}

CacheController::PfIssueResult
CacheController::tryIssuePrefetch(const MemRequest &req)
{
    const Addr addr = req.blockAddr;
    const bool is_spb = req.cmd == MemCmd::SpbPF;

    CacheBlk *blk = tags_.find(addr);
    ++stats_.tagAccesses;
    ++stats_.tagAccessesPrefetch;

    // Already present with sufficient permission: discard (PopReq).
    if (blk && (!wantsOwnership(req.cmd) || hasOwnership(blk->state))) {
        ++stats_.pfDiscarded;
        if (is_spb)
            ++stats_.spbDiscarded;
        return PfIssueResult::Discarded;
    }

    // Already in flight: discard, but make sure ownership will arrive.
    if (MshrEntry *e = mshr_.find(addr)) {
        if (wantsOwnership(req.cmd) && !e->ownershipRequested) {
            // Record that ownership is now on order, so further
            // write-prefetches to the block don't pile on duplicate
            // upgrade targets.
            e->ownershipRequested = true;
            MshrTarget t;
            t.needsOwnership = true;
            t.isPrefetch = true;
            t.queuedAt = clock_->now;
            e->targets.push_back(std::move(t));
        }
        ++stats_.pfDiscarded;
        if (is_spb)
            ++stats_.spbDiscarded;
        return PfIssueResult::Discarded;
    }

    // Leave headroom for demand misses.
    if (mshr_.inUse() + params_.demandReservedMshrs >= mshr_.capacity())
        return PfIssueResult::Retry;

    if (blk && wantsOwnership(req.cmd))
        ++stats_.upgrades;

    MshrEntry *entry = mshr_.allocate(addr, req.cmd, clock_->now);
    MshrTarget t;
    t.needsOwnership = wantsOwnership(req.cmd);
    t.isPrefetch = true;
    t.queuedAt = clock_->now;
    entry->targets.push_back(std::move(t));
    ++stats_.pfIssued;
    if (is_spb)
        ++stats_.spbIssued;
    forwardMiss(req);
    return PfIssueResult::Issued;
}

void
CacheController::pump()
{
    pumpScheduled_ = false;
    std::uint32_t budget = params_.prefetchIssuePerCycle;

    auto process = [&](RequestFifo &queue) {
        while (budget > 0 && !queue.empty()) {
            const PfIssueResult r = tryIssuePrefetch(queue.front());
            if (r == PfIssueResult::Retry)
                return false; // resource pressure: stall this cycle
            --budget; // Issued and Discarded both consumed a tag check
            queue.pop();
        }
        return true;
    };

    // Bursts first: SPB is deliberately aggressive once triggered.
    if (process(burstQueue_))
        process(prefetchQueue_);

    if (!burstQueue_.empty() || !prefetchQueue_.empty())
        schedulePump();
}

void
CacheController::notifyPrefetcher(const MemRequest &req, bool hit)
{
    if (!prefetcher_)
        return;
    wanted_.clear();
    prefetcher_->notifyAccess(req, hit, wanted_);
    for (Addr a : wanted_) {
        if (prefetchQueue_.full()) {
            ++stats_.pfDroppedFull;
            break;
        }
        MemRequest r;
        r.cmd = MemCmd::ReadPF;
        r.blockAddr = blockAlign(a);
        r.core = req.core;
        r.region = req.region;
        prefetchQueue_.push(r);
    }
    if (!wanted_.empty())
        schedulePump();
}

void
CacheController::finalizeStats()
{
    for (const CacheBlk &frame : tags_.frames()) {
        if (isValid(frame.state) && frame.prefetched &&
            !frame.prefetchUsed && isStorePrefetch(frame.fillCmd)) {
            ++stats_.pfNeverUsed;
        }
    }
    stats_.pfNeverUsed += evictedUnusedPf_.size();
    evictedUnusedPf_.clear();
}

void
CacheController::restoreWarmTags(const SetAssocCache &image)
{
    SPB_ASSERT(mshr_.inUse() == 0 && burstQueue_.empty() &&
                   prefetchQueue_.empty(),
               "%s: warm-state load while the controller is busy "
               "(%zu MSHRs, %zu bursts, %zu prefetches)",
               params_.name.c_str(), mshr_.inUse(), burstQueue_.size(),
               prefetchQueue_.size());
    tags_.restoreFrom(image);
    SPBURST_CHECK_SLOW(Coherence, tags_.equalsTransplantOf(image),
                       "%s: the tag array differs from the warm image "
                       "after the change-set transplant",
                       params_.name.c_str());
}

} // namespace spburst
