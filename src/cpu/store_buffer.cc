#include "cpu/store_buffer.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/logging.hh"
#include "core/spb.hh"
#include "cpu/core.hh"
#include "mem/cache_controller.hh"

namespace spburst
{

StoreBuffer::StoreBuffer(unsigned capacity, CacheController *l1d, int core)
    : capacity_(capacity), l1d_(l1d), core_(core)
{
    SPB_ASSERT(capacity >= 1, "store buffer needs at least one entry");
    entries_.reset(capacity);
}

void
StoreBuffer::allocate(SeqNum seq, Region region, bool wrongPath)
{
    SPB_ASSERT(!full(), "store buffer overflow");
    // Dispatch order is program order: a new entry is always younger
    // than everything already buffered (squashes pop the tail first).
    SPBURST_CHECK(StoreBuffer,
                  entries_.empty() ||
                      seq > entries_.seq(entries_.size() - 1),
                  "store %llu dispatched behind younger store %llu",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(
                      entries_.empty()
                          ? 0
                          : entries_.seq(entries_.size() - 1)));
    entries_.pushBack(seq, region, wrongPath);
}

void
StoreBuffer::setAddress(SeqNum seq, Addr addr, unsigned size)
{
    const std::size_t i = entries_.indexOf(seq);
    SPB_ASSERT(i != SbRing::npos, "setAddress: store %lu not in SB",
               static_cast<unsigned long>(seq));
    SPBURST_CHECK(StoreBuffer, !(entries_.flags(i) & sbflags::kSenior),
                  "store %llu got its address after commit",
                  static_cast<unsigned long long>(seq));
    if (check::full() && (entries_.flags(i) & sbflags::kAddressKnown))
        shadow_.erase(seq, entries_.addr(i), entries_.sizeBytes(i));
    entries_.addr(i) = addr;
    entries_.sizeBytes(i) = size;
    entries_.flags(i) |= sbflags::kAddressKnown;
    if (check::full())
        shadow_.write(seq, addr, size);
}

void
StoreBuffer::markSenior(SeqNum seq)
{
    std::size_t e = entries_.indexOf(seq);
    SPB_ASSERT(e != SbRing::npos, "markSenior: store %lu not in SB",
               static_cast<unsigned long>(seq));
    SPB_ASSERT(entries_.flags(e) & sbflags::kAddressKnown,
               "store %lu committed without an address",
               static_cast<unsigned long>(seq));
    SPBURST_CHECK(Pipeline, !(entries_.flags(e) & sbflags::kWrongPath),
                  "wrong-path store %llu committed",
                  static_cast<unsigned long long>(seq));
    entries_.flags(e) |= sbflags::kSenior;
    // Commit is in order, so every entry older than a committing store
    // must already be senior (the senior prefix property the drain
    // logic relies on).
    if (check::full()) {
        for (std::size_t i = 0; i < e; ++i) {
            SPBURST_CHECK_SLOW(StoreBuffer,
                               entries_.flags(i) & sbflags::kSenior,
                               "store %llu committed before older "
                               "store %llu",
                               static_cast<unsigned long long>(seq),
                               static_cast<unsigned long long>(
                                   entries_.seq(i)));
        }
    }
    const Addr commit_addr = entries_.addr(e); // the committing store's
    const unsigned commit_size =               // own address/size
        entries_.sizeBytes(e);                 // (SPB input)

    // Coalesce consecutive same-block senior stores into one entry.
    if (coalescing_ && e >= 1) {
        const std::size_t prev = e - 1;
        constexpr std::uint8_t mergeable =
            sbflags::kSenior | sbflags::kAddressKnown;
        if ((entries_.flags(prev) & mergeable) == mergeable &&
            sameBlock(entries_.addr(prev), entries_.addr(e))) {
            // Fold this store into its predecessor: extend the
            // covered range (contiguous bursts stay exact; the
            // range is an over-approximation otherwise).
            const Addr lo = std::min(entries_.addr(prev),
                                     entries_.addr(e));
            const Addr hi =
                std::max(entries_.addr(prev) + entries_.sizeBytes(prev),
                         entries_.addr(e) + entries_.sizeBytes(e));
            if (check::full()) {
                // Mirror the merge in the shadow so the oracle
                // tracks the (possibly widened) merged range.
                shadow_.erase(entries_.seq(prev), entries_.addr(prev),
                              entries_.sizeBytes(prev));
                shadow_.erase(entries_.seq(e), entries_.addr(e),
                              entries_.sizeBytes(e));
                shadow_.write(entries_.seq(prev), lo,
                              static_cast<unsigned>(hi - lo));
            }
            entries_.addr(prev) = lo;
            entries_.sizeBytes(prev) = static_cast<unsigned>(hi - lo);
            ++stats_.coalesced;
            entries_.eraseAt(e);
            e = prev;
        }
    }

    if (prefetchAtCommit_ && l1d_) {
        MemRequest pf;
        pf.cmd = MemCmd::StorePF;
        pf.blockAddr = blockAlign(commit_addr);
        pf.core = core_;
        pf.region = entries_.region(e);
        l1d_->issueStorePrefetch(pf);
    }
    if (spb_)
        spb_->onStoreCommit(commit_addr, commit_size,
                            entries_.region(e));
}

void
StoreBuffer::squashFrom(SeqNum seq)
{
    while (!entries_.empty() &&
           entries_.seq(entries_.size() - 1) >= seq) {
        const std::size_t i = entries_.size() - 1;
        SPB_ASSERT(!(entries_.flags(i) & sbflags::kSenior),
                   "squashing a senior store (%lu)",
                   static_cast<unsigned long>(entries_.seq(i)));
        if (check::full() &&
            (entries_.flags(i) & sbflags::kAddressKnown))
            shadow_.erase(entries_.seq(i), entries_.addr(i),
                          entries_.sizeBytes(i));
        entries_.popBack();
        ++stats_.squashed;
    }
}

void
StoreBuffer::tick(Cycle now)
{
    (void)now;
    stats_.occupancySum += entries_.size();
    if (full())
        ++stats_.fullCycles;

    if (drainInFlight_ || entries_.empty() ||
        !(entries_.flags(0) & sbflags::kSenior))
        return;

    // TSO: only the head may drain; anything behind it waits.
    const SeqNum head_seq = entries_.seq(0);
    const Addr head_addr = entries_.addr(0);
    SPBURST_CHECK(Pipeline, !(entries_.flags(0) & sbflags::kWrongPath),
                  "wrong-path store %llu reached the SB drain",
                  static_cast<unsigned long long>(head_seq));
    SPBURST_CHECK(StoreBuffer, drainOrder_.observe(head_seq),
                  "SB drained store %llu after %llu (program-order "
                  "violation)",
                  static_cast<unsigned long long>(head_seq),
                  static_cast<unsigned long long>(drainOrder_.last()));
    if (l1d_ && !l1d_->probeOwned(head_addr))
        ++stats_.headBlockedCycles;

    drainInFlight_ = true;
    const std::uint64_t token = ++drainToken_;
    MemRequest req;
    req.cmd = MemCmd::WriteOwnReq;
    req.blockAddr = blockAlign(head_addr);
    req.core = core_;
    req.region = entries_.region(0);
    if (!l1d_) {
        // Detached mode (unit tests without a hierarchy): drain in one
        // cycle.
        finishDrain();
        return;
    }
    l1d_->drainStore(req, [this, token] {
        if (owner_)
            owner_->wake();
        SPB_ASSERT(token == drainToken_, "stale drain completion");
        SPB_ASSERT(!entries_.empty() &&
                       (entries_.flags(0) & sbflags::kSenior),
                   "drain completed without a senior head");
        finishDrain();
    });
}

void
StoreBuffer::finishDrain()
{
    if (check::full() && (entries_.flags(0) & sbflags::kAddressKnown))
        shadow_.erase(entries_.seq(0), entries_.addr(0),
                      entries_.sizeBytes(0));
    if (eventLog_) {
        check::MemEvent ev;
        ev.kind = check::MemEvent::Kind::StoreVisible;
        ev.thread = eventThread_;
        ev.seq = entries_.seq(0);
        ev.addr = entries_.addr(0);
        ev.size = entries_.sizeBytes(0);
        ev.cycle = eventClock_ ? eventClock_->now : 0;
        eventLog_->record(ev);
    }
    entries_.popFront();
    ++stats_.drained;
    drainInFlight_ = false;
}

SeqNum
StoreBuffer::forwards(SeqNum load_seq, Addr addr, unsigned size)
{
    // Search youngest-to-oldest for the most recent older store whose
    // known address *overlaps* the load. Only a full cover may forward;
    // a partial overlap blocks forwarding from anything older, because
    // the load would otherwise combine that store's pending bytes with
    // stale data from memory or an older entry.
    SeqNum hit = kInvalidSeqNum;
    for (std::size_t i = entries_.size(); i-- > 0;) {
        if (entries_.seq(i) >= load_seq ||
            !(entries_.flags(i) & sbflags::kAddressKnown))
            continue;
        const Addr e_addr = entries_.addr(i);
        const unsigned e_size = entries_.sizeBytes(i);
        const bool overlaps =
            e_addr < addr + size && addr < e_addr + e_size;
        if (!overlaps)
            continue;
        if (e_addr <= addr && addr + size <= e_addr + e_size)
            hit = entries_.seq(i);
        break;
    }
    // Full mode: re-derive the answer from the byte-granular shadow.
    SPBURST_CHECK_SLOW(Forwarding,
                       hit == shadow_.expectedForward(load_seq, addr,
                                                      size),
                       "forwarding mismatch for load %llu @%#llx+%u: "
                       "SB says %llu, oracle says %llu",
                       static_cast<unsigned long long>(load_seq),
                       static_cast<unsigned long long>(addr), size,
                       static_cast<unsigned long long>(hit),
                       static_cast<unsigned long long>(
                           shadow_.expectedForward(load_seq, addr,
                                                   size)));
    if (hit != kInvalidSeqNum)
        ++stats_.forwards;
    return hit;
}

Region
StoreBuffer::headRegion() const
{
    return entries_.empty() ? Region::App : entries_.region(0);
}

} // namespace spburst
