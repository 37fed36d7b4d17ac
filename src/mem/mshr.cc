#include "mem/mshr.hh"

#include "common/logging.hh"

namespace spburst
{

MshrFile::MshrFile(std::size_t capacity) : capacity_(capacity)
{
    SPB_ASSERT(capacity > 0, "MSHR file needs at least one entry");
    slots_.resize(capacity_);
    // Pre-size every slot's target list: merges past this are rare
    // (same-block requests piling on one miss), so steady-state
    // allocate/merge/deallocate never touch the heap.
    for (MshrEntry &slot : slots_)
        slot.targets.reserve(kTargetsReserve);
    freeSlots_.reserve(capacity_);
    for (std::size_t i = capacity_; i-- > 0;)
        freeSlots_.push_back(static_cast<std::uint32_t>(i));
    liveAddrs_.reserve(capacity_);
    liveSlots_.reserve(capacity_);
}

std::size_t
MshrFile::indexOf(Addr aligned) const
{
    std::size_t i = 0;
    while (i < liveAddrs_.size() && liveAddrs_[i] != aligned)
        ++i;
    return i;
}

MshrEntry *
MshrFile::find(Addr block_addr)
{
    const std::size_t i = indexOf(blockAlign(block_addr));
    return i == liveAddrs_.size() ? nullptr : &slots_[liveSlots_[i]];
}

MshrEntry *
MshrFile::allocate(Addr block_addr, MemCmd cmd, Cycle now)
{
    const Addr aligned = blockAlign(block_addr);
    SPB_ASSERT(indexOf(aligned) == liveAddrs_.size(),
               "MSHR double allocation for block %#lx",
               static_cast<unsigned long>(aligned));
    if (full())
        return nullptr;
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    liveAddrs_.push_back(aligned);
    liveSlots_.push_back(slot);
    MshrEntry &e = slots_[slot];
    e.blockAddr = aligned;
    e.ownershipRequested = wantsOwnership(cmd);
    e.lateCounted = false;
    e.invalidatedInFlight = false;
    e.downgradedInFlight = false;
    e.firstCmd = cmd;
    e.allocCycle = now;
    e.extraLatency = 0;
    e.sharedGrant = true;
    e.targets.clear(); // keeps the slot's target capacity
    return &e;
}

void
MshrFile::deallocate(Addr block_addr)
{
    const Addr aligned = blockAlign(block_addr);
    const std::size_t i = indexOf(aligned);
    SPB_ASSERT(i != liveAddrs_.size(), "MSHR deallocate of absent block %#lx",
               static_cast<unsigned long>(aligned));
    const std::uint32_t slot = liveSlots_[i];
    // Swap-remove: the index is unordered, so the last entry fills the
    // hole and no slot moves.
    liveAddrs_[i] = liveAddrs_.back();
    liveSlots_[i] = liveSlots_.back();
    liveAddrs_.pop_back();
    liveSlots_.pop_back();
    slots_[slot].targets.clear();
    slots_[slot].blockAddr = kInvalidAddr;
    freeSlots_.push_back(slot);
}

} // namespace spburst
