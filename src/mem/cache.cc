#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace spburst
{

const char *
cohStateName(CohState state)
{
    switch (state) {
      case CohState::Invalid: return "I";
      case CohState::Shared: return "S";
      case CohState::Exclusive: return "E";
      case CohState::Modified: return "M";
    }
    return "?";
}

const char *
memCmdName(MemCmd cmd)
{
    switch (cmd) {
      case MemCmd::ReadReq: return "ReadReq";
      case MemCmd::ReadPF: return "ReadPF";
      case MemCmd::WriteOwnReq: return "WriteOwnReq";
      case MemCmd::StorePF: return "StorePF";
      case MemCmd::SpbPF: return "SpbPF";
      case MemCmd::Writeback: return "Writeback";
    }
    return "?";
}

SetAssocCache::SetAssocCache(const CacheGeometry &geometry)
    : sets_(geometry.numSets()), ways_(geometry.ways),
      frames_(sets_ * ways_), changed_((frames_.size() + 63) / 64)
{
    SPB_ASSERT(sets_ > 0 && (sets_ & (sets_ - 1)) == 0,
               "cache sets must be a nonzero power of two (got %lu)",
               static_cast<unsigned long>(sets_));
}

std::size_t
SetAssocCache::lookup(Addr block_addr) const
{
    const Addr aligned = blockAlign(block_addr);
    const std::size_t base = setIndex(aligned) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const CacheBlk &f = frames_[base + w];
        if (isValid(f.state) && f.tag == aligned)
            return base + w;
    }
    return frames_.size();
}

CacheBlk *
SetAssocCache::find(Addr block_addr)
{
    const std::size_t i = lookup(block_addr);
    if (i == frames_.size())
        return nullptr;
    markChanged(i);
    return &frames_[i];
}

const CacheBlk *
SetAssocCache::find(Addr block_addr) const
{
    const std::size_t i = lookup(block_addr);
    return i == frames_.size() ? nullptr : &frames_[i];
}

void
SetAssocCache::touch(CacheBlk &blk)
{
    blk.lastTouch = ++clock_;
}

CacheBlk &
SetAssocCache::victim(Addr block_addr)
{
    const std::size_t base = setIndex(blockAlign(block_addr)) * ways_;
    std::size_t pick = base;
    for (std::size_t i = base; i < base + ways_; ++i) {
        if (!isValid(frames_[i].state)) {
            pick = i;
            break;
        }
        if (frames_[i].lastTouch < frames_[pick].lastTouch)
            pick = i;
    }
    markChanged(pick);
    return frames_[pick];
}

void
SetAssocCache::fill(CacheBlk &frame, Addr block_addr, CohState state)
{
    frame.tag = blockAlign(block_addr);
    frame.state = state;
    frame.prefetched = false;
    frame.prefetchUsed = false;
    frame.fillCmd = MemCmd::ReadReq;
    touch(frame);
}

bool
SetAssocCache::invalidate(Addr block_addr)
{
    CacheBlk *blk = find(block_addr);
    if (!blk)
        return false;
    const bool dirty = blk->state == CohState::Modified;
    blk->state = CohState::Invalid;
    return dirty;
}

namespace
{

/** What a transplant makes of warm frame @p warm (see restoreFrom). */
CacheBlk
transplanted(const CacheBlk &warm)
{
    CacheBlk f;
    if (isValid(warm.state)) {
        f.tag = warm.tag;
        f.state = warm.state;
        f.lastTouch = warm.lastTouch;
    }
    return f;
}

/** Call @p fn with the frame index of every set bit of @p word, the
 *  bitmap's word number @p w. */
template <typename Fn>
void
forEachBit(std::size_t w, std::uint64_t word, Fn fn)
{
    while (word != 0) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
    }
}

} // namespace

CacheTagDelta
SetAssocCache::snapshotChanges() const
{
    CacheTagDelta delta;
    delta.lruClock = clock_;
    std::size_t n = 0;
    for (const std::uint64_t word : changed_)
        n += static_cast<std::size_t>(std::popcount(word));
    delta.frames.reserve(n);
    for (std::size_t w = 0; w < changed_.size(); ++w) {
        forEachBit(w, changed_[w], [&](std::size_t i) {
            const CacheBlk &f = frames_[i];
            delta.frames.push_back({static_cast<std::uint32_t>(i), f.tag,
                                    f.state, f.lastTouch});
        });
    }
    return delta;
}

void
SetAssocCache::applyDelta(const CacheTagDelta &delta)
{
    for (const CacheTagDelta::Frame &d : delta.frames) {
        SPB_ASSERT(d.index < frames_.size(),
                   "tag delta frame %u out of range (array has %zu)",
                   d.index, frames_.size());
        CacheBlk &f = frames_[d.index];
        f = CacheBlk{};
        f.tag = d.tag;
        f.state = d.state;
        f.lastTouch = d.lastTouch;
        markChanged(d.index);
    }
    clock_ = delta.lruClock;
}

void
SetAssocCache::restoreFrom(const SetAssocCache &image)
{
    SPB_ASSERT(image.frames_.size() == frames_.size(),
               "transplant between caches of %zu and %zu frames",
               image.frames_.size(), frames_.size());
    for (std::size_t w = 0; w < changed_.size(); ++w) {
        forEachBit(w, changed_[w] | image.changed_[w], [&](std::size_t i) {
            frames_[i] = transplanted(image.frames_[i]);
        });
        changed_[w] = 0;
    }
    clock_ = image.clock_;
}

bool
SetAssocCache::equalsTransplantOf(const SetAssocCache &image) const
{
    if (image.frames_.size() != frames_.size() || image.clock_ != clock_)
        return false;
    for (std::size_t i = 0; i < frames_.size(); ++i)
        if (!(frames_[i] == transplanted(image.frames_[i])))
            return false;
    return true;
}

void
SetAssocCache::clearChanges()
{
    std::fill(changed_.begin(), changed_.end(), 0);
}

std::uint64_t
SetAssocCache::validCount() const
{
    std::uint64_t n = 0;
    for (const auto &f : frames_)
        if (isValid(f.state))
            ++n;
    return n;
}

} // namespace spburst
