#include "sample/warm.hh"

#include "common/logging.hh"

namespace spburst::sample
{

WarmImage::WarmImage(const MemSystemParams &mem, const TlbParams &tlb,
                     const SpbParams &spb)
    : l1_(mem.l1d.geometry), l2_(mem.l2.geometry), l3_(mem.l3.geometry),
      tlb_(tlb), detector_(spb)
{
}

void
WarmImage::fillLevel(int level, Addr block, CohState state)
{
    SetAssocCache &c = level == 1 ? l1_ : level == 2 ? l2_ : l3_;
    CacheBlk &frame = c.victim(block);
    if (isValid(frame.state)) {
        // Inclusive hierarchy: a victim leaving a lower level takes its
        // upper-level copies with it (the detailed machine's
        // back-invalidate chain does the same).
        if (level == 3) {
            l2_.invalidate(frame.tag);
            l1_.invalidate(frame.tag);
        } else if (level == 2) {
            l1_.invalidate(frame.tag);
        }
    }
    c.fill(frame, block, state);
}

void
WarmImage::apply(const MicroOp &op)
{
    if (!isMemOp(op.cls))
        return;

    tlb_.access(op.addr);
    const Addr block = blockAlign(op.addr);
    const bool is_store = op.cls == OpClass::Store;

    CacheBlk *blk1 = l1_.find(block);
    if (blk1 != nullptr) {
        l1_.touch(*blk1);
        // A store leaves the only copy dirty; single-core MESI never
        // holds a store target in Shared for long, but upgrade anyway.
        if (is_store)
            blk1->state = CohState::Modified;
        return;
    }
    CacheBlk *blk2 = l2_.find(block);
    if (blk2 != nullptr) {
        l2_.touch(*blk2);
    } else {
        CacheBlk *blk3 = l3_.find(block);
        if (blk3 != nullptr) {
            l3_.touch(*blk3);
        } else {
            // Memory always grants ownership on a single-core system.
            fillLevel(3, block, CohState::Exclusive);
        }
        fillLevel(2, block, CohState::Exclusive);
    }
    fillLevel(1, block,
              is_store ? CohState::Modified : CohState::Exclusive);

    // The detector observes the committed-store stream; bursts are a
    // timing optimisation and are not applied to the warm image.
    if (is_store)
        detector_.onStoreCommit(op.addr, op.size);
}

WindowDelta
WarmImage::snapshotChanges() const
{
    WindowDelta delta;
    delta.l1 = l1_.snapshotChanges();
    delta.l2 = l2_.snapshotChanges();
    delta.l3 = l3_.snapshotChanges();
    delta.tlb = tlb_.snapshotEntries();
    delta.detector = detector_.architecturalState();
    return delta;
}

void
WarmImage::applyDelta(const WindowDelta &window)
{
    l1_.applyDelta(window.l1);
    l2_.applyDelta(window.l2);
    l3_.applyDelta(window.l3);
    tlb_.restoreEntries(window.tlb);
    detector_.restoreArchitecturalState(window.detector);
}

void
WarmImage::clearChanges()
{
    l1_.clearChanges();
    l2_.clearChanges();
    l3_.clearChanges();
}

MicroOp
ReplaySource::next()
{
    if (uops_ == nullptr || pos_ >= uops_->size())
        SPB_FATAL("replay source '%s' pulled past the recorded window "
                  "(%zu uops loaded)",
                  name_.c_str(), uops_ == nullptr ? 0 : uops_->size());
    return (*uops_)[pos_++];
}

} // namespace spburst::sample
