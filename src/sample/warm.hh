/**
 * @file
 * Functional warming state for interval sampling.
 *
 * During the warming phase of each sampling period the simulator
 * retires uops architecturally — no pipeline, no store buffer, no
 * event queue — but keeps the long-lived microarchitectural state a
 * detailed window depends on warm: cache tags at all three levels
 * (with MESI states and exact LRU order), the data TLB, and the SPB
 * detector registers. A WarmImage is that shadow state. It is updated
 * on *every* uop of the run, including the ones the detailed windows
 * execute, and is copied into the detailed machine at each window
 * start, so the detailed window always begins from a machine state
 * that is independent of whichever SB policy ran the previous windows.
 * That independence is what lets one architectural checkpoint serve a
 * whole policy sweep (see checkpoint.hh). The copy moves only the cache
 * frames that changed on either side since the previous window
 * (SetAssocCache change bits); a checkpoint replay rebuilds the image
 * from recorded deltas instead of uops and transplants it the same way.
 *
 * Deliberately not warmed (standard SMARTS practice; the detailed
 * per-window warm-up prefix absorbs the resulting cold-start bias):
 * the L1 hardware prefetcher and SPB bursts themselves — both are
 * policy- or timing-dependent, so modelling them here would break the
 * policy independence above. Branch predictor state lives in the
 * trace cracker and warms automatically as uops are pulled through
 * the source. Data values are not modelled by this simulator, so
 * checkpoints carry no memory image deltas.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/spb.hh"
#include "cpu/tlb.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "trace/source.hh"
#include "trace/uop.hh"

namespace spburst::sample
{

/** What an architectural checkpoint stores per detailed window: the
 *  cache frames warming changed since the previous window's delta,
 *  the whole TLB and SPB detector, and the recorded uop stream the
 *  window executes. */
struct WindowDelta
{
    std::uint64_t startUop = 0; //!< uop index where detailed fetch begins
    CacheTagDelta l1;
    CacheTagDelta l2;
    CacheTagDelta l3;
    TlbSnapshot tlb;
    SpbDetectorState detector;
    std::vector<MicroOp> uops; //!< warmup + window correct-path uops
};

/** The shadow architectural state maintained by functional warming. */
class WarmImage
{
  public:
    WarmImage(const MemSystemParams &mem, const TlbParams &tlb,
              const SpbParams &spb);

    /** Retire one uop architecturally: update TLB, inclusive cache
     *  tags (demand path only) and the SPB detector. */
    void apply(const MicroOp &op);

    /** The state changed since the last clearChanges(): cache frame
     *  deltas, TLB and detector whole (uops/startUop left for the
     *  caller). */
    WindowDelta snapshotChanges() const;

    /** Checkpoint replay: bring the image to the state @p window was
     *  recorded from, marking the frames it writes. */
    void applyDelta(const WindowDelta &window);

    /** Start the next sampling period: clear every level's change
     *  bits. Called once per period, whether or not it transplants. */
    void clearChanges();

    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &l2() const { return l2_; }
    const SetAssocCache &l3() const { return l3_; }
    const Tlb &tlb() const { return tlb_; }
    const SpbDetector &detector() const { return detector_; }

  private:
    /** Install @p block at one level, maintaining inclusion by
     *  back-invalidating upper-level copies of the victim. */
    void fillLevel(int level, Addr block, CohState state);

    SetAssocCache l1_;
    SetAssocCache l2_;
    SetAssocCache l3_;
    Tlb tlb_;
    SpbDetector detector_;
};

/**
 * TraceSource wrapper that feeds every pulled uop through a WarmImage.
 * Warming phases pull from it directly; during detailed windows the
 * core pulls through it, so the image sees the entire uop stream in
 * order. When a recording sink is attached, pulled uops are also
 * appended to it (used to capture window uop streams for checkpoints).
 */
class WarmingSource final : public TraceSource
{
  public:
    WarmingSource(TraceSource *inner, WarmImage *image)
        : inner_(inner), image_(image)
    {
    }

    MicroOp
    next() override
    {
        const MicroOp op = inner_->next();
        image_->apply(op);
        ++position_;
        if (record_ != nullptr)
            record_->push_back(op);
        return op;
    }

    const std::string &name() const override { return inner_->name(); }

    /** Uops pulled so far (position in the underlying stream). */
    std::uint64_t position() const { return position_; }

    /** Attach (or with nullptr detach) a recording sink. */
    void setRecord(std::vector<MicroOp> *sink) { record_ = sink; }

  private:
    TraceSource *inner_;
    WarmImage *image_;
    std::vector<MicroOp> *record_ = nullptr;
    std::uint64_t position_ = 0;
};

/**
 * Checkpoint-replay source: serves the recorded uop stream of one
 * window at a time. The real trace decoder is never opened in replay
 * mode; pulling past the loaded window is a bug and fatal.
 */
class ReplaySource final : public TraceSource
{
  public:
    explicit ReplaySource(std::string name) : name_(std::move(name)) {}

    /** Point the source at @p window's recorded uops. */
    void
    loadWindow(const std::vector<MicroOp> *uops)
    {
        uops_ = uops;
        pos_ = 0;
    }

    MicroOp next() override;

    const std::string &name() const override { return name_; }

  private:
    std::string name_;
    const std::vector<MicroOp> *uops_ = nullptr;
    std::size_t pos_ = 0;
};

} // namespace spburst::sample
