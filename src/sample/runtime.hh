/**
 * @file
 * Per-run sampling state owned by sim::System.
 *
 * System holds a SampleRuntime (pImpl-style) when sampling is enabled;
 * the orchestration loop lives in src/sim/sampled_run.cc. This header
 * only bundles the pieces so the sim layer has one thing to own.
 */

#pragma once

#include <memory>

#include "common/stats.hh"
#include "sample/checkpoint.hh"
#include "sample/estimate.hh"
#include "sample/spec.hh"
#include "sample/warm.hh"

namespace spburst::sample
{

/** Host-side facts about a sampled run (not part of SimResult stats:
 *  they differ between live-warming and checkpoint-replay runs, and
 *  sampled results must not), read through System::sampleInfo(). */
struct SampleRunInfo
{
    std::uint64_t warmedUops = 0;   //!< functionally warmed (live mode)
    std::uint64_t detailedUops = 0; //!< committed in detailed windows
    std::uint64_t windowsMeasured = 0;
    bool fromCheckpoint = false;    //!< replayed recorded warm state
    bool wroteCheckpoint = false;
};

/** Everything a sampled run carries besides the detailed machine. */
struct SampleRuntime
{
    SampleSpec spec;

    /** Shadow warm state: fed uops when warming live, the
     *  checkpoint's deltas when replaying. Transplanted into the
     *  detailed machine at each window start either way. */
    std::unique_ptr<WarmImage> image;

    /** Live mode: the warming wrapper around the real trace source.
     *  Owned by System's source list; borrowed here. */
    WarmingSource *observer = nullptr;

    /** Replay mode: serves recorded window uops. Borrowed likewise. */
    ReplaySource *replaySource = nullptr;

    /** Loaded (replay) or under construction (live + writeCheckpoint). */
    Checkpoint checkpoint;

    bool replay = false;
    bool writeCheckpoint = false;

    SampleRunInfo info;

    /** Final sample.* statistics (filled at the end of the run). */
    StatSet stats;
};

} // namespace spburst::sample
