/**
 * @file
 * ChampSim trace replay as a spburst TraceSource.
 *
 * A trace workload is named by a spec string, accepted everywhere a
 * workload name is (spburst_run, spburst_sweep, SystemConfig, the
 * experiment engine's config keys):
 *
 *   trace:PATH[,skip=N][,warmup=N][,roi=N]
 *
 *  - skip   N instructions are decoded and discarded before replay
 *           (fast-forward to the region of interest);
 *  - warmup N further instructions are replayed through the core
 *           exactly once (cache/TLB/predictor warming) before the ROI;
 *  - roi    length of the region of interest in instructions; it
 *           replays in a loop (like the synthetic workloads, which are
 *           endless) until the core reaches its committed-uop target.
 *           0 (default) means "to end of trace".
 *
 * On each replay pass after the first, the source reopens the file and
 * skips skip+warmup instructions, so the warmup region runs once and
 * the loop covers exactly the ROI. The run length stays governed by
 * SystemConfig::maxUopsPerCore; EXPERIMENTS.md maps this onto the
 * paper's 2B-instruction ROI methodology.
 *
 * Everything is per-instance state: each simulated thread (and each
 * concurrent experiment job) holds its own decoder, file handle and
 * predictor state, so parallel sweeps and resumed runs replay
 * bit-identically. Threads beyond 0 replay the same instruction stream
 * with their data addresses offset into a disjoint address-space slice
 * (a homogeneous multi-programmed mix, ChampSim-style).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "trace/champsim/crack.hh"
#include "trace/champsim/reader.hh"
#include "trace/source.hh"

namespace spburst::champsim
{

/** Parsed trace-workload specification. */
struct TraceSpec
{
    std::string path;
    std::uint64_t skipInstrs = 0;   //!< discarded before replay
    std::uint64_t warmupInstrs = 0; //!< replayed once before the ROI
    std::uint64_t roiInstrs = 0;    //!< looped region; 0 = to EOF

    bool enabled() const { return !path.empty(); }

    /**
     * Parse "PATH[,skip=N][,warmup=N][,roi=N]" (the part after the
     * "trace:" prefix). Fatal on unknown keys or malformed counts.
     */
    static TraceSpec parse(const std::string &text);

    /** The spec rendered back into its canonical string form. */
    std::string toString() const;
};

/** True if @p workload names a trace ("trace:..." prefix). */
bool isTraceWorkload(const std::string &workload);

/** Parse a "trace:..." workload name; fatal if it is not one. */
TraceSpec parseTraceWorkload(const std::string &workload);

/** Replay counters (decode/crack rates for reports). */
struct TraceSourceStats
{
    std::uint64_t instrsReplayed = 0; //!< cracked into uops
    std::uint64_t instrsSkipped = 0;  //!< skip/warmup regions discarded
    std::uint64_t passes = 0;         //!< ROI loop restarts
    CrackStats crack;

    StatSet toStatSet() const;
};

/** Endless TraceSource replaying one ChampSim trace. */
class TraceReplaySource : public TraceSource
{
  public:
    /**
     * @param spec      What to replay.
     * @param thread_id Hardware thread (address-space slice selector).
     */
    explicit TraceReplaySource(const TraceSpec &spec, int thread_id = 0);

    MicroOp next() override;
    const std::string &name() const override { return name_; }

    /** Replay counters, with the cracker's counters folded in. */
    TraceSourceStats stats() const
    {
        TraceSourceStats s = stats_;
        s.crack = cracker_.stats();
        return s;
    }

  private:
    void refill();
    void startPass();

    TraceSpec spec_;
    std::string name_;
    Addr addrOffset_;
    Decoder decoder_;
    Cracker cracker_;
    /** Uops of the last cracked instruction; next() serves them from
     *  scratchPos_ on and refill() cracks the next instruction once all
     *  are served. */
    std::vector<MicroOp> scratch_;
    std::size_t scratchPos_ = 0;
    Record pending_;
    bool havePending_ = false;
    bool passPrimed_ = false;
    std::uint64_t passBudget_ = 0; //!< instrs left this pass
    std::uint64_t passReplayed_ = 0;
    TraceSourceStats stats_;
};

} // namespace spburst::champsim
