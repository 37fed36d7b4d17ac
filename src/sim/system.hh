/**
 * @file
 * Top-level simulated system: N cores (each with its own L1
 * prefetcher, and one trace, store buffer and optional SPB engine per
 * hardware thread) over the shared memory hierarchy. This is the entry
 * point examples, tests and benchmark harnesses use.
 */

#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hh"
#include "common/clock.hh"
#include "common/stats.hh"
#include "core/spb.hh"
#include "cpu/core.hh"
#include "cpu/params.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"
#include "prefetch/best_offset.hh"
#include "prefetch/stream_prefetcher.hh"
#include "sample/spec.hh"
#include "trace/workloads.hh"

namespace spburst
{

namespace champsim
{
class TraceReplaySource;
} // namespace champsim

namespace sample
{
struct SampleRunInfo;
struct SampleRuntime;
} // namespace sample

/**
 * Cache-prefetcher configuration (Fig. 16 axis). Stream is the Table I
 * L1 prefetcher; Aggressive/Adaptive add an FDP prefetcher at the L2
 * (as in Srinath et al.) on top of the L1 stream prefetcher.
 */
enum class L1PrefetcherKind : std::uint8_t
{
    None,
    Stream,     //!< Table I default
    Aggressive, //!< + fixed very-aggressive FDP at the L2
    Adaptive,   //!< + feedback-directed FDP at the L2
    BestOffset, //!< + best-offset prefetcher [19] at the L2 (extension)
    DSPatch,    //!< + dual-spatial-pattern prefetcher at the L2
};

/** Human-readable prefetcher-kind name. */
const char *l1PrefetcherKindName(L1PrefetcherKind kind);

/** Complete configuration of one simulation run. */
struct SystemConfig
{
    CoreParams coreParams = skylakeParams();
    StorePrefetchPolicy policy = StorePrefetchPolicy::AtCommit;
    bool useSpb = false;
    SpbParams spb;
    bool idealSb = false;
    /** Non-speculative store coalescing in the SB (related work [24]). */
    bool coalescingSb = false;
    /** Convenience override for coreParams.sqSize (the SB under study;
     *  0 keeps coreParams.sqSize). */
    unsigned sbSize = 0;
    L1PrefetcherKind l1Prefetcher = L1PrefetcherKind::Stream;
    MemSystemParams mem = MemSystemParams::tableI();
    std::string workload = "x264";
    /** Simulated cores. */
    int threads = 1;
    /** Hardware threads per core, 1..Core::kMaxThreads (paper Sec. I:
     *  SMT-T shares one pipeline and L1D, the SB split T ways). Thread
     *  m of core c runs a synthetic workload at seed + m, or a trace's
     *  thread slice c * smtThreads + m. */
    int smtThreads = 1;
    std::uint64_t seed = 1;
    std::uint64_t maxUopsPerCore = 400'000;
    /** Safety net: abort after maxUopsPerCore * this many cycles. */
    std::uint64_t cyclesPerUopLimit = 400;

    /**
     * Interval sampling (SMARTS-style; see src/sample). When enabled,
     * maxUopsPerCore bounds the *run extent* — the total uop stream
     * carved into sampling periods — and only the detailed windows are
     * simulated cycle by cycle. One core of one thread only. The
     * result-affecting part of the spec is included in exp::configKey
     * (the checkpoint path is not: results are byte-identical with or
     * without checkpoint reuse).
     */
    sample::SampleSpec sample;

    /** Host-side performance knob, not part of exp::configKey: stop
     *  ticking each quiescent core until a callback wakes it, and jump
     *  the clock to the next scheduled memory event while every core
     *  sleeps. It changes no result, because it skips only cycles
     *  proven to be pure stall accounting. */
    bool fastForward = true;
};

/** Everything a run produced. */
struct SimResult
{
    std::string workload;
    std::uint64_t cycles = 0;
    // One entry per hardware thread, core-major (thread m of core c at
    // c * threadsPerCore() + m).
    std::vector<CoreStats> cores;
    std::vector<StoreBufferStats> sbs;
    std::vector<SpbStats> spbs;           //!< empty unless SPB enabled
    // One entry per core.
    std::vector<CacheStats> l1d;
    std::vector<CacheStats> l2;
    CacheStats l3;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    DirectoryStats directory;             //!< zeros on single core
    /** Unified `pf.<name>.*` prefetcher stats (issued/useful/late/
     *  pollution + accuracy/coverage), aggregated per prefetcher name
     *  across cores and cache levels. Empty when no prefetcher runs. */
    StatSet pf;
    /** Per-thread trace-frontend decode/crack stats, core-major
     *  (ChampSim trace workloads only; empty for synthetic workloads
     *  and for sampled runs, whose decode position depends on the
     *  warming path). */
    std::vector<StatSet> trace;
    /** Sampling estimates (`sample.*`): window count, mean IPC and
     *  SB-stall rate with 95% CIs. Empty unless sampling is enabled. */
    StatSet sample;
    EnergyBreakdown energy;               //!< whole system
    /** simcheck activity during this run (violations are fatal unless a
     *  ThrowGuard is active, so a returned result normally shows 0). */
    check::Counters checks;

    /** Hardware threads per core. */
    std::size_t
    threadsPerCore() const
    {
        return l1d.empty() ? 1 : cores.size() / l1d.size();
    }

    /** Committed uops per cycle, summed over threads. */
    double ipc() const;

    /** Total committed uops. */
    std::uint64_t committedUops() const;

    /** Fraction of dispatch-stall cycles caused by a full SB,
     *  relative to total cycles (Fig. 1 metric), averaged over
     *  threads. */
    double sbStallRatio() const;

    /** Aggregate SB-induced dispatch stalls over threads. */
    std::uint64_t sbStalls() const;

    /** Aggregate dispatch stalls over threads and resources. */
    std::uint64_t totalIssueStalls() const;

    /** Aggregate execution stalls with L1D misses pending. */
    std::uint64_t execStallsL1d() const;

    /** Flatten into named statistics; thread stats are coreC.* with
     *  one thread per core, else coreC.tM.*. */
    StatSet toStatSet() const;
};

/**
 * Thrown by System::run when its interrupt hook asks it to stop (the
 * experiment engine's per-job wall-clock timeout).
 */
class SimInterrupted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A fully wired simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    /** Run to completion (every hardware thread commits
     *  maxUopsPerCore). */
    SimResult run();

    /**
     * Run to completion, polling @p interrupt every few thousand
     * cycles; throws SimInterrupted when it returns true. Used for
     * cooperative wall-clock timeouts.
     */
    SimResult run(const std::function<bool()> &interrupt);

    /** Per-core accessors for tests and examples. */
    Core &core(int i) { return *cores_.at(i); }
    MemorySystem &memory() { return mem_; }
    SimClock &clock() { return clock_; }

    /** Collect results so far without running further. */
    SimResult snapshot();

    /** Cycles the clock jumped while every core slept (host-side
     *  metric; included in `cycles` but never reported as a
     *  statistic). */
    Cycle fastForwardedCycles() const { return ffCycles_; }

    /** Core-cycles credited to sleeping cores instead of ticked, over
     *  all cores (host-side metric, never a statistic; 0 with
     *  fast-forward off). */
    Cycle sleptCoreCycles() const;

    const SystemConfig &config() const { return config_; }

    /** Host-side facts about the sampled run (warmed uops, checkpoint
     *  use); nullptr unless sampling is enabled. */
    const sample::SampleRunInfo *sampleInfo() const;

  private:
    /** Cycles between polls of a run's interrupt hook: coarse enough
     *  that the poll never shows up in a profile. */
    static constexpr Cycle kInterruptPollCycles = 4096;

    /**
     * The detailed run loop behind run() and every sampled phase: tick
     * until @p done() holds. With fast-forward on, a core that is
     * quiescent after its tick sleeps until a callback wakes it, and
     * the clock jumps over stretches in which every core sleeps; every
     * sleeping core is caught up before the loop returns. Polls
     * @p interrupt every kInterruptPollCycles (throwing SimInterrupted
     * when it returns true) and fails once the clock passes
     * @p cycle_limit; @p phase names the loop in the fatal messages.
     */
    template <typename Done>
    void advanceUntil(const Done &done, Cycle cycle_limit,
                      const char *phase,
                      const std::function<bool()> &interrupt);

    /** When every core sleeps and the next event is more than one
     *  cycle away, jump the clock to the cycle before it (the sleeping
     *  cores credit the jumped cycles when they wake). */
    void fastForward(const char *phase);

    /** One cycle of the run loop: run the cycle's events, then tick
     *  every awake core and put each one that is left quiescent to
     *  sleep. */
    void stepCycle();
    [[noreturn]] void throwInterrupted() const;
    [[noreturn]] void failCycleLimit(const char *phase) const;

    /** Cycle limit of a detailed phase that starts at @p from and
     *  commits @p uops per core: from + uops * cyclesPerUopLimit +
     *  100'000, saturating rather than wrapping for huge budgets. */
    Cycle cycleLimit(Cycle from, std::uint64_t uops) const;

    /** End of a run: final stats, the --check=full audit, and the
     *  result. */
    SimResult finishRun();

    /** Decide live-warming vs checkpoint replay and build the warm
     *  image (sampling only; defined in sampled_run.cc). */
    void setupSampling();

    /** The sampled execution mode behind run() (sampled_run.cc). */
    SimResult runSampled(const std::function<bool()> &interrupt);
    /**
     * End-of-run audit (--check=full): quiesce the memory hierarchy by
     * running the remaining event queue (no further core ticks — the
     * reported statistics stay identical to a fast-mode run), then
     * verify that no MSHR or prefetch-queue entry leaked and that the
     * final coherence state satisfies SWMR.
     */
    void drainAndAudit();

    SystemConfig config_;
    SimClock clock_;
    MemorySystem mem_;
    Cycle ffCycles_ = 0; //!< cycles skipped by fast-forward
    Cycle nextPoll_ = kInterruptPollCycles; //!< next interrupt poll
    std::vector<std::unique_ptr<StreamPrefetcher>> prefetchers_;
    std::vector<std::unique_ptr<PrefetcherIface>> l2Prefetchers_;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    /** Non-owning views of traces_ entries that are ChampSim replays
     *  (empty for synthetic workloads); used to report decode stats. */
    std::vector<champsim::TraceReplaySource *> champSources_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Sampling state (warm image, checkpoint, estimates); null unless
     *  config_.sample is enabled. */
    std::unique_ptr<sample::SampleRuntime> sample_;
    /** Thread's check counters at construction; results report deltas. */
    check::Counters checkBase_;
};

template <typename Done>
void
System::advanceUntil(const Done &done, Cycle cycle_limit,
                     const char *phase,
                     const std::function<bool()> &interrupt)
{
    while (!done()) {
        if (config_.fastForward)
            fastForward(phase);
        stepCycle();
        if (interrupt && clock_.now >= nextPoll_) {
            nextPoll_ = clock_.now + kInterruptPollCycles;
            if (interrupt())
                throwInterrupted();
        }
        if (clock_.now > cycle_limit)
            failCycleLimit(phase);
    }
    for (auto &core : cores_)
        core->catchUp();
}

/** Build, run, and return the result in one call. */
SimResult runSystem(const SystemConfig &config);

/**
 * Convenience config builder used throughout benches and tests:
 * Table I system with @p workload, SB size @p sb_size, policy
 * @p policy, optional SPB / ideal-SB flags.
 */
SystemConfig makeConfig(const std::string &workload, unsigned sb_size,
                        StorePrefetchPolicy policy, bool use_spb = false,
                        bool ideal_sb = false);

} // namespace spburst
