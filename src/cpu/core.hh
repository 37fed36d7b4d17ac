/**
 * @file
 * Cycle-level out-of-order core with one or more hardware threads.
 *
 * The core is trace-driven: a TraceSource supplies the committed
 * (correct-path) micro-op stream; the core adds the micro-architectural
 * behaviour around it — a front-end pipe with fetch-to-dispatch depth,
 * rename against finite physical register files, dispatch into
 * ROB/IQ/LQ/SB with per-resource stall attribution, dependence-driven
 * issue with functional-unit and memory-port constraints, loads through
 * the L1D (with store-to-load forwarding from the SB), branches that
 * resolve when their operands do, and wrong-path execution between a
 * mispredicted branch and its resolution (wrong-path loads really
 * access the L1D; wrong-path stores really occupy SB entries — the
 * at-execute policy really prefetches for them).
 *
 * Simultaneous multithreading (paper Sec. I): the core runs one
 * hardware context per trace source. The contexts share the pipeline
 * widths, the issue queue, the functional units, the memory ports and
 * the L1D under round-robin thread priority, while the ROB, load
 * queue, physical registers, fetch buffer and (crucially) the store
 * buffer are statically partitioned per thread, as in Intel's
 * implementation (optimization manual Sec. 2.6.9). Each context has
 * its own DTLB and SPB engine: the 67-bit detector is cheap enough to
 * replicate. With a single context every share is the whole structure.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "check/event_log.hh"
#include "check/invariants.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/spb.hh"
#include "cpu/params.hh"
#include "cpu/pipeline_structs.hh"
#include "cpu/store_buffer.hh"
#include "cpu/tlb.hh"
#include "trace/source.hh"

namespace spburst
{

class CacheController;

/** Resources whose exhaustion can stall dispatch. */
enum class StallResource : std::uint8_t
{
    None = 0,
    Rob,
    Iq,
    Lq,
    Sb,   //!< the paper's target: store-buffer-induced stalls
    Regs,
};

/** Number of StallResource values. */
inline constexpr int kNumStallResources = 6;

/** Fetch-budget sentinel: no cap on correct-path fetch. */
inline constexpr std::uint64_t kUnlimitedFetchBudget =
    std::numeric_limits<std::uint64_t>::max();

/** Human-readable resource name. */
const char *stallResourceName(StallResource r);

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t issuedUops = 0;
    std::uint64_t fetchedUops = 0;
    std::uint64_t mispredicts = 0;

    // Wrong-path activity (Figs. 7, 13: the misspeculation savings).
    std::uint64_t wrongPathFetched = 0;
    std::uint64_t wrongPathLoadsIssued = 0;
    std::uint64_t squashedUops = 0;

    /** Cycles dispatch made no progress, by blocking resource. */
    std::uint64_t dispatchStalls[kNumStallResources] = {};

    /** SB-stall cycles attributed to the SB head's code region (Fig 3). */
    std::uint64_t sbStallsByRegion[kNumRegions] = {};

    /** Cycles with no issue at all. */
    std::uint64_t noIssueCycles = 0;

    /** Cycles with no issue while >=1 L1D load miss outstanding — the
     *  Top-Down "execution stalls with L1D misses pending" (Fig 14). */
    std::uint64_t execStallL1dPending = 0;

    /** Loads sent to the L1D (wrong path included). */
    std::uint64_t loadsToL1 = 0;

    /** Total dispatch-stall cycles (any resource). */
    std::uint64_t totalDispatchStalls() const;

    /** SB share of dispatch stalls. */
    std::uint64_t sbStalls() const
    {
        return dispatchStalls[static_cast<int>(StallResource::Sb)];
    }

    StatSet toStatSet() const;
};

/** Per-core configuration: structure + store-prefetch strategy. */
struct CoreConfig
{
    CoreParams params;
    StorePrefetchPolicy policy = StorePrefetchPolicy::AtCommit;
    bool useSpb = false; //!< SPB on top of the at-commit baseline
    SpbParams spb;
    /** Ideal SB (paper's upper bound): a 1024-entry SB whose blocks are
     *  all prefetched in parallel; forces the at-commit policy. */
    bool idealSb = false;
    /** Non-speculative store coalescing in the SB (related work [24]). */
    bool coalescingSb = false;
};

/** One out-of-order core running one or more hardware threads. */
class Core
{
  public:
    /** Most hardware threads one core runs (SMT-1/2/4 in the paper). */
    static constexpr int kMaxThreads = 8;

    /**
     * @param config  Core configuration; queue sizes are the whole
     *                core's (Table I) and are partitioned per thread.
     * @param core_id Core index within the system.
     * @param clock   Shared clock.
     * @param l1d     This core's L1D controller, shared by its threads.
     * @param traces  One correct-path uop stream per hardware thread
     *                (not owned); their count is the thread count.
     */
    Core(const CoreConfig &config, int core_id, SimClock *clock,
         CacheController *l1d, const std::vector<TraceSource *> &traces);

    /** Single-threaded core over @p trace. */
    Core(const CoreConfig &config, int core_id, SimClock *clock,
         CacheController *l1d, TraceSource *trace);

    // Scheduled callbacks hold the core's address.
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Simulate one cycle (memory events for the cycle already ran). */
    void tick();

    /**
     * True when tick() provably could not change architectural or
     * micro-architectural state this cycle — every stage of every
     * thread is blocked on an in-flight memory event, so a tick would
     * only accrue per-cycle stall/occupancy statistics. The system
     * uses this to fast-forward straight to the next scheduled event.
     */
    bool quiescent() const;

    /**
     * Account @p n skipped quiescent cycles (the ticks that would have
     * run at cycles now+1 .. now+n). Replicates exactly the statistics
     * a quiescent tick() accrues on every thread: cycles, no-issue and
     * exec-stall cycles, dispatch-stall attribution, and SB occupancy;
     * the round-robin priority advances as n ticks would advance it.
     * Only valid when quiescent() holds and no event fires in the
     * skipped range.
     */
    void skipQuiescentCycles(Cycle n);

    // Per-core sleep: the run loop stops ticking a quiescent core and
    // the first callback into it credits the slept cycles in closed
    // form (DESIGN.md "Quiescence fast-forward").

    /** Stop ticking after this cycle's tick; quiescent() must hold. */
    void sleep() { asleepSince_ = clock_->now; }

    /** True while the run loop does not tick this core. */
    bool asleep() const { return asleepSince_ != kNeverCycle; }

    /** The last cycle ticked before the core fell asleep (kNeverCycle
     *  while awake). */
    Cycle asleepSince() const { return asleepSince_; }

    /**
     * Wake point: every callback into the core calls this before it
     * changes any state. The core slept through the cycles after
     * asleepSince() up to now - 1 and ticks this cycle itself, once
     * the callbacks due now have run.
     */
    void
    wake()
    {
        if (asleep()) [[unlikely]]
            creditSleep(clock_->now - 1);
    }

    /** Wake at the end of a run-loop phase: the core slept through
     *  the current cycle too. */
    void
    catchUp()
    {
        if (asleep())
            creditSleep(clock_->now);
    }

    /** Core-cycles credited by wake() and catchUp() (host-side count,
     *  never a statistic). */
    Cycle sleptCycles() const { return sleptCycles_; }

    // Sampling drives single-threaded cores: the next four calls act
    // on thread 0.

    /**
     * Cap correct-path fetch at @p uops more trace uops (sampling:
     * each detailed window fetches exactly warmup + window uops, then
     * the core drains). Wrong-path fetch is unaffected — a mispredicted
     * branch at the end of a window still resolves normally. The
     * default budget is unlimited, which leaves every non-sampled code
     * path untouched.
     */
    void setFetchBudget(std::uint64_t uops) { ctx_[0]->fetchBudget = uops; }

    /** Remaining correct-path fetch budget. */
    std::uint64_t fetchBudget() const { return ctx_[0]->fetchBudget; }

    /** True when the thread holds no in-flight work at all: front-end
     *  pipe, ROB and SB empty, nothing pending in the memory system.
     *  With an exhausted fetch budget this is the end-of-window state
     *  the sampling loop waits for. */
    bool drained() const;

    /** Transplant functionally-warmed architectural state (sampling):
     *  TLB entries, and — when SPB is enabled — detector registers.
     *  Statistics are untouched. */
    void restoreWarmState(const TlbSnapshot &tlb,
                          const SpbDetectorState *detector);

    /** Hardware thread count. */
    int threads() const { return static_cast<int>(ctx_.size()); }

    // Per-thread views; @p tid defaults to thread 0, and the accessors
    // without one read thread 0.
    std::uint64_t
    committed(int tid = 0) const
    {
        return ctx_[tid]->stats.committedUops;
    }

    /** Smallest committed count over threads (run-completion check). */
    std::uint64_t minCommitted() const;

    const CoreStats &stats(int tid = 0) const { return ctx_[tid]->stats; }
    const StoreBuffer &
    storeBuffer(int tid = 0) const
    {
        return ctx_[tid]->sb;
    }
    const Tlb &dtlb() const { return ctx_[0]->dtlb; }
    const SpbEngine *
    spbEngine(int tid = 0) const
    {
        return ctx_[tid]->spb.get();
    }
    const CoreConfig &config() const { return config_; }

    /** Effective per-thread SB capacity (after partitioning and the
     *  ideal-SB override). */
    unsigned effectiveSbSize() const { return ctx_[0]->sb.capacity(); }

    /**
     * Attach a litmus event log: store drains and load completions of
     * every hardware thread are recorded as globally ordered MemEvents
     * (used by tests/litmus/; null in normal runs).
     */
    void setEventLog(check::EventLog *log);

  private:
    /** One hardware thread's private state. Built once by the
     *  constructor and never moved: SB and load callbacks hold its
     *  address. */
    struct Thread
    {
        Thread(int id, TraceSource *source, std::uint64_t rng_seed,
               unsigned sb_entries, CacheController *l1d, int core_id,
               const TlbParams &tlb_params)
            : tid(id), trace(source), rng(rng_seed),
              sb(sb_entries, l1d, core_id), dtlb(tlb_params)
        {
        }
        Thread(const Thread &) = delete;
        Thread &operator=(const Thread &) = delete;

        int tid; //!< index within the core
        TraceSource *trace;
        Rng rng; //!< wrong-path synthesis
        FetchRing fetchPipe;
        RobRing rob;
        StoreBuffer sb;
        Tlb dtlb;
        std::unique_ptr<SpbEngine> spb;

        // Scheduler state, indexed by ROB slot (RobRing::slotOf). It
        // changes only when readiness does: dispatch, issue, a
        // completion (timer or L1D callback) and squash.

        /** In the IQ with every producer complete: the select set. */
        SlotBitmap ready;
        /** Issued, not completed, not waiting on memory: these
         *  complete by timer (readyCycle), so the thread is never
         *  quiescent while any is set. */
        SlotBitmap timers;
        /** Row p: the IQ entries still waiting for slot p. */
        WakeupMatrix consumers;
        /** Per slot: producers not yet complete (0..2). */
        std::vector<std::uint8_t> waitingOn;
        /** Correct-path loads in flight to the L1D, in issue order;
         *  issuedAt never decreases along it, so the front is the
         *  oldest (exec-stall attribution). */
        SlotList loadsInFlight;

        SeqNum nextSeq = 1;
        std::uint64_t nextToken = 1;
        unsigned lqCount = 0;
        /** Lower bound on the earliest pending timer completion
         *  (kNeverCycle with none); gates the completion pass. Squash
         *  can leave it stale-low, which only costs one pass that
         *  completes nothing and recomputes it. */
        Cycle nextTimerCycle = kNeverCycle;
        unsigned intRegsFree = 0;
        unsigned fpRegsFree = 0;
        bool wrongPathMode = false;
        Addr lastDataAddr = 0x10000000;
        /** Correct-path uops fetch may still pull from the trace;
         *  kUnlimitedFetchBudget for non-sampled runs. */
        std::uint64_t fetchBudget = kUnlimitedFetchBudget;

        // Per-cycle stage state, reset by the stage that uses it.
        std::size_t issueScan = 0; //!< ROB index select resumes at
        unsigned dispatched = 0;   //!< uops dispatched this cycle

        check::InOrderChecker commitOrder; //!< ROB commits in order
        CoreStats stats;
    };

    /** Functional units and memory ports claimed this cycle. */
    struct FuUse
    {
        unsigned intAlu = 0;
        unsigned fpAlu = 0;
        unsigned mem = 0;
    };

    /**
     * Spend up to @p width slots of one shared pipeline stage: threads
     * take one slot each per round in rotating priority order, and a
     * thread drops out once @p slot reports it cannot progress this
     * cycle. Returns the slots used.
     */
    template <typename Slot>
    unsigned roundRobin(unsigned width, Slot &&slot);

    void completeAndRecover(Thread &t);
    void commitStage();
    bool commitOne(Thread &t);
    void issueStage();
    bool issueOne(Thread &t, FuUse &fu);
    void dispatchStage();
    bool dispatchOne(Thread &t);
    void fetchStage();
    bool fetchOne(Thread &t);

    /** True when producer @p seq has left the ROB or completed.
     *  kInvalidSeqNum (no dependence) maps to "done" via the same
     *  unsigned wrap that rejects committed/squashed seqs. */
    static bool
    producerDone(const Thread &t, SeqNum seq)
    {
        const std::size_t i = t.rob.indexOf(seq);
        return i == RobRing::npos ||
               (t.rob.flags(i) & robflags::kCompleted) != 0;
    }

    /** The readiness predicate the ready set caches (oracle only). */
    static bool
    sourcesReady(const Thread &t, std::size_t i)
    {
        return producerDone(t, t.rob.src1(i)) &&
               producerDone(t, t.rob.src2(i));
    }

    /** Make ROB slot @p consumer wait for producer @p seq if that is
     *  still in flight; returns 1 if it now waits, else 0. */
    static unsigned waitFor(Thread &t, std::size_t consumer, SeqNum seq);

    /** Slot @p p completed: wake the uops waiting only for it. */
    static void wakeConsumers(Thread &t, std::size_t p);

    /** Issue cycle of the oldest correct-path load in flight to the
     *  L1D, or kNeverCycle. */
    static Cycle
    oldestLoadIssuedAt(const Thread &t)
    {
        const std::size_t p = t.loadsInFlight.front();
        return p == SlotList::npos ? kNeverCycle : t.rob.slotIssuedAt(p);
    }

    // --check=full oracles: recompute from the ROB what the scheduler
    // state caches. They read state only.
    static bool readySetExact(const Thread &t);
    static bool timerSetExact(const Thread &t);
    static Cycle scanOldestLoadIssuedAt(const Thread &t);
    void checkScheduler() const;

    bool threadQuiescent(const Thread &t) const;

    /** skipQuiescentCycles with the last ticked cycle explicit: credit
     *  the ticks at cycles @p last_ticked + 1 .. @p last_ticked + @p n. */
    void creditQuiescentCycles(Cycle last_ticked, Cycle n);

    /** Credit the cycles after asleepSince() through @p last and wake. */
    void creditSleep(Cycle last);

    void squashAfter(Thread &t, SeqNum branch_seq);
    void startLoad(Thread &t, std::size_t i);
    void issueLoadToL1(Thread &t, SeqNum seq, std::uint64_t token);
    void execStore(Thread &t, std::size_t i);
    void recordLoadObserved(const Thread &t, std::size_t i, Cycle cycle,
                            SeqNum forwarded_from);
    MicroOp synthesizeWrongPath(Thread &t);
    StallResource dispatchBlocker(const Thread &t,
                                  const FetchedUop &f) const;

    CoreConfig config_;
    CoreParams p_; //!< shorthand for config_.params
    int coreId_;
    SimClock *clock_;
    CacheController *l1d_;

    // Per-thread shares of the statically partitioned structures.
    unsigned robPerThread_;
    unsigned lqPerThread_;
    unsigned fetchBufferPerThread_;

    std::vector<std::unique_ptr<Thread>> ctx_;
    unsigned iqInUse_ = 0; //!< shared IQ entries held by all threads
    int rotate_ = 0;       //!< thread with first pick this cycle
    Cycle asleepSince_ = kNeverCycle; //!< see asleepSince()
    Cycle sleptCycles_ = 0;           //!< see sleptCycles()
    check::EventLog *eventLog_ = nullptr; //!< litmus-only event sink
};

} // namespace spburst
