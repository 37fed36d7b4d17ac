#include "cpu/core.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/logging.hh"
#include "mem/cache_controller.hh"

namespace spburst
{

namespace
{

/** L1D hit latency used to decide "miss pending" (Top-Down metric). */
constexpr Cycle kL1HitLatency = 4;

} // namespace

const char *
stallResourceName(StallResource r)
{
    switch (r) {
      case StallResource::None: return "none";
      case StallResource::Rob: return "rob";
      case StallResource::Iq: return "iq";
      case StallResource::Lq: return "lq";
      case StallResource::Sb: return "sb";
      case StallResource::Regs: return "regs";
    }
    return "?";
}

std::uint64_t
CoreStats::totalDispatchStalls() const
{
    std::uint64_t total = 0;
    for (int r = 0; r < kNumStallResources; ++r)
        total += dispatchStalls[r];
    return total;
}

StatSet
CoreStats::toStatSet() const
{
    StatSet s;
    s.set("cycles", static_cast<double>(cycles));
    s.set("committed_uops", static_cast<double>(committedUops));
    s.set("committed_loads", static_cast<double>(committedLoads));
    s.set("committed_stores", static_cast<double>(committedStores));
    s.set("committed_branches", static_cast<double>(committedBranches));
    s.set("issued_uops", static_cast<double>(issuedUops));
    s.set("fetched_uops", static_cast<double>(fetchedUops));
    s.set("mispredicts", static_cast<double>(mispredicts));
    s.set("wrong_path_fetched", static_cast<double>(wrongPathFetched));
    s.set("wrong_path_loads", static_cast<double>(wrongPathLoadsIssued));
    s.set("squashed_uops", static_cast<double>(squashedUops));
    for (int r = 1; r < kNumStallResources; ++r) {
        s.set(std::string("stall_") +
                  stallResourceName(static_cast<StallResource>(r)),
              static_cast<double>(dispatchStalls[r]));
    }
    for (int r = 0; r < kNumRegions; ++r) {
        s.set(std::string("sb_stall_region_") +
                  regionName(static_cast<Region>(r)),
              static_cast<double>(sbStallsByRegion[r]));
    }
    s.set("no_issue_cycles", static_cast<double>(noIssueCycles));
    s.set("exec_stall_l1d_pending",
          static_cast<double>(execStallL1dPending));
    s.set("loads_to_l1", static_cast<double>(loadsToL1));
    s.set("ipc", cycles == 0 ? 0.0
                             : static_cast<double>(committedUops) /
                                   static_cast<double>(cycles));
    return s;
}

namespace
{

/** One thread's share of a statically partitioned structure: all of it
 *  on a single-threaded core, else an equal split with a floor. */
unsigned
perThreadShare(unsigned total, unsigned threads, unsigned floor)
{
    return threads == 1 ? total : std::max(floor, total / threads);
}

} // namespace

Core::Core(const CoreConfig &config, int core_id, SimClock *clock,
           CacheController *l1d, const std::vector<TraceSource *> &traces)
    : config_(config),
      p_(config.params),
      coreId_(core_id),
      clock_(clock),
      l1d_(l1d)
{
    const unsigned nt = static_cast<unsigned>(traces.size());
    SPB_ASSERT(clock != nullptr, "core needs a clock");
    SPB_ASSERT(nt >= 1 && nt <= kMaxThreads,
               "bad hardware thread count %u", nt);
    robPerThread_ = perThreadShare(p_.robSize, nt, 4);
    lqPerThread_ = perThreadShare(p_.lqSize, nt, 2);
    fetchBufferPerThread_ = perThreadShare(p_.fetchBufferUops, nt, 4);
    const unsigned sb_entries =
        config_.idealSb ? 1024 : perThreadShare(p_.sqSize, nt, 1);
    const StorePrefetchPolicy policy =
        config_.idealSb ? StorePrefetchPolicy::AtCommit : config_.policy;

    ctx_.reserve(nt);
    for (unsigned tid = 0; tid < nt; ++tid) {
        SPB_ASSERT(traces[tid] != nullptr, "core needs a trace per thread");
        // Thread 0 keeps the single-threaded seed; others mix in their id.
        const std::uint64_t seed =
            0xc0ffee ^ (static_cast<std::uint64_t>(core_id) << 32) ^
            (tid * 0x9e3779b97f4a7c15ull);
        auto t = std::make_unique<Thread>(static_cast<int>(tid),
                                          traces[tid], seed, sb_entries,
                                          l1d_, coreId_, p_.tlb);
        t->rob.reset(robPerThread_);
        const std::size_t slots = t->rob.capacity();
        t->ready.reset(slots);
        t->timers.reset(slots);
        t->consumers.reset(slots);
        t->waitingOn.assign(slots, 0);
        t->loadsInFlight.reset(slots);
        t->fetchPipe.reset(fetchBufferPerThread_);
        t->intRegsFree = perThreadShare(p_.intRegs, nt, 8);
        t->fpRegsFree = perThreadShare(p_.fpRegs, nt, 8);
        t->sb.setOwner(this);
        t->sb.setPrefetchAtCommit(policy == StorePrefetchPolicy::AtCommit);
        t->sb.setCoalescing(config_.coalescingSb);
        if (config_.useSpb) {
            t->spb = std::make_unique<SpbEngine>(config_.spb, l1d_, coreId_);
            t->sb.setSpbEngine(t->spb.get());
        }
        ctx_.push_back(std::move(t));
    }
}

Core::Core(const CoreConfig &config, int core_id, SimClock *clock,
           CacheController *l1d, TraceSource *trace)
    : Core(config, core_id, clock, l1d, std::vector<TraceSource *>{trace})
{
}

void
Core::setEventLog(check::EventLog *log)
{
    eventLog_ = log;
    for (auto &t : ctx_)
        t->sb.setEventLog(log, t->tid, clock_);
}

std::uint64_t
Core::minCommitted() const
{
    std::uint64_t least = ctx_[0]->stats.committedUops;
    for (const auto &t : ctx_)
        least = std::min(least, t->stats.committedUops);
    return least;
}

template <typename Slot>
unsigned
Core::roundRobin(unsigned width, Slot &&slot)
{
    const int nt = threads();
    std::uint32_t live = (1u << nt) - 1; // threads that may progress
    unsigned used = 0;
    while (used < width && live != 0) {
        for (int k = 0; k < nt && used < width; ++k) {
            const int tid = rotate_ + k < nt ? rotate_ + k : rotate_ + k - nt;
            if ((live >> tid & 1u) == 0)
                continue;
            if (slot(*ctx_[tid]))
                ++used;
            else
                live &= ~(1u << tid);
        }
    }
    return used;
}

void
Core::tick()
{
    const Cycle now = clock_->now;
    for (auto &tp : ctx_) {
        Thread &t = *tp;
        ++t.stats.cycles;
        // Branches complete only by timer, and recovery runs in the
        // call that completes them, so nothing is due while every
        // pending timer is still in the future (memory completions
        // mark entries completed and wake their consumers directly).
        if (now >= t.nextTimerCycle)
            completeAndRecover(t);
    }
    commitStage();
    issueStage();
    dispatchStage();
    fetchStage();
    for (auto &t : ctx_)
        t->sb.tick(now);
    if (++rotate_ == threads())
        rotate_ = 0;
    if (check::full())
        checkScheduler();
}

unsigned
Core::waitFor(Thread &t, std::size_t consumer, SeqNum seq)
{
    const std::size_t i = t.rob.indexOf(seq);
    if (i == RobRing::npos || (t.rob.flags(i) & robflags::kCompleted) != 0)
        return 0;
    t.consumers.add(t.rob.slotOf(i), consumer);
    return 1;
}

void
Core::wakeConsumers(Thread &t, std::size_t p)
{
    t.consumers.drainRow(p, [&t](std::size_t c) {
        if (--t.waitingOn[c] == 0)
            t.ready.set(c);
    });
}

bool
Core::readySetExact(const Thread &t)
{
    // Every live entry agrees, and no bit is set outside them.
    std::size_t expected = 0;
    for (std::size_t i = 0; i < t.rob.size(); ++i) {
        const bool ready = (t.rob.flags(i) & robflags::kInIq) != 0 &&
                           sourcesReady(t, i);
        if (ready != t.ready.test(t.rob.slotOf(i)))
            return false;
        expected += ready ? 1 : 0;
    }
    return t.ready.count() == expected;
}

bool
Core::timerSetExact(const Thread &t)
{
    constexpr std::uint8_t care =
        robflags::kIssued | robflags::kCompleted | robflags::kMemPending;
    std::size_t expected = 0;
    for (std::size_t i = 0; i < t.rob.size(); ++i) {
        const bool timer = (t.rob.flags(i) & care) == robflags::kIssued;
        if (timer != t.timers.test(t.rob.slotOf(i)))
            return false;
        expected += timer ? 1 : 0;
    }
    return t.timers.count() == expected;
}

Cycle
Core::scanOldestLoadIssuedAt(const Thread &t)
{
    constexpr std::uint8_t care = robflags::kMemPending | robflags::kWrongPath;
    Cycle oldest = kNeverCycle;
    for (std::size_t i = 0; i < t.rob.size(); ++i)
        if ((t.rob.flags(i) & care) == robflags::kMemPending)
            oldest = std::min(oldest, t.rob.issuedAt(i));
    return oldest;
}

void
Core::checkScheduler() const
{
    for (const auto &tp : ctx_) {
        const Thread &t = *tp;
        SPBURST_CHECK_SLOW(Pipeline, readySetExact(t),
                           "core %d thread %d: ready set differs from "
                           "in-IQ entries with every producer complete",
                           coreId_, t.tid);
        SPBURST_CHECK_SLOW(Pipeline, timerSetExact(t),
                           "core %d thread %d: timer set differs from "
                           "issued, uncompleted, non-memory entries",
                           coreId_, t.tid);
        SPBURST_CHECK_SLOW(
            Pipeline, oldestLoadIssuedAt(t) == scanOldestLoadIssuedAt(t),
            "core %d thread %d: oldest in-flight load issued at %llu, "
            "tracked %llu",
            coreId_, t.tid,
            static_cast<unsigned long long>(scanOldestLoadIssuedAt(t)),
            static_cast<unsigned long long>(oldestLoadIssuedAt(t)));
    }
}

bool
Core::quiescent() const
{
    for (const auto &t : ctx_)
        if (!threadQuiescent(*t))
            return false;
    return true;
}

bool
Core::threadQuiescent(const Thread &t) const
{
    // Something completes by timer.
    if (t.timers.any())
        return false;
    // Fetch would make progress (an exhausted fetch budget blocks
    // correct-path fetch, but never wrong-path synthesis).
    if (t.fetchPipe.size() < fetchBufferPerThread_ &&
        (t.wrongPathMode || t.fetchBudget != 0))
        return false;
    // Commit would make progress.
    if (!t.rob.empty() && (t.rob.flags(0) & robflags::kCompleted) != 0)
        return false;
    // Dispatch would make progress — either the head is still
    // traversing the front end (it matures at a known future cycle) or
    // no resource blocks it. With the fetch budget exhausted the pipe
    // can be empty; dispatch then has no work at all.
    if (!t.fetchPipe.empty()) {
        const FetchedUop &f = t.fetchPipe.front();
        if (clock_->now < f.fetchCycle + p_.frontEndDepth)
            return false;
        if (dispatchBlocker(t, f) == StallResource::None)
            return false;
    }
    // The SB head would start a drain.
    if (!t.sb.quiescent())
        return false;
    // Issue would make progress (with no timers pending, completions
    // that could wake more entries arrive only via memory events).
    return !t.ready.any();
}

void
Core::skipQuiescentCycles(Cycle n)
{
    creditQuiescentCycles(clock_->now, n);
}

void
Core::creditSleep(Cycle last)
{
    const Cycle from = asleepSince_;
    SPB_ASSERT(last >= from,
               "core %d woken during the ticks of cycle %llu: callbacks "
               "into a core must run from events",
               coreId_, static_cast<unsigned long long>(from));
    asleepSince_ = kNeverCycle;
    sleptCycles_ += last - from;
    creditQuiescentCycles(from, last - from);
}

void
Core::creditQuiescentCycles(Cycle last_ticked, Cycle n)
{
    for (auto &tp : ctx_) {
        Thread &t = *tp;
        t.stats.cycles += n;
        if (!t.rob.empty()) {
            t.stats.noIssueCycles += n;
            // The exec-stall condition (an outstanding correct-path L1D
            // load older than the hit latency) is time-dependent: it
            // can become true mid-skip, at minIssuedAt + hitLatency + 1.
            const Cycle min_issued = oldestLoadIssuedAt(t);
            if (min_issued != kNeverCycle) {
                const Cycle t0 = min_issued + kL1HitLatency + 1;
                const Cycle last = last_ticked + n;
                if (last >= t0) {
                    const Cycle from = std::max(last_ticked + 1, t0);
                    t.stats.execStallL1dPending += last - from + 1;
                }
            }
        }
        // Quiescence guarantees a mature, resource-blocked dispatch
        // head — unless the fetch budget ran out and the pipe is empty
        // (sampling drain), in which case a tick would accrue no
        // dispatch stall.
        if (!t.fetchPipe.empty()) {
            const StallResource blocker =
                dispatchBlocker(t, t.fetchPipe.front());
            SPB_ASSERT(blocker != StallResource::None,
                       "quiescent cycles credited to a dispatchable core");
            t.stats.dispatchStalls[static_cast<int>(blocker)] += n;
            if (blocker == StallResource::Sb) {
                t.stats.sbStallsByRegion[static_cast<int>(
                    t.sb.headRegion())] += n;
            }
        }
        t.sb.skipCycles(n);
    }
    rotate_ = static_cast<int>((static_cast<Cycle>(rotate_) + n) %
                               static_cast<Cycle>(threads()));
}

bool
Core::drained() const
{
    const Thread &t = *ctx_[0];
    return t.fetchPipe.empty() && t.rob.empty() && t.sb.size() == 0 &&
           !t.wrongPathMode;
}

void
Core::restoreWarmState(const TlbSnapshot &tlb,
                       const SpbDetectorState *detector)
{
    SPB_ASSERT(drained(), "warm-state load into a busy core");
    Thread &t = *ctx_[0];
    t.dtlb.restoreEntries(tlb);
    if (t.spb && detector != nullptr)
        t.spb->restoreDetectorState(*detector);
}

void
Core::completeAndRecover(Thread &t)
{
    const Cycle now = clock_->now;
    Cycle next = kNeverCycle;
    std::size_t recover = RobRing::npos;
    // Retire the due timers, remember the earliest pending one, and
    // pick the oldest correct-path mispredicted branch completing
    // here. That is the oldest unrecovered resolved one in the ROB:
    // branches complete only in this pass, and its recovery squashes
    // every younger one.
    t.timers.forEach([&](std::size_t p) {
        const Cycle ready = t.rob.slotReadyCycle(p);
        if (ready > now) {
            next = std::min(next, ready);
            return;
        }
        t.timers.clear(p);
        std::uint8_t &f = t.rob.slotFlags(p);
        f |= robflags::kCompleted;
        wakeConsumers(t, p);
        const MicroOp &op = t.rob.slotOp(p);
        if ((f & robflags::kWrongPath) == 0 && op.cls == OpClass::Branch &&
            op.mispredicted)
            recover = std::min(recover, t.rob.indexOfSlot(p));
    });
    t.nextTimerCycle = next;
    // Mispredict recovery: that branch squashes everything younger and
    // redirects the front end.
    if (recover != RobRing::npos) {
        ++t.stats.mispredicts;
        squashAfter(t, t.rob.seqAt(recover));
    }
}

void
Core::squashAfter(Thread &t, SeqNum branch_seq)
{
    while (!t.rob.empty() && t.rob.backSeq() > branch_seq) {
        const std::size_t i = t.rob.size() - 1;
        const std::size_t p = t.rob.slotOf(i);
        const std::uint8_t f = t.rob.flags(i);
        // Younger uops went first, so nothing waits on this one; it
        // leaves the ready set and its producers' consumer rows.
        if (f & robflags::kInIq) {
            --iqInUse_;
            t.ready.clear(p);
            for (const SeqNum src : {t.rob.src1(i), t.rob.src2(i)}) {
                const std::size_t j = t.rob.indexOf(src);
                if (j != RobRing::npos)
                    t.consumers.remove(t.rob.slotOf(j), p);
            }
        }
        if ((f & (robflags::kIssued | robflags::kCompleted)) ==
            robflags::kIssued) {
            if (f & robflags::kMemPending) {
                if (!(f & robflags::kWrongPath))
                    t.loadsInFlight.erase(p);
            } else {
                t.timers.clear(p);
            }
        }
        const MicroOp &op = t.rob.op(i);
        if (op.cls == OpClass::Load)
            --t.lqCount;
        if (op.hasDest) {
            if (isFloatOp(op.cls))
                ++t.fpRegsFree;
            else
                ++t.intRegsFree;
        }
        ++t.stats.squashedUops;
        t.rob.popBack();
    }
    t.sb.squashFrom(branch_seq + 1);
    t.fetchPipe.clear();
    t.wrongPathMode = false;
    // Reuse the squashed uops' sequence numbers: the ROB's seq range
    // must stay contiguous for O(1) lookup. Stale memory callbacks are
    // fended off by the per-entry token.
    t.nextSeq = branch_seq + 1;
}

void
Core::commitStage()
{
    roundRobin(p_.commitWidth, [this](Thread &t) { return commitOne(t); });
}

bool
Core::commitOne(Thread &t)
{
    if (t.rob.empty())
        return false;
    const std::uint8_t f = t.rob.flags(0);
    if (!(f & robflags::kCompleted))
        return false;
    const SeqNum seq = t.rob.frontSeq();
    SPB_ASSERT(!(f & robflags::kWrongPath), "wrong-path uop reached commit");
    SPBURST_CHECK(Pipeline, t.commitOrder.observe(seq),
                  "ROB committed %llu after %llu (out of order)",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(t.commitOrder.last()));
    const MicroOp &op = t.rob.op(0);
    switch (op.cls) {
      case OpClass::Store:
        t.sb.markSenior(seq);
        ++t.stats.committedStores;
        break;
      case OpClass::Load:
        --t.lqCount;
        ++t.stats.committedLoads;
        break;
      case OpClass::Branch:
        ++t.stats.committedBranches;
        break;
      default:
        break;
    }
    if (op.hasDest) {
        if (isFloatOp(op.cls))
            ++t.fpRegsFree;
        else
            ++t.intRegsFree;
    }
    ++t.stats.committedUops;
    t.rob.popFront();
    return true;
}

void
Core::startLoad(Thread &t, std::size_t i)
{
    const Cycle now = clock_->now;
    const MicroOp &op = t.rob.op(i);
    const SeqNum seq = t.rob.seqAt(i);
    // Address generation includes translation: a DTLB miss delays the
    // access by the page-walk latency.
    const Cycle walk = t.dtlb.access(op.addr);
    const SeqNum fwd = t.sb.forwards(seq, op.addr, op.size);
    if (fwd != kInvalidSeqNum) {
        t.rob.readyCycle(i) = now + walk + kL1HitLatency; // fwd ~ L1 hit
        recordLoadObserved(t, i, t.rob.readyCycle(i), fwd);
        return;
    }
    if (!l1d_) {
        ++t.stats.loadsToL1;
        t.rob.readyCycle(i) = now + walk + kL1HitLatency; // detached mode
        recordLoadObserved(t, i, t.rob.readyCycle(i), kInvalidSeqNum);
        return;
    }
    t.rob.flags(i) |= robflags::kMemPending;
    if (!(t.rob.flags(i) & robflags::kWrongPath))
        t.loadsInFlight.pushBack(t.rob.slotOf(i));
    const std::uint64_t token = t.rob.token(i);
    if (walk == 0) {
        issueLoadToL1(t, seq, token);
        return;
    }
    Thread *const tp = &t;
    clock_->events.schedule(now + walk, [this, tp, seq, token] {
        wake();
        issueLoadToL1(*tp, seq, token);
    });
}

void
Core::issueLoadToL1(Thread &t, SeqNum seq, std::uint64_t token)
{
    const std::size_t i = t.rob.indexOf(seq);
    if (i == RobRing::npos || t.rob.token(i) != token ||
        !(t.rob.flags(i) & robflags::kMemPending))
        return; // squashed while the page walk was in flight
    ++t.stats.loadsToL1;
    const bool wrong_path = (t.rob.flags(i) & robflags::kWrongPath) != 0;
    if (wrong_path)
        ++t.stats.wrongPathLoadsIssued;
    const MicroOp &op = t.rob.op(i);
    MemRequest req;
    req.cmd = MemCmd::ReadReq;
    req.blockAddr = blockAlign(op.addr);
    req.core = coreId_;
    req.region = op.region;
    req.wrongPath = wrong_path;
    Thread *const tp = &t;
    l1d_->issueLoad(req, [this, tp, seq, token] {
        wake();
        Thread &th = *tp;
        const std::size_t j = th.rob.indexOf(seq);
        if (j == RobRing::npos || th.rob.token(j) != token ||
            !(th.rob.flags(j) & robflags::kMemPending))
            return; // squashed (and possibly re-used) in the meantime
        const std::size_t p = th.rob.slotOf(j);
        std::uint8_t &f = th.rob.slotFlags(p);
        f = static_cast<std::uint8_t>(
            (f & ~robflags::kMemPending) | robflags::kCompleted);
        if (!(f & robflags::kWrongPath))
            th.loadsInFlight.erase(p);
        th.rob.slotReadyCycle(p) = clock_->now;
        wakeConsumers(th, p);
        recordLoadObserved(th, j, clock_->now, kInvalidSeqNum);
    });
}

void
Core::execStore(Thread &t, std::size_t i)
{
    const MicroOp &op = t.rob.op(i);
    const SeqNum seq = t.rob.seqAt(i);
    t.sb.setAddress(seq, op.addr, op.size);
    // Stores translate at address generation too.
    t.rob.readyCycle(i) = clock_->now + p_.aguLat + t.dtlb.access(op.addr);
    const StorePrefetchPolicy policy =
        config_.idealSb ? StorePrefetchPolicy::AtCommit : config_.policy;
    if (policy == StorePrefetchPolicy::AtExecute && l1d_) {
        // Speculative prefetch for ownership as soon as the address is
        // known — wrong-path stores prefetch too (the policy's cost).
        MemRequest pf;
        pf.cmd = MemCmd::StorePF;
        pf.blockAddr = blockAlign(op.addr);
        pf.core = coreId_;
        pf.region = op.region;
        l1d_->issueStorePrefetch(pf);
    }
}

void
Core::recordLoadObserved(const Thread &t, std::size_t i, Cycle cycle,
                         SeqNum forwarded_from)
{
    if (!eventLog_ || (t.rob.flags(i) & robflags::kWrongPath))
        return;
    check::MemEvent ev;
    ev.kind = check::MemEvent::Kind::LoadObserved;
    ev.thread = t.tid;
    ev.seq = t.rob.seqAt(i);
    ev.addr = t.rob.op(i).addr;
    ev.size = t.rob.op(i).size;
    ev.cycle = cycle;
    ev.forwardedFrom = forwarded_from;
    eventLog_->record(ev);
}

void
Core::issueStage()
{
    // Oldest-first within a thread. No memory callback runs inside
    // this stage (even an L1D hit completes in a later event), so
    // nothing select has passed can become issuable again this cycle:
    // each thread's ready set is walked at most once.
    for (auto &t : ctx_)
        t->issueScan = 0;
    FuUse fu;
    const unsigned issued = roundRobin(
        p_.issueWidth, [this, &fu](Thread &t) { return issueOne(t, fu); });
    if (issued != 0)
        return;

    const Cycle now = clock_->now;
    for (auto &tp : ctx_) {
        Thread &t = *tp;
        if (t.rob.empty())
            continue;
        ++t.stats.noIssueCycles;
        const Cycle oldest = oldestLoadIssuedAt(t);
        if (oldest != kNeverCycle && now > oldest + kL1HitLatency)
            ++t.stats.execStallL1dPending;
    }
}

bool
Core::issueOne(Thread &t, FuUse &fu)
{
    const Cycle now = clock_->now;
    for (std::size_t i = t.rob.findFrom(t.ready, t.issueScan);
         i != RobRing::npos; i = t.rob.findFrom(t.ready, i + 1)) {
        const OpClass cls = t.rob.op(i).cls;
        if (isMemOp(cls)) {
            if (fu.mem >= p_.memPorts)
                continue;
        } else if (isFloatOp(cls)) {
            if (fu.fpAlu >= p_.fpAluCount ||
                fu.intAlu + fu.fpAlu >= p_.intAluCount)
                continue;
        } else {
            if (fu.intAlu + fu.fpAlu >= p_.intAluCount)
                continue;
        }

        t.issueScan = i + 1;
        const std::size_t p = t.rob.slotOf(i);
        t.ready.clear(p);
        t.rob.flags(i) = static_cast<std::uint8_t>(
            (t.rob.flags(i) & ~robflags::kInIq) | robflags::kIssued);
        --iqInUse_;
        t.rob.issuedAt(i) = now;
        ++t.stats.issuedUops;

        if (cls == OpClass::Load) {
            ++fu.mem;
            startLoad(t, i);
        } else if (cls == OpClass::Store) {
            ++fu.mem;
            execStore(t, i);
        } else if (isFloatOp(cls)) {
            ++fu.fpAlu;
            t.rob.readyCycle(i) = now + p_.opLatency(cls);
        } else {
            ++fu.intAlu;
            t.rob.readyCycle(i) = now + p_.opLatency(cls);
        }
        // Everything but a load that went to memory completes by
        // timer; track the earliest such timer for the completion gate.
        if (!(t.rob.flags(i) & robflags::kMemPending)) {
            t.timers.set(p);
            if (t.rob.readyCycle(i) < t.nextTimerCycle)
                t.nextTimerCycle = t.rob.readyCycle(i);
        }
        return true;
    }
    t.issueScan = t.rob.size();
    return false;
}

StallResource
Core::dispatchBlocker(const Thread &t, const FetchedUop &f) const
{
    if (t.rob.size() >= robPerThread_)
        return StallResource::Rob;
    if (iqInUse_ >= p_.iqSize)
        return StallResource::Iq;
    if (f.op.cls == OpClass::Load && t.lqCount >= lqPerThread_)
        return StallResource::Lq;
    if (f.op.cls == OpClass::Store && t.sb.full())
        return StallResource::Sb;
    if (f.op.hasDest) {
        if (isFloatOp(f.op.cls) && t.fpRegsFree == 0)
            return StallResource::Regs;
        if (!isFloatOp(f.op.cls) && t.intRegsFree == 0)
            return StallResource::Regs;
    }
    return StallResource::None;
}

void
Core::dispatchStage()
{
    for (auto &t : ctx_)
        t->dispatched = 0;
    roundRobin(p_.dispatchWidth,
               [this](Thread &t) { return dispatchOne(t); });
}

bool
Core::dispatchOne(Thread &t)
{
    if (t.fetchPipe.empty())
        return false;
    FetchedUop &f = t.fetchPipe.front();
    if (clock_->now < f.fetchCycle + p_.frontEndDepth)
        return false; // still traversing the front end
    const StallResource blocker = dispatchBlocker(t, f);
    if (blocker != StallResource::None) {
        // A thread is charged only in a cycle it dispatched nothing.
        if (t.dispatched == 0) {
            ++t.stats.dispatchStalls[static_cast<int>(blocker)];
            if (blocker == StallResource::Sb) {
                ++t.stats.sbStallsByRegion[static_cast<int>(
                    t.sb.headRegion())];
            }
        }
        return false;
    }

    const SeqNum seq = t.nextSeq++;
    const std::size_t i = t.rob.pushBack(seq, t.nextToken++);
    t.rob.op(i) = f.op;
    t.rob.flags(i) = static_cast<std::uint8_t>(
        robflags::kInIq | (f.wrongPath ? robflags::kWrongPath : 0));
    auto to_seq = [seq](std::uint8_t dist) {
        return dist == 0 || seq <= dist ? kInvalidSeqNum : seq - dist;
    };
    const SeqNum src1 = to_seq(f.op.srcDist1);
    const SeqNum src2 = to_seq(f.op.srcDist2);
    t.rob.src1(i) = src1;
    t.rob.src2(i) = src2;
    // Wakeup: wait on each distinct producer still in flight.
    const std::size_t p = t.rob.slotOf(i);
    const unsigned waiting =
        waitFor(t, p, src1) + (src2 != src1 ? waitFor(t, p, src2) : 0);
    t.waitingOn[p] = static_cast<std::uint8_t>(waiting);
    if (waiting == 0)
        t.ready.set(p);
    ++iqInUse_;
    if (f.op.cls == OpClass::Load)
        ++t.lqCount;
    if (f.op.cls == OpClass::Store)
        t.sb.allocate(seq, f.op.region, f.wrongPath);
    if (f.op.hasDest) {
        if (isFloatOp(f.op.cls))
            --t.fpRegsFree;
        else
            --t.intRegsFree;
    }
    t.fetchPipe.popFront();
    ++t.dispatched;
    return true;
}

MicroOp
Core::synthesizeWrongPath(Thread &t)
{
    const std::uint64_t r = t.rng.below(100);
    const std::uint64_t pc = 0x00660000 + t.rng.below(64) * 4;
    if (r < 55)
        return uops::alu(pc, 1);
    // Wrong-path memory ops wander around the recently touched data
    // (+-1 MiB): close enough to pollute the caches, too scattered to
    // act as a useful prefetcher for the correct path.
    auto wander = [&t] {
        const Addr span = 2ULL << 20;
        const Addr off = t.rng.below(span);
        const Addr base = t.lastDataAddr > (span / 2)
                              ? t.lastDataAddr - span / 2
                              : t.lastDataAddr;
        return (base + off) & ~Addr{7};
    };
    if (r < 80)
        return uops::load(pc, wander());
    if (r < 90)
        return uops::store(pc, wander());
    return uops::branch(pc, false, 1);
}

void
Core::fetchStage()
{
    roundRobin(p_.fetchWidth, [this](Thread &t) { return fetchOne(t); });
}

bool
Core::fetchOne(Thread &t)
{
    if (t.fetchPipe.size() >= fetchBufferPerThread_)
        return false;
    FetchedUop f;
    f.fetchCycle = clock_->now;
    f.wrongPath = t.wrongPathMode;
    if (t.wrongPathMode) {
        f.op = synthesizeWrongPath(t);
        ++t.stats.wrongPathFetched;
    } else {
        if (t.fetchBudget == 0)
            return false;
        if (t.fetchBudget != kUnlimitedFetchBudget)
            --t.fetchBudget;
        f.op = t.trace->next();
        if (isMemOp(f.op.cls))
            t.lastDataAddr = f.op.addr;
        if (f.op.cls == OpClass::Branch && f.op.mispredicted)
            t.wrongPathMode = true;
    }
    ++t.stats.fetchedUops;
    t.fetchPipe.pushBack(std::move(f));
    return true;
}

} // namespace spburst
