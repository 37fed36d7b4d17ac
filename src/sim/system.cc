#include "sim/system.hh"

#include <map>

#include "common/logging.hh"
#include "prefetch/dspatch.hh"
#include "sample/runtime.hh"
#include "trace/champsim/source.hh"

namespace spburst
{

const char *
l1PrefetcherKindName(L1PrefetcherKind kind)
{
    switch (kind) {
      case L1PrefetcherKind::None: return "none";
      case L1PrefetcherKind::Stream: return "stream";
      case L1PrefetcherKind::Aggressive: return "aggressive";
      case L1PrefetcherKind::Adaptive: return "adaptive";
      case L1PrefetcherKind::BestOffset: return "best-offset";
      case L1PrefetcherKind::DSPatch: return "dspatch";
    }
    return "?";
}

double
SimResult::ipc() const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(committedUops()) /
           static_cast<double>(cycles);
}

std::uint64_t
SimResult::committedUops() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.committedUops;
    return total;
}

double
SimResult::sbStallRatio() const
{
    if (cycles == 0 || cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &c : cores)
        sum += static_cast<double>(c.sbStalls()) /
               static_cast<double>(cycles);
    return sum / static_cast<double>(cores.size());
}

std::uint64_t
SimResult::sbStalls() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.sbStalls();
    return total;
}

std::uint64_t
SimResult::totalIssueStalls() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.totalDispatchStalls();
    return total;
}

std::uint64_t
SimResult::execStallsL1d() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.execStallL1dPending;
    return total;
}

StatSet
SimResult::toStatSet() const
{
    StatSet s;
    s.set("cycles", static_cast<double>(cycles));
    s.set("ipc", ipc());
    s.set("sb_stall_ratio", sbStallRatio());
    const std::size_t smt = threadsPerCore();
    for (std::size_t c = 0; c < l1d.size(); ++c) {
        const std::string core = std::to_string(c);
        auto thread_prefix = [&](const char *what, std::size_t m) {
            return what + core +
                   (smt > 1 ? ".t" + std::to_string(m) + "." : ".");
        };
        for (std::size_t m = 0; m < smt; ++m)
            s.merge(thread_prefix("core", m), cores[c * smt + m].toStatSet());
        s.merge("l1d" + core + ".", l1d[c].toStatSet());
        for (std::size_t m = 0; m < smt; ++m)
            if (c * smt + m < trace.size())
                s.merge(thread_prefix("trace", m), trace[c * smt + m]);
    }
    if (!pf.entries().empty())
        s.merge("pf.", pf);
    if (!sample.entries().empty())
        s.merge("sample.", sample);
    s.set("dram.reads", static_cast<double>(dramReads));
    s.set("dram.writes", static_cast<double>(dramWrites));
    s.set("energy.cache_dynamic_pj", energy.cacheDynamicPj);
    s.set("energy.core_dynamic_pj", energy.coreDynamicPj);
    s.set("energy.leakage_pj", energy.leakagePj);
    s.set("energy.total_pj", energy.totalPj());
    s.merge("check.", checks.toStatSet());
    return s;
}

System::System(const SystemConfig &config)
    : config_(config),
      mem_([&config] {
          MemSystemParams m = config.mem;
          m.cores = config.threads;
          return m;
      }(), &clock_)
{
    SPB_ASSERT(config_.threads >= 1, "need at least one thread");
    if (config_.smtThreads < 1 || config_.smtThreads > Core::kMaxThreads)
        SPB_FATAL("unsupported SMT thread count %d (1..%d)",
                  config_.smtThreads, Core::kMaxThreads);

    // Either a ChampSim trace replay ("trace:PATH[,...]") or one of the
    // synthetic workload profiles.
    const bool is_trace = champsim::isTraceWorkload(config_.workload);
    champsim::TraceSpec trace_spec;
    const ProfileParams *profile = nullptr;
    if (is_trace)
        trace_spec = champsim::parseTraceWorkload(config_.workload);
    else
        profile = &findProfile(config_.workload);

    // Third execution mode: interval sampling. Decides here whether
    // this run warms live or replays an architectural checkpoint.
    if (config_.sample.enabled())
        setupSampling();

    CoreConfig core_config;
    core_config.params = config_.coreParams;
    if (config_.sbSize != 0)
        core_config.params.sqSize = config_.sbSize;
    core_config.policy = config_.policy;
    core_config.useSpb = config_.useSpb;
    core_config.spb = config_.spb;
    core_config.idealSb = config_.idealSb;
    core_config.coalescingSb = config_.coalescingSb;

    for (int t = 0; t < config_.threads; ++t) {
        if (config_.l1Prefetcher != L1PrefetcherKind::None) {
            // The L1 always runs the Table I stream prefetcher; the
            // aggressive/adaptive FDP schemes are L2 prefetchers (as
            // in Srinath et al.), trained on the L1 miss stream.
            prefetchers_.push_back(std::make_unique<StreamPrefetcher>(
                PrefetcherMode::Stream));
            mem_.l1d(t).setPrefetcher(prefetchers_.back().get());
            if (config_.l1Prefetcher == L1PrefetcherKind::Aggressive ||
                config_.l1Prefetcher == L1PrefetcherKind::Adaptive) {
                l2Prefetchers_.push_back(
                    std::make_unique<StreamPrefetcher>(
                        config_.l1Prefetcher ==
                                L1PrefetcherKind::Aggressive
                            ? PrefetcherMode::Aggressive
                            : PrefetcherMode::Adaptive));
                mem_.l2(t).setPrefetcher(l2Prefetchers_.back().get());
            } else if (config_.l1Prefetcher ==
                       L1PrefetcherKind::BestOffset) {
                l2Prefetchers_.push_back(
                    std::make_unique<BestOffsetPrefetcher>());
                mem_.l2(t).setPrefetcher(l2Prefetchers_.back().get());
            } else if (config_.l1Prefetcher ==
                       L1PrefetcherKind::DSPatch) {
                auto dspatch = std::make_unique<DSPatchPrefetcher>();
                // Bandwidth modulation reads simulated DRAM counters
                // only, so results stay deterministic.
                dspatch->setDramProbe(&mem_.dram(), &clock_);
                mem_.l2(t).setPrefetcher(dspatch.get());
                l2Prefetchers_.push_back(std::move(dspatch));
            }
        }

        std::vector<TraceSource *> sources;
        for (int m = 0; m < config_.smtThreads; ++m) {
            if (sample_ && sample_->replay) {
                // Checkpoint replay: the recorded window uop streams
                // feed the core directly; the real decoder is never
                // opened.
                auto replay = std::make_unique<sample::ReplaySource>(
                    config_.workload);
                sample_->replaySource = replay.get();
                traces_.push_back(std::move(replay));
            } else if (is_trace) {
                auto src = std::make_unique<champsim::TraceReplaySource>(
                    trace_spec, t * config_.smtThreads + m);
                // Decode stats are path-dependent in sampled mode (the
                // replay path never decodes), so sampled results omit
                // them.
                if (!sample_)
                    champSources_.push_back(src.get());
                traces_.push_back(std::move(src));
            } else {
                traces_.push_back(buildWorkload(*profile, config_.seed + m,
                                                t, config_.threads));
            }
            if (sample_ && !sample_->replay) {
                // Live warming: every uop anyone pulls flows through
                // the warm image.
                auto warming = std::make_unique<sample::WarmingSource>(
                    traces_.back().get(), sample_->image.get());
                sample_->observer = warming.get();
                traces_.push_back(std::move(warming));
            }
            sources.push_back(traces_.back().get());
        }
        cores_.push_back(std::make_unique<Core>(core_config, t, &clock_,
                                                &mem_.l1d(t), sources));
    }

    // Per-run check-counter deltas: the experiment engine constructs
    // and runs each System on one host thread, so the thread-local
    // counters captured here bracket exactly this run.
    checkBase_ = check::counters();
}

System::~System() = default;

void
System::stepCycle()
{
    clock_.tick();
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        Core &core = *cores_[c];
        if (core.asleep()) {
            // Every callback into a core wakes it first, so a core
            // still asleep after this cycle's events is unchanged.
            SPBURST_CHECK_SLOW(
                Pipeline, core.quiescent(),
                "core %zu asleep since cycle %llu is not quiescent at "
                "cycle %llu: something changed it without waking it",
                c, static_cast<unsigned long long>(core.asleepSince()),
                static_cast<unsigned long long>(clock_.now));
            continue;
        }
        core.tick();
        if (config_.fastForward && core.quiescent())
            core.sleep();
    }
}

SimResult
System::run()
{
    return run({});
}

SimResult
System::run(const std::function<bool()> &interrupt)
{
    if (sample_)
        return runSampled(interrupt);
    const std::uint64_t target = config_.maxUopsPerCore;
    auto all_done = [&] {
        for (const auto &core : cores_)
            if (core->minCommitted() < target)
                return false;
        return true;
    };
    advanceUntil(all_done, cycleLimit(0, target), "simulation", interrupt);
    return finishRun();
}

Cycle
System::cycleLimit(Cycle from, std::uint64_t uops) const
{
    Cycle limit = 0;
    if (__builtin_mul_overflow(uops, config_.cyclesPerUopLimit, &limit) ||
        __builtin_add_overflow(limit, Cycle{100'000}, &limit) ||
        __builtin_add_overflow(limit, from, &limit))
        return kNeverCycle;
    return limit;
}

void
System::fastForward(const char *phase)
{
    for (const auto &core : cores_)
        if (!core->asleep())
            return;
    const Cycle next = clock_.events.nextEventCycle();
    if (next <= clock_.now + 1)
        return;
    if (next == kNeverCycle) {
        SPB_FATAL("%s of '%s' deadlocked at cycle %llu: every core is "
                  "quiescent and the event queue is empty (%llu/%llu "
                  "uops on core 0)",
                  phase, config_.workload.c_str(),
                  static_cast<unsigned long long>(clock_.now),
                  static_cast<unsigned long long>(cores_[0]->minCommitted()),
                  static_cast<unsigned long long>(config_.maxUopsPerCore));
    }
    const Cycle n = next - clock_.now - 1;
    clock_.now += n;
    ffCycles_ += n;
}

Cycle
System::sleptCoreCycles() const
{
    Cycle slept = 0;
    for (const auto &core : cores_)
        slept += core->sleptCycles();
    return slept;
}

void
System::throwInterrupted() const
{
    throw SimInterrupted("simulation of '" + config_.workload +
                         "' interrupted at cycle " +
                         std::to_string(clock_.now));
}

void
System::failCycleLimit(const char *phase) const
{
    SPB_FATAL("%s of '%s' exceeded the cycle limit (%llu cycles, %llu of "
              "them fast-forwarded, %llu/%llu uops on core 0, %zu events "
              "pending, next at cycle %llu) — livelock or a bad "
              "quiescence predicate?",
              phase, config_.workload.c_str(),
              static_cast<unsigned long long>(clock_.now),
              static_cast<unsigned long long>(ffCycles_),
              static_cast<unsigned long long>(cores_[0]->minCommitted()),
              static_cast<unsigned long long>(config_.maxUopsPerCore),
              clock_.events.size(),
              static_cast<unsigned long long>(
                  clock_.events.nextEventCycle()));
}

SimResult
System::finishRun()
{
    mem_.finalizeStats();
    SimResult r = snapshot();
    if (check::full())
        drainAndAudit();
    r.checks = check::counters().delta(checkBase_);
    return r;
}

void
System::drainAndAudit()
{
    // Run the event queue dry without ticking cores: every in-flight
    // fill, pump retry and queued prefetch either completes or stands
    // revealed as a leak. Bounded defensively against a livelocked
    // event chain.
    const Cycle limit = clock_.now + 10'000'000;
    while (!clock_.events.empty()) {
        // No cores tick here, so every silent cycle can be skipped.
        const Cycle next = clock_.events.nextEventCycle();
        if (next > clock_.now + 1)
            clock_.now = next - 1;
        clock_.tick();
        if (clock_.now > limit) {
            SPB_FATAL("memory system of '%s' failed to quiesce within "
                      "10M cycles after the run — self-rescheduling "
                      "event chain?", config_.workload.c_str());
        }
    }
    mem_.auditor().auditDrained();
    mem_.auditor().auditFull();
}

SimResult
System::snapshot()
{
    SimResult r;
    r.workload = config_.workload;
    r.cycles = clock_.now;
    for (int t = 0; t < config_.threads; ++t) {
        const Core &core = *cores_[t];
        for (int m = 0; m < core.threads(); ++m) {
            r.cores.push_back(core.stats(m));
            r.sbs.push_back(core.storeBuffer(m).stats());
            if (const SpbEngine *spb = core.spbEngine(m))
                r.spbs.push_back(spb->stats());
        }
        r.l1d.push_back(mem_.l1d(t).stats());
        r.l2.push_back(mem_.l2(t).stats());
    }
    // Unified pf.<name>.* counters, aggregated per prefetcher name
    // across cores and cache levels (map keeps name order stable).
    std::map<std::string, PrefetcherStats> pf_agg;
    for (const auto &pf : prefetchers_)
        pf_agg[pf->name()].accumulate(pf->prefetcherStats());
    for (const auto &pf : l2Prefetchers_)
        pf_agg[pf->name()].accumulate(pf->prefetcherStats());
    for (const auto &[pf_name, stats] : pf_agg)
        r.pf.merge(pf_name + ".", stats.toStatSet());
    for (const champsim::TraceReplaySource *src : champSources_)
        r.trace.push_back(src->stats().toStatSet());
    if (sample_)
        r.sample = sample_->stats;
    r.l3 = mem_.l3().stats();
    r.dramReads = mem_.dram().reads();
    r.dramWrites = mem_.dram().writes();
    if (auto *dir = mem_.directory())
        r.directory = dir->stats();

    // Energy: per-thread core events; each core's caches and leakage
    // with its thread 0, and the shared structures once.
    EnergyModel model;
    const std::size_t smt = r.threadsPerCore();
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        const std::size_t c = i / smt;
        EnergyInput in;
        in.core = &r.cores[i];
        in.sb = &r.sbs[i];
        in.sbEntries = cores_[c]->effectiveSbSize();
        if (i % smt == 0) {
            in.cycles = r.cycles;
            in.l1d = &r.l1d[c];
            in.l2 = &r.l2[c];
        }
        if (i == 0) {
            in.l3 = &r.l3;
            in.dramReads = r.dramReads;
            in.dramWrites = r.dramWrites;
        }
        const EnergyBreakdown e = model.compute(in);
        r.energy.cacheDynamicPj += e.cacheDynamicPj;
        r.energy.coreDynamicPj += e.coreDynamicPj;
        r.energy.leakagePj += e.leakagePj;
    }
    r.checks = check::counters().delta(checkBase_);
    return r;
}

SimResult
runSystem(const SystemConfig &config)
{
    System system(config);
    return system.run();
}

SystemConfig
makeConfig(const std::string &workload, unsigned sb_size,
           StorePrefetchPolicy policy, bool use_spb, bool ideal_sb)
{
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.sbSize = sb_size;
    cfg.policy = policy;
    cfg.useSpb = use_spb;
    cfg.idealSb = ideal_sb;
    return cfg;
}

} // namespace spburst
