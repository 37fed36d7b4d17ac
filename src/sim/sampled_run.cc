/**
 * @file
 * The sampled execution mode of System::run (see src/sample and
 * DESIGN.md, "Execution modes").
 *
 * A sampled run alternates functional warming (retire uops into the
 * shadow WarmImage — caches, TLB, SPB detector — with no timing at
 * all) with detailed windows. At each window start the warm image is
 * transplanted into the drained detailed machine, so every window
 * starts from state that depends only on the uop stream, never on
 * which SB policy ran the previous windows. Per-window IPC and
 * SB-stall measurements aggregate into mean +/- 95% CI estimates;
 * optional architectural checkpoints let a whole policy sweep reuse
 * one warming pass: a replay feeds the warm image the recorded
 * per-window deltas instead of uops, and transplants it the same way.
 */

#include <cstdio>

#include "common/logging.hh"
#include "sample/runtime.hh"
#include "sim/system.hh"

namespace spburst
{

namespace
{

/**
 * Checkpoint identity: everything end-of-warming state depends on —
 * the uop stream (workload, seed, run extent), the sample spec, and
 * the warmed structures' geometry — and nothing it does not (SB
 * policy, SB size, prefetchers), so one checkpoint serves
 * a whole policy sweep.
 */
std::string
sampleIdentity(const SystemConfig &cfg)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "|s%llu|u%llu|tlb%u:%u|spb%u:%d:%d:%u|l1:%llu:%u|l2:%llu:%u"
        "|l3:%llu:%u",
        static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(cfg.maxUopsPerCore),
        cfg.coreParams.tlb.entries, cfg.coreParams.tlb.ways,
        cfg.spb.checkInterval, cfg.spb.dynamicThreshold ? 1 : 0,
        cfg.spb.backwardBursts ? 1 : 0, cfg.spb.counterMax,
        static_cast<unsigned long long>(cfg.mem.l1d.geometry.sizeBytes),
        cfg.mem.l1d.geometry.ways,
        static_cast<unsigned long long>(cfg.mem.l2.geometry.sizeBytes),
        cfg.mem.l2.geometry.ways,
        static_cast<unsigned long long>(cfg.mem.l3.geometry.sizeBytes),
        cfg.mem.l3.geometry.ways);
    return cfg.workload + "|" + cfg.sample.canonical() + buf;
}

} // namespace

void
System::setupSampling()
{
    const sample::SampleSpec &sp = config_.sample;
    sp.validate();
    if (config_.threads != 1 || config_.smtThreads != 1) {
        SPB_FATAL("interval sampling supports a single simulated "
                  "thread (got %d core(s) of %d hardware thread(s))",
                  config_.threads, config_.smtThreads);
    }
    if (config_.maxUopsPerCore < sp.intervalUops) {
        SPB_FATAL("sampling: the run extent (%llu uops) is smaller "
                  "than one sampling period (%llu uops)",
                  static_cast<unsigned long long>(config_.maxUopsPerCore),
                  static_cast<unsigned long long>(sp.intervalUops));
    }

    sample_ = std::make_unique<sample::SampleRuntime>();
    sample_->spec = sp;
    sample_->image = std::make_unique<sample::WarmImage>(
        config_.mem, config_.coreParams.tlb, config_.spb);
    if (!sp.checkpointPath.empty()) {
        const std::string identity = sampleIdentity(config_);
        // The writer records every period, so a file holding another
        // number of windows is as stale as one with another identity.
        const std::uint64_t periods =
            config_.maxUopsPerCore / sp.intervalUops;
        if (sample::Checkpoint::load(sp.checkpointPath, identity,
                                     *sample_->image,
                                     sample_->checkpoint) &&
            sample_->checkpoint.windows.size() == periods) {
            sample_->replay = true;
            sample_->info.fromCheckpoint = true;
        } else {
            sample_->checkpoint = sample::Checkpoint{};
            sample_->checkpoint.identity = identity;
            sample_->writeCheckpoint = true;
        }
    }
}

const sample::SampleRunInfo *
System::sampleInfo() const
{
    return sample_ ? &sample_->info : nullptr;
}

SimResult
System::runSampled(const std::function<bool()> &interrupt)
{
    sample::SampleRuntime &rt = *sample_;
    sample::WarmImage &image = *rt.image;
    const sample::SampleSpec &sp = rt.spec;
    Core &core = *cores_[0];

    const std::uint64_t window_budget = sp.warmupUops + sp.windowUops;
    const std::uint64_t warm_per_period =
        sp.intervalUops - window_budget;
    const std::uint64_t periods =
        config_.maxUopsPerCore / sp.intervalUops;

    // Detailed phases run the plain run() loop, each under its own
    // cycle limit. Single core by construction (setupSampling).
    auto run_detailed_until = [&](const char *phase, auto done) {
        advanceUntil(done, cycleLimit(clock_.now, window_budget), phase,
                     interrupt);
    };

    // Warming pulls uops without advancing the clock, so the interrupt
    // poll there is uop-count-based.
    auto warm_uops = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            (void)rt.observer->next();
            if (interrupt && (i & 0xffff) == 0xffff && interrupt())
                throwInterrupted();
        }
        rt.info.warmedUops += n;
    };

    core.setFetchBudget(0);

    // Windows hold a fixed uop count, so the unbiased aggregate
    // estimator averages per-window CPI (cycles are the random
    // variable), exactly as SMARTS does; IPC and its error bar derive
    // from the CPI estimate below. Averaging per-window IPC directly
    // would overweight fast windows and overestimate aggregate IPC.
    std::vector<double> cpi_samples;
    std::vector<double> sb_samples; //!< SB-stall cycles per kilo-uop
    std::uint64_t detailed_uops = 0;
    bool measuring_done = false;

    for (std::uint64_t p = 0; p < periods; ++p) {
        // Adaptive stop: enough windows and a tight enough CPI CI.
        if (!measuring_done && sp.ciTargetPct > 0.0 &&
            cpi_samples.size() >= sp.minWindows) {
            const sample::Estimate est = sample::estimate95(cpi_samples);
            if (est.relHalfWidthPct() <= sp.ciTargetPct)
                measuring_done = true;
        }
        if (measuring_done && !rt.writeCheckpoint)
            break;

        // ---- functional warming, or the checkpoint's delta ----
        // The window this period records (writer) or replays.
        sample::WindowDelta *window = nullptr;
        if (rt.replay) {
            window = &rt.checkpoint.windows[p];
            image.applyDelta(*window);
        } else {
            warm_uops(warm_per_period);
            if (rt.writeCheckpoint) {
                rt.checkpoint.windows.push_back(image.snapshotChanges());
                window = &rt.checkpoint.windows.back();
                window->startUop = rt.observer->position();
                window->uops.reserve(window_budget);
            }
        }

        if (measuring_done) {
            // The CI target is met but this run writes the checkpoint:
            // keep warming and recording so every period is on disk for
            // runs with other policies or a different adaptive cutoff.
            // Each recorded delta stays relative to the previous one.
            // No transplant follows, so these clears break none.
            image.clearChanges();
            rt.observer->setRecord(&window->uops);
            warm_uops(window_budget);
            rt.observer->setRecord(nullptr);
            continue;
        }

        // ---- transplant warm state into the drained machine ----
        // restoreWarmTags copies only the frames changed on either
        // side since the previous window; the TLB and the detector
        // registers are copied whole.
        SPB_ASSERT(core.drained() && clock_.events.empty(),
                   "sampling window start on a busy machine");
        mem_.l1d(0).restoreWarmTags(image.l1());
        mem_.l2(0).restoreWarmTags(image.l2());
        mem_.l3().restoreWarmTags(image.l3());
        const SpbDetectorState detector =
            image.detector().architecturalState();
        core.restoreWarmState(image.tlb().snapshotEntries(),
                              config_.useSpb ? &detector : nullptr);
        image.clearChanges();

        if (rt.replay)
            rt.replaySource->loadWindow(&window->uops);
        else if (rt.writeCheckpoint)
            rt.observer->setRecord(&window->uops);

        // ---- detailed warm-up + measured window ----
        const std::uint64_t commit0 = core.committed();
        core.setFetchBudget(window_budget);

        run_detailed_until("sampled warm-up", [&] {
            return core.committed() >= commit0 + sp.warmupUops;
        });
        const std::uint64_t uops_a = core.committed();
        const std::uint64_t cycles_a = core.stats().cycles;
        const std::uint64_t sb_a = core.stats().sbStalls();

        run_detailed_until("sampled window", [&] {
            return core.committed() >= commit0 + window_budget;
        });
        const std::uint64_t uops_b = core.committed();
        const std::uint64_t cycles_b = core.stats().cycles;
        const std::uint64_t sb_b = core.stats().sbStalls();

        run_detailed_until("sampled drain", [&] {
            return core.drained() && clock_.events.empty();
        });

        if (!rt.replay && rt.writeCheckpoint)
            rt.observer->setRecord(nullptr);

        const double w_uops = static_cast<double>(uops_b - uops_a);
        const double w_cycles =
            static_cast<double>(cycles_b - cycles_a);
        cpi_samples.push_back(w_uops == 0.0 ? 0.0
                                            : w_cycles / w_uops);
        sb_samples.push_back(
            w_uops == 0.0
                ? 0.0
                : 1000.0 * static_cast<double>(sb_b - sb_a) / w_uops);
        detailed_uops += uops_b - commit0;
    }

    rt.info.detailedUops = detailed_uops;
    rt.info.windowsMeasured = cpi_samples.size();

    if (rt.writeCheckpoint) {
        rt.checkpoint.warmedUops = rt.info.warmedUops;
        rt.checkpoint.save(sp.checkpointPath);
        rt.info.wroteCheckpoint = true;
    }

    // sample.* statistics. Path-independent values only: a replayed
    // run must report byte-identical stats to the live-warming run it
    // mirrors, so host-side facts (warmed uops, checkpoint use) live
    // in SampleRunInfo instead.
    const sample::Estimate cpi_est = sample::estimate95(cpi_samples);
    const sample::Estimate sb_est = sample::estimate95(sb_samples);
    // IPC = 1/CPI; its error bar follows by the delta method
    // (d(1/x) = dx / x^2), which is exact to first order for the
    // small relative half-widths sampling targets.
    const double ipc_mean =
        cpi_est.mean == 0.0 ? 0.0 : 1.0 / cpi_est.mean;
    const double ipc_ci95 =
        cpi_est.mean == 0.0
            ? 0.0
            : cpi_est.halfWidth / (cpi_est.mean * cpi_est.mean);
    StatSet &st = rt.stats;
    st.set("windows", static_cast<double>(cpi_samples.size()));
    st.set("interval_uops", static_cast<double>(sp.intervalUops));
    st.set("window_uops", static_cast<double>(sp.windowUops));
    st.set("warmup_uops", static_cast<double>(sp.warmupUops));
    st.set("detailed_uops", static_cast<double>(detailed_uops));
    st.set("skipped_uops",
           static_cast<double>(cpi_samples.size() * warm_per_period));
    st.set("cpi_mean", cpi_est.mean);
    st.set("cpi_sd", cpi_est.stddev);
    st.set("cpi_ci95", cpi_est.halfWidth);
    st.set("cpi_rel_ci_pct", cpi_est.relHalfWidthPct());
    st.set("ipc_mean", ipc_mean);
    st.set("ipc_ci95", ipc_ci95);
    st.set("sb_stall_per_kuop_mean", sb_est.mean);
    st.set("sb_stall_per_kuop_sd", sb_est.stddev);
    st.set("sb_stall_per_kuop_ci95", sb_est.halfWidth);

    return finishRun();
}

} // namespace spburst
