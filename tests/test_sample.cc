/**
 * @file
 * Tests for the interval-sampling subsystem (src/sample) and its
 * integration through System: spec parsing and canonicalisation,
 * confidence-interval arithmetic, the functional-warming image,
 * exp::configKey coverage, sampled fixture replay under full checks,
 * determinism across host configurations, architectural-checkpoint
 * round trips (including cross-policy reuse, the delta chain across
 * an adaptive stop, and crafted files that must fall back to live
 * warming), and a mutation-style
 * accuracy check of the sampled estimates against full-detail runs on
 * a long multi-phase trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/check.hh"
#include "exp/engine.hh"
#include "exp/spec.hh"
#include "sample/checkpoint.hh"
#include "sample/estimate.hh"
#include "sample/runtime.hh"
#include "sample/spec.hh"
#include "sample/warm.hh"
#include "sim/system.hh"
#include "trace/source.hh"
#include "trace/uop.hh"

namespace spburst
{
namespace
{

using sample::Estimate;
using sample::SampleSpec;
using sample::WarmImage;
using sample::WarmingSource;

std::string
fixturePath()
{
    return std::string(SPBURST_CHAMPSIM_FIXTURES) + "/fixture.champsim";
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "spburst_sample_" + name;
}

/** Standard sampled fixture config: 20k uops in 4 periods of 5k. */
SystemConfig
sampledFixtureConfig(const std::string &strategy)
{
    StorePrefetchPolicy policy = StorePrefetchPolicy::AtCommit;
    bool spb = false, ideal = false;
    if (strategy == "none")
        policy = StorePrefetchPolicy::None;
    else if (strategy == "at-execute")
        policy = StorePrefetchPolicy::AtExecute;
    else if (strategy == "spb")
        spb = true;
    else if (strategy == "ideal")
        ideal = true;
    SystemConfig cfg =
        makeConfig("trace:" + fixturePath(), 56, policy, spb, ideal);
    cfg.maxUopsPerCore = 20'000;
    cfg.sample =
        SampleSpec::parse("interval=5000,window=1000,warmup=500");
    return cfg;
}

/** Sorted-stats rendering used for byte-identity comparisons. */
std::string
resultFingerprint(const SimResult &r)
{
    std::string text;
    const StatSet stats = r.toStatSet();
    for (const auto &[k, v] : stats.entries()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        text += k;
        text += '=';
        text += buf;
        text += '\n';
    }
    return text;
}

SimResult
runOne(const SystemConfig &cfg, sample::SampleRunInfo *info = nullptr)
{
    System sys(cfg);
    const SimResult r = sys.run();
    if (info != nullptr && sys.sampleInfo() != nullptr)
        *info = *sys.sampleInfo();
    return r;
}

// ---------------------------------------------------------------------
// SampleSpec parsing and canonical form
// ---------------------------------------------------------------------

TEST(SampleSpec, ParsesEveryKey)
{
    const SampleSpec sp = SampleSpec::parse(
        "interval=100000,window=2000,warmup=1000,ci=5,min=12,"
        "ckpt=/tmp/x.ckpt");
    EXPECT_EQ(sp.intervalUops, 100'000u);
    EXPECT_EQ(sp.windowUops, 2'000u);
    EXPECT_EQ(sp.warmupUops, 1'000u);
    EXPECT_DOUBLE_EQ(sp.ciTargetPct, 5.0);
    EXPECT_EQ(sp.minWindows, 12u);
    EXPECT_EQ(sp.checkpointPath, "/tmp/x.ckpt");
    EXPECT_TRUE(sp.enabled());
}

TEST(SampleSpec, WarmupDefaultsToWindowLength)
{
    const SampleSpec sp =
        SampleSpec::parse("interval=50000,window=2000");
    EXPECT_EQ(sp.warmupUops, 2'000u);
}

TEST(SampleSpec, DisabledByDefault)
{
    EXPECT_FALSE(SampleSpec{}.enabled());
}

TEST(SampleSpec, CanonicalExcludesCheckpointPath)
{
    const SampleSpec with_ckpt = SampleSpec::parse(
        "interval=50000,window=2000,warmup=500,ckpt=/tmp/a.ckpt");
    const SampleSpec without =
        SampleSpec::parse("interval=50000,window=2000,warmup=500");
    EXPECT_EQ(with_ckpt.canonical(), without.canonical());
    EXPECT_EQ(without.canonical(),
              "interval=50000,window=2000,warmup=500");
    // The adaptive-stop knobs change results, so they appear.
    const SampleSpec ci = SampleSpec::parse(
        "interval=50000,window=2000,warmup=500,ci=5,min=10");
    EXPECT_NE(ci.canonical(), without.canonical());
    EXPECT_NE(ci.canonical().find("ci="), std::string::npos);
}

TEST(SampleSpec, RejectsWarmupPlusWindowThatWrapsAround)
{
    FatalThrowGuard guard;
    // 2^64 - 1 + 1 wraps to 0, which an unchecked sum let through.
    EXPECT_THROW(SampleSpec::parse("interval=5000,window=1,"
                                   "warmup=18446744073709551615"),
                 FatalError);
}

TEST(SampleSpec, RejectsNonFiniteCi)
{
    FatalThrowGuard guard;
    EXPECT_THROW(SampleSpec::parse("interval=5000,window=1000,ci=1e309"),
                 FatalError);
    EXPECT_THROW(SampleSpec::parse("interval=5000,window=1000,ci=nan"),
                 FatalError);
}

// ---------------------------------------------------------------------
// Confidence-interval arithmetic
// ---------------------------------------------------------------------

TEST(SampleEstimate, StudentTTable)
{
    EXPECT_NEAR(sample::tCritical95(1), 12.706, 1e-3);
    EXPECT_NEAR(sample::tCritical95(4), 2.776, 1e-3);
    EXPECT_NEAR(sample::tCritical95(1000), 1.960, 1e-3);
}

TEST(SampleEstimate, KnownDataset)
{
    // {1..5}: mean 3, sample sd sqrt(2.5), t(4) = 2.776.
    const Estimate e = sample::estimate95({1, 2, 3, 4, 5});
    EXPECT_EQ(e.n, 5u);
    EXPECT_DOUBLE_EQ(e.mean, 3.0);
    EXPECT_NEAR(e.stddev, 1.5811, 1e-4);
    EXPECT_NEAR(e.halfWidth, 2.776 * 1.5811 / 2.2360, 1e-3);
    EXPECT_NEAR(e.relHalfWidthPct(), 100.0 * e.halfWidth / 3.0, 1e-9);
}

TEST(SampleEstimate, ConstantSamplesHaveZeroWidth)
{
    const Estimate e = sample::estimate95({2.5, 2.5, 2.5, 2.5});
    EXPECT_DOUBLE_EQ(e.mean, 2.5);
    EXPECT_DOUBLE_EQ(e.halfWidth, 0.0);
}

TEST(SampleEstimate, FewerThanTwoSamplesHaveZeroWidth)
{
    EXPECT_DOUBLE_EQ(sample::estimate95({}).halfWidth, 0.0);
    EXPECT_DOUBLE_EQ(sample::estimate95({7.0}).mean, 7.0);
    EXPECT_DOUBLE_EQ(sample::estimate95({7.0}).halfWidth, 0.0);
}

// ---------------------------------------------------------------------
// WarmImage: functional MESI/LRU/TLB maintenance
// ---------------------------------------------------------------------

TEST(WarmImageTest, StoreFillsModifiedLoadFillsExclusive)
{
    WarmImage img(MemSystemParams::tableI(), TlbParams{}, SpbParams{});

    img.apply(uops::store(0x100, 0x1000));
    const CacheBlk *b1 = img.l1().find(blockAlign(0x1000));
    ASSERT_NE(b1, nullptr);
    EXPECT_EQ(b1->state, CohState::Modified);
    const CacheBlk *b2 = img.l2().find(blockAlign(0x1000));
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(b2->state, CohState::Exclusive);
    EXPECT_NE(img.l3().find(blockAlign(0x1000)), nullptr);

    img.apply(uops::load(0x104, 0x2000));
    const CacheBlk *l = img.l1().find(blockAlign(0x2000));
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, CohState::Exclusive);

    // A store hitting a clean L1 block upgrades it to Modified.
    img.apply(uops::store(0x108, 0x2000));
    EXPECT_EQ(img.l1().find(blockAlign(0x2000))->state,
              CohState::Modified);

    // The load missed all the way down and filled every level.
    const CacheBlk *l2 = img.l2().find(blockAlign(0x2000));
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l2->state, CohState::Exclusive);
    EXPECT_NE(img.l3().find(blockAlign(0x2000)), nullptr);
}

TEST(WarmImageTest, InclusionBackInvalidatesOnL3Eviction)
{
    // One-set, two-way caches at every level: the third distinct block
    // evicts the LRU from the L3, which must back-invalidate it from
    // the upper levels too.
    MemSystemParams mem = MemSystemParams::tableI();
    mem.l1d.geometry = CacheGeometry{2 * kBlockSize, 2};
    mem.l2.geometry = CacheGeometry{2 * kBlockSize, 2};
    mem.l3.geometry = CacheGeometry{2 * kBlockSize, 2};
    WarmImage img(mem, TlbParams{}, SpbParams{});

    img.apply(uops::load(0x100, 0x10000));
    img.apply(uops::load(0x104, 0x20000));
    img.apply(uops::load(0x108, 0x30000)); // evicts 0x10000 from L3
    EXPECT_EQ(img.l3().find(blockAlign(0x10000)), nullptr);
    EXPECT_EQ(img.l1().find(blockAlign(0x10000)), nullptr)
        << "inclusive hierarchy: the L3 victim must leave the L1";
    EXPECT_NE(img.l1().find(blockAlign(0x30000)), nullptr);
}

TEST(WarmImageTest, WarmingSourceCountsAndRecords)
{
    VectorSource src({uops::alu(0x1), uops::store(0x2, 0x1000),
                      uops::load(0x3, 0x2000)});
    WarmImage img(MemSystemParams::tableI(), TlbParams{}, SpbParams{});
    WarmingSource warm(&src, &img);

    (void)warm.next();
    EXPECT_EQ(warm.position(), 1u);

    std::vector<MicroOp> sink;
    warm.setRecord(&sink);
    (void)warm.next();
    (void)warm.next();
    warm.setRecord(nullptr);
    (void)warm.next(); // VectorSource loops; not recorded
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(warm.position(), 4u);
    // Every pulled uop reached the image: the store left its block
    // Modified and the load brought its block in Exclusive.
    const CacheBlk *st = img.l1().find(blockAlign(0x1000));
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->state, CohState::Modified);
    const CacheBlk *ld = img.l1().find(blockAlign(0x2000));
    ASSERT_NE(ld, nullptr);
    EXPECT_EQ(ld->state, CohState::Exclusive);
}

// ---------------------------------------------------------------------
// exp::configKey coverage
// ---------------------------------------------------------------------

TEST(SampleConfigKey, SampleSpecIncludedHostKnobsExcluded)
{
    SystemConfig base = makeConfig("x264", 56,
                                   StorePrefetchPolicy::AtCommit);
    const std::string plain = exp::configKey(base);
    EXPECT_EQ(plain.find("|smp:"), std::string::npos);

    SystemConfig sampled = base;
    sampled.sample =
        SampleSpec::parse("interval=5000,window=1000,warmup=500");
    const std::string key = exp::configKey(sampled);
    EXPECT_NE(key, plain) << "the sampling spec changes results and "
                             "must join the key";
    EXPECT_NE(key.find("|smp:interval=5000,window=1000,warmup=500"),
              std::string::npos);

    // The checkpoint path is host-side plumbing: replayed and
    // live-warmed runs are byte-identical, so it stays out.
    SystemConfig ckpt = sampled;
    ckpt.sample.checkpointPath = "/tmp/warm.ckpt";
    EXPECT_EQ(exp::configKey(ckpt), key);

    // And the fast-forward knob stays excluded as ever.
    SystemConfig host = sampled;
    host.fastForward = false;
    EXPECT_EQ(exp::configKey(host), key);
}

// ---------------------------------------------------------------------
// Core fetch budget (the window-boundary mechanism)
// ---------------------------------------------------------------------

TEST(SampleFetchBudget, CoreCommitsExactlyTheBudgetThenDrains)
{
    SystemConfig cfg = makeConfig("x264", 56,
                                  StorePrefetchPolicy::AtCommit);
    cfg.maxUopsPerCore = 10'000;
    System sys(cfg);
    EXPECT_EQ(sys.core(0).fetchBudget(), kUnlimitedFetchBudget);

    sys.core(0).setFetchBudget(123);
    EXPECT_TRUE(sys.core(0).drained()) << "fresh core starts drained";
    do {
        ASSERT_LT(sys.clock().now, 100'000u) << "budget run never drained";
        sys.clock().tick();
        sys.core(0).tick();
    } while (!(sys.core(0).drained() && sys.clock().events.empty()));
    EXPECT_EQ(sys.core(0).committed(), 123u);
    EXPECT_EQ(sys.core(0).fetchBudget(), 0u);
}

// ---------------------------------------------------------------------
// Sampled fixture replay (tier-1 smoke) and its statistics
// ---------------------------------------------------------------------

TEST(SampledFixture, ReplaysUnderFullChecksWithSampleStats)
{
    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);
    const SimResult r = runOne(sampledFixtureConfig("spb"));
    check::setLevel(saved);

    const StatSet s = r.toStatSet();
    EXPECT_DOUBLE_EQ(s.get("sample.windows"), 4.0);
    EXPECT_DOUBLE_EQ(s.get("sample.detailed_uops"), 4.0 * 1500.0);
    EXPECT_GT(s.get("sample.ipc_mean"), 0.0);
    EXPECT_GT(s.get("sample.cpi_mean"), 0.0);
    EXPECT_GE(s.get("sample.ipc_ci95"), 0.0);
    // Decode position depends on the warming path, so trace.* stats
    // are deliberately absent from sampled runs.
    EXPECT_FALSE(s.has("trace0.instrs"));
    EXPECT_TRUE(r.trace.empty());
}

TEST(SampledFixture, AllFivePoliciesRunSampled)
{
    for (const char *strategy :
         {"none", "at-execute", "at-commit", "spb", "ideal"}) {
        const SimResult r = runOne(sampledFixtureConfig(strategy));
        EXPECT_DOUBLE_EQ(r.sample.get("windows"), 4.0)
            << "strategy " << strategy;
    }
}

// ---------------------------------------------------------------------
// Determinism across host configurations
// ---------------------------------------------------------------------

std::string
sampledJobsFingerprint(unsigned host_threads, bool ff)
{
    std::vector<exp::Job> jobs;
    for (const char *strategy : {"none", "at-commit", "spb"}) {
        SystemConfig cfg = sampledFixtureConfig(strategy);
        cfg.fastForward = ff;
        jobs.push_back(exp::Job{exp::configKey(cfg), std::move(cfg)});
    }
    exp::EngineOptions opts;
    opts.hostThreads = host_threads;
    const exp::ExperimentReport report = exp::runJobs(jobs, opts);
    std::string all;
    for (const auto &out : report.outcomes) {
        all += out.key;
        all += '\n';
        for (const auto &[k, v] : out.stats.entries()) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            all += k;
            all += '=';
            all += buf;
            all += '\n';
        }
    }
    return all;
}

TEST(SampledDeterminism, IdenticalStatsAcrossJobsSchedulerFastForward)
{
    const std::string base = sampledJobsFingerprint(1, true);
    EXPECT_FALSE(base.empty());
    EXPECT_EQ(base, sampledJobsFingerprint(8, true))
        << "--jobs=8 must not change sampled results";
    EXPECT_EQ(base, sampledJobsFingerprint(1, false))
        << "fast-forward must not change sampled results";
}

// ---------------------------------------------------------------------
// Architectural checkpoints
// ---------------------------------------------------------------------

TEST(SampleCheckpoint, WriteReplayLiveAreByteIdentical)
{
    const std::string ckpt = tmpPath("roundtrip.ckpt");
    const check::Level saved = check::level();
    // At Full, every window start also holds the change-set transplant
    // to a full copy of the warm image (check domain "coherence").
    for (const check::Level level : {check::Level::Fast, check::Level::Full}) {
        SCOPED_TRACE(check::levelName(level));
        check::setLevel(level);
        check::ThrowGuard guard;
        std::remove(ckpt.c_str());

        SystemConfig live_cfg = sampledFixtureConfig("at-commit");
        const SimResult live = runOne(live_cfg);

        SystemConfig ckpt_cfg = live_cfg;
        ckpt_cfg.sample.checkpointPath = ckpt;
        sample::SampleRunInfo write_info, replay_info;
        const SimResult wrote = runOne(ckpt_cfg, &write_info);
        EXPECT_TRUE(write_info.wroteCheckpoint);
        EXPECT_FALSE(write_info.fromCheckpoint);
        EXPECT_GT(write_info.warmedUops, 0u);

        const SimResult replayed = runOne(ckpt_cfg, &replay_info);
        EXPECT_TRUE(replay_info.fromCheckpoint);
        EXPECT_EQ(replay_info.warmedUops, 0u)
            << "replay must not re-warm the trace";

        const std::string base = resultFingerprint(live);
        EXPECT_EQ(base, resultFingerprint(wrote))
            << "writing the checkpoint must not perturb results";
        EXPECT_EQ(base, resultFingerprint(replayed))
            << "replaying the checkpoint must reproduce the live run "
               "byte for byte";
        for (const SimResult *r : {&live, &wrote, &replayed}) {
            EXPECT_EQ(r->checks.totalViolations(), 0u);
            if (level == check::Level::Full) {
                // Three levels per window, four windows.
                EXPECT_GE(r->checks.evaluated[static_cast<int>(
                              check::Domain::Coherence)],
                          12u);
            }
        }
    }
    check::setLevel(saved);
    std::remove(ckpt.c_str());
}

TEST(SampleCheckpoint, OneWarmingPassServesAllFivePolicies)
{
    const std::string ckpt = tmpPath("sweep.ckpt");
    std::remove(ckpt.c_str());
    const char *strategies[] = {"none", "at-execute", "at-commit",
                                "spb", "ideal"};

    std::vector<std::string> live;
    for (const char *s : strategies)
        live.push_back(resultFingerprint(runOne(sampledFixtureConfig(s))));

    bool first = true;
    for (std::size_t i = 0; i < 5; ++i) {
        SystemConfig cfg = sampledFixtureConfig(strategies[i]);
        cfg.sample.checkpointPath = ckpt;
        sample::SampleRunInfo info;
        const SimResult r = runOne(cfg, &info);
        if (first) {
            EXPECT_TRUE(info.wroteCheckpoint);
            first = false;
        } else {
            EXPECT_TRUE(info.fromCheckpoint)
                << "policy " << strategies[i]
                << " must reuse the warm state (it is policy-"
                   "independent by construction)";
        }
        EXPECT_EQ(live[i], resultFingerprint(r))
            << "policy " << strategies[i];
    }
    std::remove(ckpt.c_str());
}

TEST(SampleCheckpoint, IdentityMismatchFallsBackToLiveWarming)
{
    const std::string ckpt = tmpPath("mismatch.ckpt");
    std::remove(ckpt.c_str());

    SystemConfig cfg = sampledFixtureConfig("at-commit");
    cfg.sample.checkpointPath = ckpt;
    (void)runOne(cfg);

    // A different seed changes the identity: the stale file must be
    // ignored (live warming) and rewritten, not trusted.
    SystemConfig other = cfg;
    other.seed = 99;
    sample::SampleRunInfo info;
    const SimResult r = runOne(other, &info);
    EXPECT_FALSE(info.fromCheckpoint);
    EXPECT_TRUE(info.wroteCheckpoint);

    SystemConfig other_live = other;
    other_live.sample.checkpointPath.clear();
    EXPECT_EQ(resultFingerprint(runOne(other_live)),
              resultFingerprint(r));
    std::remove(ckpt.c_str());
}

TEST(SampleCheckpoint, TruncatedFileFallsBackToLiveWarming)
{
    const std::string ckpt = tmpPath("truncated.ckpt");
    std::remove(ckpt.c_str());

    SystemConfig cfg = sampledFixtureConfig("at-commit");
    cfg.sample.checkpointPath = ckpt;
    const SimResult full = runOne(cfg);

    // Chop the file in half: load must reject it and re-warm.
    std::FILE *f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_EQ(std::fclose(f), 0);
    ASSERT_EQ(truncate(ckpt.c_str(), size / 2), 0);

    sample::SampleRunInfo info;
    const SimResult r = runOne(cfg, &info);
    EXPECT_FALSE(info.fromCheckpoint);
    EXPECT_TRUE(info.wroteCheckpoint);
    EXPECT_EQ(resultFingerprint(full), resultFingerprint(r));
    std::remove(ckpt.c_str());
}

/** Byte offset of window 0 in checkpoint @p path: after the magic,
 *  the identity, the warmed-uop count and the window count. */
long
firstWindowOffset(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    unsigned char b[4] = {};
    const bool ok = f != nullptr && std::fseek(f, 8, SEEK_SET) == 0 &&
                    std::fread(b, 1, 4, f) == 4;
    if (f != nullptr)
        std::fclose(f);
    EXPECT_TRUE(ok) << path;
    const long id_len = b[0] | b[1] << 8 | b[2] << 16 | b[3] << 24;
    return 8 + 4 + id_len + 8 + 4;
}

/** Overwrite the little-endian u32 at @p offset of @p path. */
void
patchU32(const std::string &path, long offset, std::uint32_t v)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr) << path;
    const unsigned char b[4] = {
        static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
        static_cast<unsigned char>(v >> 16),
        static_cast<unsigned char>(v >> 24)};
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(b, 1, 4, f), 4u);
    ASSERT_EQ(std::fclose(f), 0);
}

/**
 * Write a checkpoint for @p cfg, let @p craft damage it, then check
 * that the run treats the file as absent: live warming, live results,
 * and a rewritten file that the next run replays.
 */
template <typename Craft>
void
expectCraftedFileIsRewritten(const SystemConfig &cfg, Craft craft)
{
    SystemConfig live_cfg = cfg;
    live_cfg.sample.checkpointPath.clear();
    const std::string live = resultFingerprint(runOne(live_cfg));

    const std::string &ckpt = cfg.sample.checkpointPath;
    std::remove(ckpt.c_str());
    (void)runOne(cfg);
    craft(ckpt);

    sample::SampleRunInfo info;
    EXPECT_EQ(resultFingerprint(runOne(cfg, &info)), live);
    EXPECT_FALSE(info.fromCheckpoint);
    EXPECT_TRUE(info.wroteCheckpoint);

    sample::SampleRunInfo again;
    EXPECT_EQ(resultFingerprint(runOne(cfg, &again)), live);
    EXPECT_TRUE(again.fromCheckpoint) << "the rewritten file replays";
    std::remove(ckpt.c_str());
}

TEST(SampleCheckpoint, OutOfRangeFrameIndexFallsBackToLiveWarming)
{
    SystemConfig cfg = sampledFixtureConfig("at-commit");
    cfg.sample.checkpointPath = tmpPath("badindex.ckpt");
    const CacheGeometry &l1 = cfg.mem.l1d.geometry;
    const auto l1_frames =
        static_cast<std::uint32_t>(l1.numSets() * l1.ways);
    // Far out of range, and just past the L1 (in range for the L2 and
    // L3: each level is checked against its own frame count).
    for (const std::uint32_t bad : {0x7fffffffu, l1_frames}) {
        SCOPED_TRACE(bad);
        expectCraftedFileIsRewritten(cfg, [&](const std::string &path) {
            // Window 0's first L1 frame: after its start uop, the L1
            // LRU clock and the L1 frame count.
            patchU32(path, firstWindowOffset(path) + 8 + 8 + 4, bad);
        });
    }
}

TEST(SampleCheckpoint, HugeCountFallsBackToLiveWarming)
{
    SystemConfig cfg = sampledFixtureConfig("at-commit");
    cfg.sample.checkpointPath = tmpPath("hugecount.ckpt");
    // The window count, then window 0's L1 frame count: either one
    // would ask for gigabytes before the loader noticed the file ends.
    for (const long field : {-4L, 8L + 8L}) {
        SCOPED_TRACE(field);
        expectCraftedFileIsRewritten(cfg, [&](const std::string &path) {
            patchU32(path, firstWindowOffset(path) + field, 0xffffffffu);
        });
    }
}

TEST(SampleCheckpoint, V1MagicIsTreatedAsAbsentAndRewrittenAsV2)
{
    SystemConfig cfg = sampledFixtureConfig("spb");
    cfg.sample.checkpointPath = tmpPath("v1.ckpt");
    // Only the magic matters: the loader reads nothing past it.
    expectCraftedFileIsRewritten(cfg, [](const std::string &path) {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite("SPBSMP01", 1, 8, f), 8u);
        ASSERT_EQ(std::fclose(f), 0);
    });
}

TEST(SampleCheckpoint, ReplayPastTheWritersAdaptiveStopMatchesLive)
{
    // With ci=, the at-commit writer stops measuring before the SPB
    // replay does; the writer keeps recording deltas past its stop, and
    // each must stay relative to the previous recorded window.
    auto config = [](const char *strategy) {
        SystemConfig cfg = sampledFixtureConfig(strategy);
        cfg.sbSize = 14;
        cfg.maxUopsPerCore = 60'000;
        cfg.sample = SampleSpec::parse(
            "interval=5000,window=1000,warmup=500,ci=2,min=2");
        return cfg;
    };
    const std::string ckpt = tmpPath("adaptive.ckpt");
    std::remove(ckpt.c_str());

    SystemConfig writer = config("at-commit");
    writer.sample.checkpointPath = ckpt;
    sample::SampleRunInfo write_info;
    const SimResult wrote = runOne(writer, &write_info);
    ASSERT_TRUE(write_info.wroteCheckpoint);

    SystemConfig spb = config("spb");
    const SimResult live = runOne(spb);
    spb.sample.checkpointPath = ckpt;
    sample::SampleRunInfo replay_info;
    const SimResult replayed = runOne(spb, &replay_info);
    EXPECT_TRUE(replay_info.fromCheckpoint);

    EXPECT_LT(wrote.sample.get("windows"), live.sample.get("windows"))
        << "the SPB run must measure windows the writer only recorded";
    EXPECT_EQ(resultFingerprint(live), resultFingerprint(replayed));
    std::remove(ckpt.c_str());
}

/** Every serialized field of @p w, in declaration order. */
std::vector<std::uint64_t>
fieldsOf(const sample::WindowDelta &w)
{
    std::vector<std::uint64_t> v{w.startUop};
    for (const CacheTagDelta *c : {&w.l1, &w.l2, &w.l3}) {
        v.push_back(c->lruClock);
        for (const CacheTagDelta::Frame &fr : c->frames)
            v.insert(v.end(), {fr.index, fr.tag,
                               static_cast<std::uint64_t>(fr.state),
                               fr.lastTouch});
    }
    v.push_back(w.tlb.useClock);
    for (const TlbSnapshot::Entry &e : w.tlb.entries)
        v.insert(v.end(), {e.index, e.page, e.lastUse});
    const SpbDetectorState &d = w.detector;
    v.insert(v.end(), {d.lastBlock, d.lastAddr, d.satCounter,
                       d.backwardCounter, d.storeCount, d.windowBytes});
    for (const MicroOp &op : w.uops)
        v.insert(v.end(), {op.addr, op.pc,
                           static_cast<std::uint64_t>(op.cls),
                           static_cast<std::uint64_t>(op.region), op.size,
                           op.srcDist1, op.srcDist2, op.mispredicted,
                           op.hasDest});
    return v;
}

TEST(SampleCheckpoint, SaveLoadRoundTripsEveryField)
{
    // A distinct value in every field, and 64-bit fields above 2^32:
    // a swapped, narrowed or dropped field in the codec shows here even
    // where the simulation replaying the checkpoint would not notice.
    std::uint64_t k = 0;
    auto u64 = [&k] { ++k; return (k << 40) | k; };
    auto u32 = [&k] { return static_cast<std::uint32_t>(++k); };
    auto u8 = [&k] { return static_cast<std::uint8_t>(++k); };
    sample::WindowDelta w;
    w.startUop = u64();
    for (CacheTagDelta *c : {&w.l1, &w.l2, &w.l3}) {
        c->lruClock = u64();
        // An Invalid frame too: deltas carry evictions.
        for (int i = 0; i <= 2; ++i)
            c->frames.push_back(
                {u32(), u64(), static_cast<CohState>(i), u64()});
    }
    w.tlb.useClock = u64();
    for (int i = 0; i < 2; ++i)
        w.tlb.entries.push_back({u32(), u64(), u64()});
    w.detector = {u64(), u64(), u32(), u32(), u32(), u64()};
    for (int i = 1; i <= 2; ++i) {
        MicroOp op;
        op.addr = u64();
        op.pc = u64();
        op.cls = static_cast<OpClass>(i);
        op.region = static_cast<Region>(i);
        op.size = u8();
        op.srcDist1 = u8();
        op.srcDist2 = u8();
        op.mispredicted = i == 1;
        op.hasDest = i == 2;
        w.uops.push_back(op);
    }
    sample::Checkpoint out;
    out.identity = "round-trip";
    out.warmedUops = u64();
    out.windows = {w};
    const std::string path = tmpPath("fields.ckpt");
    out.save(path);

    // Table I geometry: every index above fits its array.
    const WarmImage image(MemSystemParams::tableI(), TlbParams{},
                          SpbParams{});
    sample::Checkpoint in;
    ASSERT_TRUE(sample::Checkpoint::load(path, out.identity, image, in));
    EXPECT_EQ(in.warmedUops, out.warmedUops);
    ASSERT_EQ(in.windows.size(), 1u);
    EXPECT_EQ(fieldsOf(in.windows[0]), fieldsOf(w));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Accuracy: sampled estimates vs full detail on a long trace
// ---------------------------------------------------------------------

/** Generate (once) a long multi-phase trace with spburst_tracegen. */
const std::string &
longTracePath()
{
    static const std::string path = [] {
        const std::string p = tmpPath("long.champsim");
        const std::string cmd = std::string(SPBURST_TRACEGEN_BIN) +
                                " --out=" + p +
                                " --instructions=120000 > /dev/null";
        if (std::system(cmd.c_str()) != 0)
            return std::string();
        return p;
    }();
    return path;
}

TEST(SampledAccuracy, EstimatesWithinReportedCiForAllFivePolicies)
{
    ASSERT_FALSE(longTracePath().empty()) << "tracegen failed";
    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);

    for (const char *strategy :
         {"none", "at-execute", "at-commit", "spb", "ideal"}) {
        StorePrefetchPolicy policy = StorePrefetchPolicy::AtCommit;
        bool spb = false, ideal = false;
        if (std::string(strategy) == "none")
            policy = StorePrefetchPolicy::None;
        else if (std::string(strategy) == "at-execute")
            policy = StorePrefetchPolicy::AtExecute;
        else if (std::string(strategy) == "spb")
            spb = true;
        else if (std::string(strategy) == "ideal")
            ideal = true;
        SystemConfig cfg = makeConfig("trace:" + longTracePath(), 56,
                                      policy, spb, ideal);
        cfg.maxUopsPerCore = 120'000;

        const SimResult full = runOne(cfg);
        const double full_ipc =
            static_cast<double>(full.committedUops()) /
            static_cast<double>(full.cycles);
        const double full_sb =
            1000.0 * static_cast<double>(full.sbStalls()) /
            static_cast<double>(full.committedUops());

        cfg.sample =
            SampleSpec::parse("interval=10000,window=2000,warmup=1000");
        const SimResult sampled = runOne(cfg);
        const StatSet s = sampled.toStatSet();
        EXPECT_DOUBLE_EQ(s.get("sample.windows"), 12.0);

        const double ipc_mean = s.get("sample.ipc_mean");
        const double ipc_ci = s.get("sample.ipc_ci95");
        EXPECT_LE(std::abs(ipc_mean - full_ipc), ipc_ci)
            << strategy << ": sampled IPC " << ipc_mean << " +/- "
            << ipc_ci << " misses full-detail " << full_ipc;

        const double sb_mean = s.get("sample.sb_stall_per_kuop_mean");
        const double sb_ci = s.get("sample.sb_stall_per_kuop_ci95");
        EXPECT_LE(std::abs(sb_mean - full_sb), sb_ci)
            << strategy << ": sampled SB stalls/kuop " << sb_mean
            << " +/- " << sb_ci << " misses full-detail " << full_sb;
    }
    check::setLevel(saved);
}

} // namespace
} // namespace spburst
