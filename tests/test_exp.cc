/**
 * @file
 * Unit tests for the experiment engine: spec expansion, the host
 * thread pool, thread-count determinism, checkpoint/resume, and
 * containment of timeouts, fatal errors, check violations and sink
 * write errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hh"
#include "exp/engine.hh"
#include "exp/spec.hh"
#include "exp/task_pool.hh"
#include "sim/report.hh"
#include "sim/system.hh"

namespace spburst
{
namespace
{

exp::ExperimentSpec
smallSpec(std::uint64_t uops = 5'000)
{
    exp::ExperimentSpec spec;
    spec.name = "unit";
    spec.base = makeConfig("x264", 56, StorePrefetchPolicy::AtCommit);
    spec.base.maxUopsPerCore = uops;
    spec.workloads = {"x264", "bwaves"};
    spec.axes.push_back({"sb", {"14", "56"}});
    spec.axes.push_back({"strategy", {"at-commit", "spb"}});
    return spec;
}

std::vector<std::string>
sortedLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "spburst_" + name;
}

TEST(Spec, ExpandIsTheFullGridInWorkloadMajorOrder)
{
    const auto jobs = smallSpec().expand();
    ASSERT_EQ(jobs.size(), 8u); // 2 workloads x 2 SB sizes x 2 strategies

    // Workloads outermost, later axes fastest.
    EXPECT_EQ(jobs[0].config.workload, "x264");
    EXPECT_EQ(jobs[3].config.workload, "x264");
    EXPECT_EQ(jobs[4].config.workload, "bwaves");
    EXPECT_EQ(jobs[0].config.sbSize, 14u);
    EXPECT_FALSE(jobs[0].config.useSpb);
    EXPECT_TRUE(jobs[1].config.useSpb);
    EXPECT_EQ(jobs[2].config.sbSize, 56u);

    std::set<std::string> keys;
    for (const auto &job : jobs) {
        EXPECT_TRUE(keys.insert(job.key).second) << job.key;
        EXPECT_EQ(job.key, exp::configKey(job.config));
    }
}

TEST(SpecDeathTest, DuplicateVariantsAreFatal)
{
    exp::ExperimentSpec spec = smallSpec();
    spec.axes.push_back({"seed", {"1", "1"}});
    EXPECT_EXIT(spec.expand(), testing::ExitedWithCode(1),
                "duplicate job");
}

TEST(TaskPool, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {0u, 1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(101);
        for (auto &h : hits)
            h = 0;
        exp::parallelFor(threads, hits.size(),
                         [&](std::size_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "threads=" << threads;
    }
}

TEST(TaskPool, ParallelForRethrowsBodyException)
{
    EXPECT_THROW(
        exp::parallelFor(4, 64,
                         [](std::size_t i) {
                             if (i == 17)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

TEST(TaskPool, HostConcurrencyIsPositive)
{
    EXPECT_GE(exp::hostConcurrency(), 1u);
}

TEST(Engine, OutcomesComeBackInJobOrder)
{
    const auto jobs = smallSpec().expand();
    const auto report = exp::runJobs(jobs, {});
    ASSERT_EQ(report.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(report.outcomes[i].key, jobs[i].key);
        EXPECT_EQ(report.outcomes[i].status, exp::JobStatus::Completed);
    }
    EXPECT_EQ(report.completed(), jobs.size());
    EXPECT_NE(report.find(jobs[3].key), nullptr);
    EXPECT_EQ(report.find("no-such-key"), nullptr);
}

TEST(Engine, ResultsAreIdenticalForAnyThreadCount)
{
    const auto jobs = smallSpec().expand();

    std::vector<std::string> reference;
    for (unsigned threads : {1u, 4u, 8u}) {
        const std::string path =
            tmpPath("det_" + std::to_string(threads) + ".jsonl");
        std::remove(path.c_str());
        exp::EngineOptions options;
        options.hostThreads = threads;
        options.jsonlPath = path;
        const auto report = exp::runJobs(jobs, options);
        EXPECT_EQ(report.completed(), jobs.size());

        const auto lines = sortedLines(path);
        ASSERT_EQ(lines.size(), jobs.size());
        if (reference.empty())
            reference = lines;
        else
            EXPECT_EQ(lines, reference) << "threads=" << threads;
        std::remove(path.c_str());
    }
}

// The Fig. 16 orthogonality grid: every prefetcher variant must run
// deterministically whatever the host parallelism, and every cell with
// a prefetcher must export the unified pf.<name>.* stats block.
TEST(Engine, PrefetcherGridIsDeterministicAcrossThreads)
{
    exp::ExperimentSpec spec;
    spec.name = "pfgrid";
    spec.base = makeConfig("x264", 56, StorePrefetchPolicy::AtCommit);
    spec.base.maxUopsPerCore = 4'000;
    spec.workloads = {"x264"};
    spec.axes.push_back(
        {"l1pf", {"none", "stream", "adaptive", "best-offset", "dspatch"}});
    spec.axes.push_back({"strategy", {"at-commit", "spb"}});
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 10u);

    std::vector<std::string> reference;
    for (unsigned threads : {1u, 8u}) {
        const std::string path =
            tmpPath("pfgrid_" + std::to_string(threads) + ".jsonl");
        std::remove(path.c_str());
        exp::EngineOptions options;
        options.hostThreads = threads;
        options.jsonlPath = path;
        const auto report = exp::runJobs(jobs, options);
        ASSERT_EQ(report.completed(), jobs.size());

        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto &stats = report.outcomes[i].stats;
            const auto kind = jobs[i].config.l1Prefetcher;
            EXPECT_EQ(stats.has("pf.stride.issued"),
                      kind != L1PrefetcherKind::None)
                << jobs[i].key;
            EXPECT_EQ(stats.has("pf.fdp.accuracy"),
                      kind == L1PrefetcherKind::Adaptive)
                << jobs[i].key;
            EXPECT_EQ(stats.has("pf.bop.coverage"),
                      kind == L1PrefetcherKind::BestOffset)
                << jobs[i].key;
            EXPECT_EQ(stats.has("pf.dspatch.pollutionRate"),
                      kind == L1PrefetcherKind::DSPatch)
                << jobs[i].key;
        }

        const auto lines = sortedLines(path);
        ASSERT_EQ(lines.size(), jobs.size());
        if (reference.empty())
            reference = lines;
        else
            EXPECT_EQ(lines, reference) << "threads=" << threads;
        std::remove(path.c_str());
    }
}

TEST(Engine, ResumeSkipsDoneJobsAndReproducesTheFullFile)
{
    const auto jobs = smallSpec().expand();
    const std::string full = tmpPath("resume_full.jsonl");
    const std::string half = tmpPath("resume_half.jsonl");
    std::remove(full.c_str());
    std::remove(half.c_str());

    exp::EngineOptions options;
    options.hostThreads = 1;
    options.jsonlPath = full;
    exp::runJobs(jobs, options);
    const auto complete = sortedLines(full);
    ASSERT_EQ(complete.size(), jobs.size());

    // Simulate a kill after half the jobs: keep the first lines plus
    // a torn, partially-written line at the tail.
    {
        std::ifstream in(full);
        std::ofstream out(half);
        std::string line;
        for (std::size_t i = 0; i < jobs.size() / 2; ++i) {
            std::getline(in, line);
            out << line << '\n';
        }
        std::getline(in, line);
        out << line.substr(0, line.size() / 2); // no trailing newline
    }

    options.jsonlPath = half;
    options.resume = true;
    const auto report = exp::runJobs(jobs, options);
    EXPECT_EQ(report.resumed(), jobs.size() / 2);
    EXPECT_EQ(report.completed(), jobs.size() - jobs.size() / 2);
    for (const auto &out : report.outcomes) {
        EXPECT_NE(out.status, exp::JobStatus::Failed);
        EXPECT_TRUE(out.stats.has("cycles")) << out.key;
    }

    // The resumed file ends up line-for-line equal (as a set) to the
    // uninterrupted run: the torn tail was re-run, the rest kept.
    EXPECT_EQ(sortedLines(half), complete);
    std::remove(full.c_str());
    std::remove(half.c_str());
}

TEST(Engine, TimeoutFailsTheJob)
{
    exp::ExperimentSpec spec = smallSpec(2'000'000'000ULL);
    spec.workloads = {"x264"};
    spec.axes.clear();
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);

    exp::EngineOptions options;
    options.hostThreads = 1;
    options.timeoutSeconds = 0.05;
    const auto report = exp::runJobs(jobs, options);
    ASSERT_EQ(report.outcomes.size(), 1u);
    const auto &out = report.outcomes[0];
    EXPECT_EQ(out.status, exp::JobStatus::Failed);
    EXPECT_EQ(out.error.rfind("timeout: ", 0), 0u) << out.error;
    EXPECT_EQ(report.failed(), 1u);
}

TEST(Engine, FatalConfigErrorFailsOneJobNotTheProcess)
{
    auto jobs = smallSpec().expand();
    SystemConfig bad = jobs[0].config;
    bad.workload = "no-such-workload";
    jobs.push_back(exp::Job{exp::configKey(bad), bad});

    const auto report = exp::runJobs(jobs, {});
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_EQ(report.completed(), jobs.size() - 1);
    const auto &out = report.outcomes.back();
    EXPECT_EQ(out.status, exp::JobStatus::Failed);
    EXPECT_EQ(out.error.rfind("fatal: ", 0), 0u) << out.error;
    EXPECT_NE(out.error.find("unknown workload profile"),
              std::string::npos)
        << out.error;
}

// A violated simcheck invariant fails its job, as a fatal config error
// does, and the job next to it completes. The trigger is an open SWMR
// auditor failure on 4-core blackscholes ("core 1 holds block
// 0x700000003f40 in E/M but the directory records owner -1"); once the
// multicore ownership race behind it is fixed, give this test a job
// that still violates a check.
TEST(Engine, CheckViolationFailsOneJobNotTheProcess)
{
    SystemConfig good = makeConfig("x264", 56, StorePrefetchPolicy::AtCommit);
    good.maxUopsPerCore = 2'000;
    SystemConfig bad =
        makeConfig("blackscholes", 14, StorePrefetchPolicy::AtCommit);
    bad.threads = 4;
    bad.maxUopsPerCore = 10'000;
    const std::vector<exp::Job> jobs{exp::Job{exp::configKey(good), good},
                                     exp::Job{exp::configKey(bad), bad}};

    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);
    const auto report = exp::runJobs(jobs, {});
    check::setLevel(saved);

    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, exp::JobStatus::Completed);
    const auto &out = report.outcomes[1];
    EXPECT_EQ(out.status, exp::JobStatus::Failed);
    EXPECT_EQ(out.error.rfind("check: ", 0), 0u) << out.error;
}

TEST(Engine, BadCoreCountAndSpbIntervalFailOnlyTheirJobs)
{
    // Configuration errors are FatalErrors, not assertions: each bad
    // job fails on its own and the good job next to them completes.
    SystemConfig good = makeConfig("x264", 56, StorePrefetchPolicy::AtCommit,
                                   /*use_spb=*/true);
    good.maxUopsPerCore = 2'000;
    std::vector<exp::Job> jobs{exp::Job{exp::configKey(good), good}};
    for (int cores : {0, 65}) {
        SystemConfig bad = good;
        bad.threads = cores;
        jobs.push_back(exp::Job{exp::configKey(bad), bad});
    }
    SystemConfig bad_n = good;
    bad_n.spb.checkInterval = 1;
    jobs.push_back(exp::Job{exp::configKey(bad_n), bad_n});

    const auto report = exp::runJobs(jobs, {});
    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(report.outcomes[0].status, exp::JobStatus::Completed);
    EXPECT_EQ(report.completed(), 1u);
    EXPECT_EQ(report.failed(), 3u);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(report.outcomes[i].status, exp::JobStatus::Failed);
        EXPECT_NE(report.outcomes[i].error.find("unsupported core count"),
                  std::string::npos)
            << report.outcomes[i].error;
    }
    EXPECT_EQ(report.outcomes[3].status, exp::JobStatus::Failed);
    EXPECT_NE(report.outcomes[3].error.find("check interval N"),
              std::string::npos)
        << report.outcomes[3].error;
}

TEST(EngineDeathTest, DuplicateJobKeysAreFatal)
{
    auto jobs = smallSpec().expand();
    jobs.push_back(jobs.front());
    EXPECT_EXIT(exp::runJobs(jobs, {}), testing::ExitedWithCode(1),
                "duplicate job key");
}

TEST(EngineDeathTest, UnwritableSinkFailsTheRun)
{
    // /dev/full accepts the open and fails every flush with ENOSPC: the
    // run must not report success with nothing written.
    exp::ExperimentSpec spec = smallSpec(2'000);
    spec.workloads = {"x264"};
    spec.axes.clear();
    exp::EngineOptions options;
    options.hostThreads = 1;
    options.jsonlPath = "/dev/full";
    EXPECT_EXIT(exp::runJobs(spec.expand(), options),
                testing::ExitedWithCode(1),
                "cannot write result sink '/dev/full'");
}

} // namespace
} // namespace spburst
