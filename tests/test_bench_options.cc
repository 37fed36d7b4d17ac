/**
 * @file
 * Unit tests for the bench command-line front end: flag parsing and
 * the (fatal) rejection of unknown options.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "exp/spec.hh"

namespace spburst::bench
{
namespace
{

/** Build a mutable argv from string literals for BenchOptions::parse. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : strings_(std::move(args))
    {
        strings_.insert(strings_.begin(), "bench");
        for (auto &s : strings_)
            pointers_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char **argv() { return pointers_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> pointers_;
};

TEST(BenchOptions, DefaultsComeFromTheCaller)
{
    Argv a({});
    const BenchOptions o = BenchOptions::parse(a.argc(), a.argv(), 77'000);
    EXPECT_EQ(o.base.maxUopsPerCore, 77'000u);
    EXPECT_EQ(o.base.seed, 1u);
    EXPECT_EQ(o.jobs, 0u);
    EXPECT_FALSE(o.progress);
}

TEST(BenchOptions, ParsesEveryFlag)
{
    Argv a({"--uops=5000", "--seed=42", "--jobs=4", "--progress",
            "--trace=foo.champsim"});
    const BenchOptions o = BenchOptions::parse(a.argc(), a.argv());
    EXPECT_EQ(o.base.maxUopsPerCore, 5'000u);
    EXPECT_EQ(o.base.seed, 42u);
    EXPECT_EQ(o.jobs, 4u);
    EXPECT_TRUE(o.progress);
    EXPECT_EQ(o.workloads,
              std::vector<std::string>{"trace:foo.champsim"});
}

TEST(BenchOptions, QuickOverridesTheUopBudget)
{
    Argv a({"--quick"});
    const BenchOptions o = BenchOptions::parse(a.argc(), a.argv(), 500'000);
    EXPECT_EQ(o.base.maxUopsPerCore, 20'000u);
}

// Every config a figure builds by hand starts from the parsed base, so
// --sample reaches it as well as the runner's standard configs (a
// sampled ideal baseline over a detailed numerator was the bug).
TEST(BenchOptions, SampleReachesHandBuiltConfigs)
{
    Argv a({"--sample=interval=3000,window=1000,warmup=500", "--seed=7"});
    const BenchOptions o = BenchOptions::parse(a.argc(), a.argv(), 6'000);
    SystemConfig cfg = o.config("x264", 14, kSpb);
    cfg.spb.checkInterval = 16; // as sens_n_sweep builds it
    EXPECT_TRUE(cfg.sample.enabled());
    EXPECT_EQ(cfg.sample.canonical(),
              "interval=3000,window=1000,warmup=500");
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.maxUopsPerCore, 6'000u);
    EXPECT_NE(exp::configKey(cfg).find("|smp:"), std::string::npos);
    EXPECT_NE(exp::configKey(o.config("x264", 56, kIdeal)).find("|smp:"),
              std::string::npos);
}

TEST(BenchOptionsDeathTest, MalformedNumberIsRejected)
{
    Argv a({"--uops=abc"});
    EXPECT_EXIT(BenchOptions::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "--uops: 'abc' is not");
}

TEST(BenchOptionsDeathTest, UnknownFlagIsRejected)
{
    Argv a({"--no-such-flag"});
    EXPECT_EXIT(BenchOptions::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "unknown bench option");
}

TEST(BenchOptionsDeathTest, MisspelledValueFlagIsRejected)
{
    Argv a({"--uop=5000"});
    EXPECT_EXIT(BenchOptions::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1),
                "unknown bench option '--uop=5000'");
}

TEST(BenchRunner, MemoizesByConfigKey)
{
    BenchOptions options;
    options.base.maxUopsPerCore = 2'000;
    Runner runner(options);
    const SimResult &a = runner.run("x264", 56, kAtCommit);
    const SimResult &b = runner.run("x264", 56, kAtCommit);
    EXPECT_EQ(&a, &b); // second call is the cached object
    EXPECT_EQ(runner.executed(), 1u);
}

TEST(BenchRunner, PrewarmFillsTheCacheTheLoopsHit)
{
    BenchOptions options;
    options.base.maxUopsPerCore = 2'000;
    options.jobs = 1;

    Runner serial(options);
    const SimResult &direct = serial.run("x264", 14, kSpb);

    Runner warmed(options);
    warmed.prewarmGrid({"x264"}, {14}, {kSpb}, false);
    EXPECT_EQ(warmed.executed(), 1u);
    const SimResult &cached = warmed.run("x264", 14, kSpb);
    EXPECT_EQ(warmed.executed(), 1u); // no new simulation
    EXPECT_EQ(cached.cycles, direct.cycles);
    EXPECT_EQ(cached.committedUops(), direct.committedUops());
}

} // namespace
} // namespace spburst::bench
