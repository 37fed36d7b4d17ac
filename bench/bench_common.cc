#include "bench/bench_common.hh"

#include <cstdio>
#include <set>

#include "common/logging.hh"
#include "exp/options.hh"
#include "trace/workloads.hh"

namespace spburst::bench
{

BenchOptions
BenchOptions::parse(int argc, char **argv, std::uint64_t default_uops)
{
    BenchOptions o;
    o.base.maxUopsPerCore = default_uops;
    const std::string_view program = argv[0];
    exp::CommandLine cli("bench",
                         std::string(program.substr(program.rfind('/') + 1)) +
                             " [options] (default --uops=" +
                             std::to_string(default_uops) + ")");
    for (const char *row : {"uops", "seed", "sample", "check"})
        cli.config(row, o.base);
    cli.workloads("trace", o.workloads);
    cli.option("quick", "", "fast smoke run: --uops=20000",
               [&o](std::string_view) { o.base.maxUopsPerCore = 20'000; });
    cli.count("jobs", "host threads (0 = all hardware; default)", o.jobs, 0,
              4096);
    cli.flag("progress", "live progress line on stderr", o.progress);
    cli.parse(argc, argv);
    return o;
}

SystemConfig
BenchOptions::config(const std::string &workload, unsigned sb_size,
                     const Strategy &strategy) const
{
    SystemConfig cfg = base;
    cfg.workload = workload;
    cfg.sbSize = sb_size;
    cfg.policy = strategy.policy;
    cfg.useSpb = strategy.spb;
    cfg.idealSb = strategy.ideal;
    return cfg;
}

const SimResult &
Runner::run(const std::string &workload, unsigned sb_size,
            const Strategy &strategy)
{
    return run(options_.config(workload, sb_size, strategy));
}

void
Runner::prewarm(const std::vector<SystemConfig> &configs)
{
    std::vector<exp::Job> jobs;
    jobs.reserve(configs.size());
    std::set<std::string> queued;
    for (const auto &cfg : configs) {
        std::string key = exp::configKey(cfg);
        if (cache_.count(key) || !queued.insert(key).second)
            continue;
        jobs.push_back(exp::Job{std::move(key), cfg});
    }
    if (jobs.empty())
        return;

    exp::EngineOptions engine;
    engine.hostThreads = options_.jobs;
    engine.progress = options_.progress;
    const exp::ExperimentReport report = exp::runJobs(jobs, engine);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const exp::JobOutcome &out = report.outcomes[i];
        if (out.status != exp::JobStatus::Completed)
            SPB_FATAL("prewarm job '%s' failed: %s", out.key.c_str(),
                      out.error.c_str());
        cache_.emplace(out.key, out.result);
    }
}

void
Runner::prewarmGrid(const std::vector<std::string> &workloads,
                    const std::vector<unsigned> &sb_sizes,
                    const std::vector<Strategy> &strategies,
                    bool ideal_baseline)
{
    std::vector<SystemConfig> grid;
    grid.reserve(workloads.size() *
                 (sb_sizes.size() * strategies.size() + 1));
    for (const auto &w : workloads) {
        if (ideal_baseline)
            grid.push_back(options_.config(w, 56, kIdeal));
        for (unsigned sb : sb_sizes)
            for (const Strategy &s : strategies)
                grid.push_back(options_.config(w, sb, s));
    }
    prewarm(grid);
}

const SimResult &
Runner::run(SystemConfig cfg)
{
    const std::string key = exp::configKey(cfg);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    SimResult result = runSystem(cfg);
    return cache_.emplace(key, std::move(result)).first->second;
}

std::vector<std::string>
suiteAll()
{
    return allSpecNames();
}

std::vector<std::string>
suiteSbBound()
{
    return sbBoundSpecNames();
}

void
printHeader(const std::string &figure, const std::string &what,
            const BenchOptions &options)
{
    std::printf("########################################################\n");
    std::printf("# %s\n", figure.c_str());
    std::printf("# %s\n", what.c_str());
    std::printf("# %lu committed uops per core per run, seed %lu\n",
                static_cast<unsigned long>(options.base.maxUopsPerCore),
                static_cast<unsigned long>(options.base.seed));
    std::printf("########################################################\n");
}

} // namespace spburst::bench
