#include "exp/spec.hh"

#include <cstdio>
#include <set>

#include "common/logging.hh"
#include "exp/options.hh"

namespace spburst::exp
{

std::string
configKey(const SystemConfig &cfg)
{
    // The workload name prefixes as a std::string: trace workloads
    // embed arbitrarily long file paths that must never truncate (a
    // truncated key would alias distinct checkpoint entries).
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "|sb%u|p%d|spb%d:%u:%d:%d|i%d|c%d|pf%d|t%d|s%lu|u%lu|%s|m%u:%zu",
        cfg.sbSize, static_cast<int>(cfg.policy),
        cfg.useSpb, cfg.spb.checkInterval, cfg.spb.dynamicThreshold,
        cfg.spb.backwardBursts, cfg.idealSb, cfg.coalescingSb,
        static_cast<int>(cfg.l1Prefetcher), cfg.threads,
        static_cast<unsigned long>(cfg.seed),
        static_cast<unsigned long>(cfg.maxUopsPerCore),
        cfg.coreParams.name.c_str(), cfg.mem.l1d.prefetchIssuePerCycle,
        cfg.mem.l1d.demandReservedMshrs);
    std::string key = cfg.workload + buf;
    // SMT joins only when on, so every single-thread key (and every
    // JSONL file that resumes on one) stays as it was.
    if (cfg.smtThreads != 1)
        key += "|smt" + std::to_string(cfg.smtThreads);
    // Interval sampling changes results, so its result-affecting spec
    // joins the key. The checkpoint path does not (replayed and
    // live-warmed runs are byte-identical), and the host-only
    // fast-forward knob stays excluded as ever.
    if (cfg.sample.enabled()) {
        key += "|smp:";
        key += cfg.sample.canonical();
    }
    return key;
}

std::vector<Job>
ExperimentSpec::expand() const
{
    SPB_ASSERT(!workloads.empty(),
               "experiment '%s' has no workloads", name.c_str());
    std::size_t per_workload = 1;
    for (const auto &axis : axes) {
        SPB_ASSERT(!axis.values.empty(),
                   "experiment '%s' axis '%s' has no values",
                   name.c_str(), axis.name.c_str());
        per_workload *= axis.values.size();
    }

    std::vector<Job> jobs;
    jobs.reserve(workloads.size() * per_workload);
    std::vector<std::size_t> digits(axes.size(), 0);
    for (const auto &workload : workloads) {
        for (std::size_t idx = 0; idx < per_workload; ++idx) {
            // Decompose idx into one digit per axis, last axis fastest.
            std::size_t rem = idx;
            for (std::size_t a = axes.size(); a-- > 0;) {
                digits[a] = rem % axes[a].values.size();
                rem /= axes[a].values.size();
            }
            SystemConfig cfg = base;
            cfg.workload = workload;
            for (std::size_t a = 0; a < axes.size(); ++a)
                configOption(axes[a].name)
                    .parse(cfg, axes[a].values[digits[a]]);
            jobs.push_back(Job{configKey(cfg), std::move(cfg)});
        }
    }

    std::set<std::string> keys;
    for (const auto &job : jobs) {
        if (!keys.insert(job.key).second)
            SPB_FATAL("experiment '%s': duplicate job '%s' — two "
                      "variants resolve to the same configuration",
                      name.c_str(), job.key.c_str());
    }
    return jobs;
}

} // namespace spburst::exp
