/**
 * @file
 * Fig. 16 — SPB orthogonality to cache prefetching: the full grid of
 * five cache-prefetcher configurations {none, stride, FDP, BOP,
 * DSPatch} crossed with the five store-prefetch strategies {none,
 * at-execute, at-commit, SPB, ideal}, execution time normalised to
 * "ideal SB + the same prefetcher". A second table reports each
 * prefetcher's unified quality stats (accuracy / coverage / pollution)
 * with and without SPB, showing SPB neither needs nor disturbs the
 * cache prefetcher.
 *
 * Runs over the SB-bound profile suite by default; pass --trace=PATH
 * (optionally with --sample=SPEC) to replay a real ChampSim trace
 * through the same grid instead.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"

using namespace spburst;
using namespace spburst::bench;

namespace
{

/** The Fig. 16 prefetcher axis; labels match the pf.<name>.* stats. */
const std::vector<std::pair<const char *, L1PrefetcherKind>> kKinds{
    {"none", L1PrefetcherKind::None},
    {"stride", L1PrefetcherKind::Stream},
    {"fdp", L1PrefetcherKind::Adaptive},
    {"bop", L1PrefetcherKind::BestOffset},
    {"dspatch", L1PrefetcherKind::DSPatch},
};

/** The full strategy axis (x-axis of the paper's figure). */
const std::vector<Strategy> kStrategies{kNone, kAtExecute, kAtCommit,
                                        kSpb, kIdeal};

SystemConfig
cfgWith(const Runner &runner, const std::string &workload,
        L1PrefetcherKind kind, const Strategy &s)
{
    SystemConfig cfg = runner.options().config(workload, 56, s);
    cfg.l1Prefetcher = kind;
    return cfg;
}

/** Counters behind the derived pf rates, summed over workloads. */
struct QualityAccum
{
    double issued = 0, useful = 0, misses = 0, pollution = 0;

    void
    addFrom(const SimResult &r, const std::string &name)
    {
        issued += r.pf.get(name + ".issued");
        useful += r.pf.get(name + ".useful");
        misses += r.pf.get(name + ".demandMisses");
        pollution += r.pf.get(name + ".pollution");
    }

    double accuracy() const { return issued ? useful / issued : 0.0; }
    double coverage() const
    {
        const double base = useful + misses;
        return base ? useful / base : 0.0;
    }
    double pollutionRate() const
    {
        return issued ? pollution / issued : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = BenchOptions::parse(argc, argv);
    printHeader("Figure 16",
                "Execution time normalised to ideal SB with the same "
                "cache prefetcher (lower is better; SB56), for every "
                "prefetcher x store-prefetch strategy cell",
                options);
    const std::vector<std::string> workloads =
        options.workloads.empty() ? suiteSbBound() : options.workloads;

    Runner runner(options);
    {
        std::vector<SystemConfig> grid;
        grid.reserve(kKinds.size() * workloads.size() *
                     kStrategies.size());
        for (const auto &[label, kind] : kKinds) {
            (void)label;
            for (const auto &w : workloads)
                for (const Strategy &s : kStrategies)
                    grid.push_back(cfgWith(runner, w, kind, s));
        }
        runner.prewarm(grid);
    }

    auto norm = [&](const std::string &w, L1PrefetcherKind kind,
                    const Strategy &s) {
        const double ideal = static_cast<double>(
            runner.run(cfgWith(runner, w, kind, kIdeal)).cycles);
        return static_cast<double>(
                   runner.run(cfgWith(runner, w, kind, s)).cycles) /
               ideal;
    };

    for (const auto &[label, kind] : kKinds) {
        TextTable table(std::string("normalised execution time — ") +
                            label + " prefetcher",
                        {"workload", "none", "at-execute", "at-commit",
                         "SPB"});
        for (const auto &w : workloads) {
            std::vector<double> row;
            for (const Strategy &s : {kNone, kAtExecute, kAtCommit, kSpb})
                row.push_back(norm(w, kind, s));
            table.addRow(w, row, 3);
        }
        if (workloads.size() > 1) {
            table.addSeparator();
            std::vector<double> geo;
            for (const Strategy &s : {kNone, kAtExecute, kAtCommit, kSpb})
                geo.push_back(
                    geomeanOver(workloads, [&](const std::string &w) {
                        return norm(w, kind, s);
                    }));
            table.addRow("GEOMEAN", geo, 3);
        }
        table.print();
    }

    // Prefetcher quality from the unified pf.<name>.* stats, summed
    // over the workloads: identical metrics for every prefetcher, with
    // and without SPB running underneath.
    TextTable quality("cache-prefetcher quality (at-commit vs +SPB)",
                      {"prefetcher", "accuracy", "coverage", "pollution",
                       "accuracy+SPB", "coverage+SPB", "pollution+SPB"});
    for (const auto &[label, kind] : kKinds) {
        if (kind == L1PrefetcherKind::None)
            continue;
        std::vector<double> row;
        for (const Strategy &s : {kAtCommit, kSpb}) {
            QualityAccum acc;
            for (const auto &w : workloads)
                acc.addFrom(runner.run(cfgWith(runner, w, kind, s)),
                            label);
            row.push_back(acc.accuracy());
            row.push_back(acc.coverage());
            row.push_back(acc.pollutionRate());
        }
        quality.addRow(label, row, 3);
    }
    quality.print();

    std::printf("\nPaper shape: no cache prefetcher removes SB-induced"
                " stalls (their requests stay bounded by the SB's"
                " scope); SPB closes the gap to the ideal SB under"
                " every prefetcher, and leaves the prefetcher's own"
                " accuracy/coverage essentially untouched.\n");
    return 0;
}
