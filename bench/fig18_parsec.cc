/**
 * @file
 * Fig. 18 — Multithreaded evaluation: PARSEC-like workloads on 8
 * cores through the MESI directory, performance normalised to the
 * ideal SB, for at-commit and SPB at SB sizes 14/28/56. Also reports
 * the coherence impact of SPB bursts (invalidations they caused).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "trace/workloads.hh"

using namespace spburst;
using namespace spburst::bench;

namespace
{

constexpr int kThreads = 8;

SystemConfig
parsecConfig(const BenchOptions &options, const std::string &workload,
             unsigned sb, const spburst::bench::Strategy &s)
{
    SystemConfig cfg = options.config(workload, sb, s);
    cfg.threads = kThreads;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = BenchOptions::parse(argc, argv, 30'000);
    printHeader("Figure 18",
                "PARSEC-like suite, 8 threads, performance normalised "
                "to the ideal SB",
                options);
    Runner runner(options);
    {
        std::vector<SystemConfig> grid;
        for (const auto &w : allParsecNames()) {
            grid.push_back(parsecConfig(options, w, 56, kIdeal));
            for (unsigned sb : kSbSizes)
                for (const auto &s : {kAtCommit, kSpb})
                    grid.push_back(parsecConfig(options, w, sb, s));
        }
        runner.prewarm(grid);
    }

    const auto all = allParsecNames();
    const auto bound = sbBoundParsecNames();

    auto norm = [&](const std::string &w, unsigned sb,
                    const spburst::bench::Strategy &s) {
        const double ideal = static_cast<double>(
            runner.run(parsecConfig(options, w, 56, kIdeal)).cycles);
        return ideal /
               static_cast<double>(
                   runner.run(parsecConfig(options, w, sb, s)).cycles);
    };

    TextTable table("geomean normalised performance (8 threads)",
                    {"SB size", "strategy", "ALL", "SB-BOUND"});
    for (unsigned sb : kSbSizes) {
        for (const auto &s : {kAtCommit, kSpb}) {
            table.addRow(
                {std::string("SB") + std::to_string(sb), s.label,
                 formatDouble(geomeanOver(all,
                                          [&](const std::string &w) {
                                              return norm(w, sb, s);
                                          }),
                              3),
                 formatDouble(geomeanOver(bound,
                                          [&](const std::string &w) {
                                              return norm(w, sb, s);
                                          }),
                              3)});
        }
        table.addSeparator();
    }
    table.print();
    std::puts("");

    // Coherence friendliness: invalidations caused by SPB bursts.
    TextTable coh("SPB coherence impact (SB14, per workload)",
                  {"workload", "SPB perf / at-commit",
                   "dir invalidations", "caused by SPB"});
    for (const auto &w : bound) {
        const SimResult &ac =
            runner.run(parsecConfig(options, w, 14, kAtCommit));
        const SimResult &spb =
            runner.run(parsecConfig(options, w, 14, kSpb));
        coh.addRow({w,
                    formatDouble(static_cast<double>(ac.cycles) /
                                     static_cast<double>(spb.cycles),
                                 3),
                    std::to_string(spb.directory.invalidations),
                    std::to_string(spb.directory.invalidationsBySpb)});
    }
    coh.print();

    std::printf("\nPaper shape: SPB gains ~1%% at SB56 and up to 18.5%%"
                " (SB-bound) at SB14; no workload regresses — store"
                " bursts hit private data, so SPB stays"
                " coherence-friendly.\n");
    return 0;
}
