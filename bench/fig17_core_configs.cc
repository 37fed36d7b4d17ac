/**
 * @file
 * Fig. 17 (and Table II) — Core-aggressiveness sensitivity: execution
 * time normalised to the ideal SB for the Silvermont / Nehalem /
 * Haswell / Skylake / Sunny Cove configurations, with at-commit and
 * SPB at the preset's default SQ size and at half of it (the SMT-2
 * per-thread share).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "cpu/params.hh"

using namespace spburst;
using namespace spburst::bench;

namespace
{

/** Table II preset @p p with its SQ resized to @p sq_size. */
SystemConfig
coreConfig(const BenchOptions &options, const CoreParams &p,
           const Strategy &strat, unsigned sq_size, const std::string &w)
{
    SystemConfig cfg = options.config(w, 0, strat);
    cfg.coreParams = p;
    cfg.coreParams.name = p.name + "-sq" + std::to_string(sq_size);
    cfg.coreParams.sqSize = sq_size;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = BenchOptions::parse(argc, argv, 60'000);
    printHeader("Figure 17 / Table II",
                "Execution time normalised to ideal across core "
                "configurations (lower is better)",
                options);
    Runner runner(options);
    {
        std::vector<SystemConfig> grid;
        for (const CoreParams &p : tableIIPresets()) {
            for (const auto &w : suiteSbBound()) {
                grid.push_back(coreConfig(options, p, kIdeal, p.sqSize, w));
                for (unsigned sq : {p.sqSize, p.sqSize / 2})
                    for (const Strategy &s : {kAtCommit, kSpb})
                        grid.push_back(coreConfig(options, p, s, sq, w));
            }
        }
        runner.prewarm(grid);
    }

    // Table II itself.
    TextTable tab2("Table II: configurations",
                   {"name", "ROB", "IQ", "LQ", "SQ", "width"});
    for (const CoreParams &p : tableIIPresets()) {
        tab2.addRow({p.name, std::to_string(p.robSize),
                     std::to_string(p.iqSize), std::to_string(p.lqSize),
                     std::to_string(p.sqSize),
                     std::to_string(p.issueWidth)});
    }
    tab2.print();
    std::puts("");

    TextTable table("geomean normalised execution time, SB-bound suite",
                    {"config", "at-commit", "SPB", "at-commit SQ/2",
                     "SPB SQ/2"});
    for (const CoreParams &p : tableIIPresets()) {
        auto norm = [&](unsigned sq, const Strategy &s) {
            return geomeanOver(suiteSbBound(), [&](const std::string &w) {
                const double ideal = static_cast<double>(
                    runner.run(coreConfig(options, p, kIdeal, p.sqSize, w))
                        .cycles);
                return static_cast<double>(
                           runner.run(coreConfig(options, p, s, sq, w))
                               .cycles) /
                       ideal;
            });
        };
        table.addRow(p.name,
                     {norm(p.sqSize, kAtCommit), norm(p.sqSize, kSpb),
                      norm(p.sqSize / 2, kAtCommit),
                      norm(p.sqSize / 2, kSpb)},
                     3);
    }
    table.print();

    std::printf("\nPaper shape: the at-commit gap to ideal grows toward"
                " energy-efficient cores; SPB stays near 1.0 at default"
                " SQ and >= 0.89 of ideal at half SQ, while at-commit"
                " falls to ~0.67 in the worst case.\n");
    return 0;
}
