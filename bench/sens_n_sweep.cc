/**
 * @file
 * Sec. IV-C sensitivity — the SPB window length N: performance
 * normalised to ideal for N in {8,16,24,32,48,64} at each SB size,
 * plus the dynamic-threshold variant ablation at N=48.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace spburst;
using namespace spburst::bench;

namespace
{

SystemConfig
spbConfig(const BenchOptions &options, const std::string &workload,
          unsigned sb, unsigned n, bool dynamic)
{
    SystemConfig cfg = options.config(workload, sb, kSpb);
    cfg.spb.checkInterval = n;
    cfg.spb.dynamicThreshold = dynamic;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = BenchOptions::parse(argc, argv, 60'000);
    printHeader("Sensitivity (Sec. IV-C)",
                "SPB window length N and the dynamic-threshold variant "
                "(geomean over SB-bound workloads, normalised to ideal)",
                options);
    Runner runner(options);
    {
        std::vector<SystemConfig> grid;
        for (const auto &w : suiteSbBound()) {
            grid.push_back(options.config(w, 56, kIdeal));
            for (unsigned sb : kSbSizes) {
                for (unsigned n : {8u, 16u, 24u, 32u, 48u, 64u})
                    grid.push_back(spbConfig(options, w, sb, n, false));
                grid.push_back(spbConfig(options, w, sb, 48, true));
            }
        }
        runner.prewarm(grid);
    }

    const std::vector<unsigned> ns{8, 16, 24, 32, 48, 64};
    auto norm = [&](unsigned sb, unsigned n, bool dynamic) {
        return geomeanOver(suiteSbBound(), [&](const std::string &w) {
            const double ideal =
                static_cast<double>(runner.run(w, 56, kIdeal).cycles);
            return ideal /
                   static_cast<double>(
                       runner.run(spbConfig(options, w, sb, n, dynamic))
                           .cycles);
        });
    };

    TextTable table("normalised performance vs N",
                    {"SB size", "N=8", "N=16", "N=24", "N=32", "N=48",
                     "N=64", "dyn. N=48"});
    for (unsigned sb : kSbSizes) {
        std::vector<double> row;
        for (unsigned n : ns)
            row.push_back(norm(sb, n, false));
        row.push_back(norm(sb, 48, true));
        table.addRow("SB" + std::to_string(sb), row, 3);
    }
    table.print();

    std::printf("\nPaper finding: N between 24 and 48 performs well"
                " (48 chosen); the dynamic-threshold variant is never"
                " better than plain SPB due to adaptation hysteresis.\n");
    return 0;
}
