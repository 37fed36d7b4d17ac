/**
 * @file
 * `spburst_sweep` — declarative design-space sweeps on the experiment
 * engine: a (workload × SB × strategy × N × prefetcher × core × seed)
 * grid expands into independent jobs that run on a pool of host
 * threads, checkpoint each completed job to a JSONL file, and resume
 * an interrupted sweep without redoing finished work.
 *
 *   spburst_sweep --workload=sb-bound --sb=14,28,56 \
 *       --strategy=at-commit,spb,ideal --out=sweep.jsonl --jobs=8
 *   spburst_sweep --workload=all --sb=14 --strategy=spb \
 *       --spb-n=8,16,24,32,48,64 --out=nsweep.jsonl --resume
 *
 * Results are bit-identical for any --jobs value; only the JSONL line
 * order depends on the schedule (it is completion order), so compare
 * files with `sort`.
 */

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "exp/engine.hh"
#include "exp/options.hh"
#include "sim/report.hh"

using namespace spburst;

int
main(int argc, char **argv)
{
    exp::ExperimentSpec spec;
    spec.name = "spburst_sweep";
    spec.base.maxUopsPerCore = 100'000;
    std::vector<std::string> traces;
    // Grid axes in expansion order (later axes vary fastest); an axis
    // left empty is not part of the grid.
    std::vector<exp::Axis> axes = {{"sb", {"56"}},
                                   {"strategy", {"at-commit"}},
                                   {"spb-n", {}},
                                   {"l1pf", {}},
                                   {"core", {}},
                                   {"seed", {}}};
    exp::EngineOptions engine;
    bool dry_run = false, quiet = false, no_summary = false;

    exp::CommandLine cli(
        "spburst_sweep",
        "spburst_sweep — parallel, checkpointed configuration sweeps\n"
        "(--workload and/or --trace required; the comma lists of\n"
        "--workload, --sb, --strategy, --spb-n, --l1pf, --core and\n"
        "--seed are grid axes; defaults: --sb=56 --strategy=at-commit\n"
        "--uops=100000)");
    cli.workloads("workload", spec.workloads);
    cli.workloads("trace", traces);
    for (exp::Axis &axis : axes)
        cli.axis(axis.name, axis.values);
    for (const char *row : {"threads", "uops", "sample", "check"})
        cli.config(row, spec.base);
    cli.count("jobs", "host threads (0 = all hardware; default)",
              engine.hostThreads, 0, 4096);
    cli.option("out", "FILE", "JSONL result sink (checkpointed)",
               [&engine](std::string_view v) { engine.jsonlPath = v; });
    cli.flag("resume", "skip jobs already present in --out", engine.resume);
    cli.option("timeout-s", "S", "per-job wall-clock timeout",
               [&engine](std::string_view v) {
                   engine.timeoutSeconds = exp::parseReal(v);
               });
    cli.flag("dry-run", "print the job list and exit", dry_run);
    cli.flag("no-summary", "skip the final summary table", no_summary);
    cli.flag("quiet", "no live progress line", quiet);
    cli.parse(argc, argv);

    spec.workloads.insert(spec.workloads.end(), traces.begin(),
                          traces.end());
    if (spec.workloads.empty())
        SPB_FATAL("--workload or --trace is required (see --help)");
    for (const exp::Axis &axis : axes)
        if (!axis.values.empty())
            spec.axes.push_back(axis);

    const std::vector<exp::Job> jobs = spec.expand();
    if (dry_run) {
        for (const auto &job : jobs)
            std::printf("%s\n", job.key.c_str());
        std::printf("# %zu jobs\n", jobs.size());
        return 0;
    }

    engine.progress = !quiet && isatty(fileno(stderr));

    const exp::ExperimentReport report = exp::runJobs(jobs, engine);

    if (!no_summary) {
        TextTable table("sweep results",
                        {"job", "cycles", "IPC", "SB-stall%", "status"});
        for (const auto &out : report.outcomes) {
            if (out.status == exp::JobStatus::Failed) {
                table.addRow({out.key, "-", "-", "-",
                              "FAILED: " + out.error});
                continue;
            }
            table.addRow(
                {out.key,
                 formatDouble(out.stats.get("cycles"), 0),
                 formatDouble(out.stats.get("ipc"), 3),
                 formatPercent(out.stats.get("sb_stall_ratio")),
                 out.status == exp::JobStatus::Resumed ? "resumed"
                                                       : "done"});
        }
        table.print();
    }

    std::fprintf(stderr,
                 "%zu jobs: %zu run, %zu resumed, %zu failed on %u "
                 "host threads in %.1fs\n",
                 report.outcomes.size(), report.completed(),
                 report.resumed(), report.failed(), report.hostThreads,
                 report.wallSeconds);
    return report.failed() == 0 ? 0 : 1;
}
