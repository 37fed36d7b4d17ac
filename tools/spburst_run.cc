/**
 * @file
 * `spburst_run` — the command-line driver: run any workload under any
 * configuration and emit text, JSON or CSV. This is the tool a
 * downstream user scripts experiments with.
 *
 *   spburst_run --workload=x264,roms --sb=14 --spb --format=csv
 *   spburst_run --workload=sb-bound --policy=at-execute --uops=500000
 *   spburst_run --workload=dedup --threads=8 --format=json
 *   spburst_run --list-workloads
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "exp/engine.hh"
#include "exp/options.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

using namespace spburst;

namespace
{

void
listWorkloads()
{
    std::printf("%-14s %-8s %s\n", "name", "suite", "SB-bound");
    for (const auto &p : specProfiles())
        std::printf("%-14s %-8s %s\n", p.name.c_str(), "spec",
                    p.sbBound ? "yes" : "no");
    for (const auto &p : parsecProfiles())
        std::printf("%-14s %-8s %s\n", p.name.c_str(), "parsec",
                    p.sbBound ? "yes" : "no");
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig base;
    base.sbSize = 56;
    base.maxUopsPerCore = 200'000;
    std::vector<std::string> workloads;
    std::vector<std::string> traces;
    std::string format = "text";
    unsigned host_threads = 0;
    std::string out;

    exp::CommandLine cli(
        "spburst_run",
        "spburst_run — run the SPB simulator (defaults: --workload=x264\n"
        "--sb=56 --uops=200000; --trace alone replaces the workload)");
    cli.workloads("workload", workloads);
    cli.workloads("trace", traces);
    for (const char *row :
         {"sb", "policy", "spb", "spb-n", "spb-dynamic", "spb-backward",
          "ideal", "l1pf", "core", "threads", "uops", "seed", "sample",
          "check", "no-fast-forward"})
        cli.config(row, base);
    cli.option("format", "text|json|csv", "output format (default text)",
               [&format](std::string_view v) {
                   if (v != "text" && v != "json" && v != "csv")
                       SPB_FATAL("unknown format '%.*s' (expected "
                                 "text|json|csv)",
                                 static_cast<int>(v.size()), v.data());
                   format = v;
               });
    cli.count("jobs",
              "host threads for multi-workload runs\n"
              "(0 = all hardware threads; default)",
              host_threads, 0, 4096);
    cli.option("out", "FILE", "also append per-run JSONL results",
               [&out](std::string_view v) { out = v; });
    cli.option("list-workloads", "", "print the workload registry and exit",
               [](std::string_view) {
                   listWorkloads();
                   std::exit(0);
               });
    cli.parse(argc, argv);

    // --trace entries follow the --workload list; with neither given
    // the run is x264.
    workloads.insert(workloads.end(), traces.begin(), traces.end());
    if (workloads.empty())
        workloads.push_back(base.workload);

    // The multi-workload path runs on the experiment engine: one job
    // per workload, executed on --jobs host threads, results returned
    // in workload order (bit-identical to the old serial loop).
    std::vector<exp::Job> jobs;
    for (const auto &w : workloads) {
        SystemConfig cfg = base;
        cfg.workload = w;
        jobs.push_back(exp::Job{exp::configKey(cfg), std::move(cfg)});
    }

    exp::EngineOptions engine;
    engine.hostThreads = jobs.size() > 1 ? host_threads : 1;
    engine.jsonlPath = out;
    const exp::ExperimentReport report = exp::runJobs(jobs, engine);

    std::vector<SimResult> results;
    results.reserve(report.outcomes.size());
    for (const auto &outcome : report.outcomes) {
        if (outcome.status != exp::JobStatus::Completed)
            SPB_FATAL("job '%s' failed: %s", outcome.key.c_str(),
                      outcome.error.c_str());
        results.push_back(outcome.result);
    }

    if (format == "json") {
        std::printf("%s\n", toJson(results).c_str());
    } else if (format == "csv") {
        std::printf("%s", toCsv(results).c_str());
    } else {
        TextTable table("results",
                        {"workload", "cycles", "IPC", "SB-stall%",
                         "L1D load miss%", "drain miss%", "SPB bursts",
                         "energy (uJ)"});
        for (const auto &r : results) {
            const auto &l1 = r.l1d[0];
            table.addRow(
                {r.workload, std::to_string(r.cycles),
                 formatDouble(r.ipc(), 3),
                 formatPercent(r.sbStallRatio()),
                 formatPercent(ratio(
                     static_cast<double>(l1.loadMisses),
                     static_cast<double>(l1.loadHits + l1.loadMisses))),
                 formatPercent(
                     ratio(static_cast<double>(l1.storeOwnMisses),
                           static_cast<double>(l1.storeOwnHits +
                                               l1.storeOwnMisses))),
                 std::to_string(r.spbs.empty() ? 0 : r.spbs[0].bursts),
                 formatDouble(r.energy.totalPj() * 1e-6, 1)});
        }
        table.print();
        // In sampled runs the table rows cover only the detailed
        // windows; the per-workload estimate lines carry the error bars.
        for (const auto &r : results) {
            if (r.sample.entries().empty())
                continue;
            std::printf("%s: sampled %d windows: IPC %.3f +/- %.3f "
                        "(95%% CI), SB stalls/kuop %.2f +/- %.2f\n",
                        r.workload.c_str(),
                        static_cast<int>(r.sample.get("windows")),
                        r.sample.get("ipc_mean"),
                        r.sample.get("ipc_ci95"),
                        r.sample.get("sb_stall_per_kuop_mean"),
                        r.sample.get("sb_stall_per_kuop_ci95"));
        }
    }
    return 0;
}
