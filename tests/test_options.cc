/**
 * @file
 * Tests for the option table (src/exp/options.*) and the front ends
 * built on it. ConfigOptions.* walk the table and hold every row to its
 * scope: a Key row must change exp::configKey, a Host row must change
 * neither the key nor any statistic outside check.*. RunCli.* and
 * SweepCli.* drive the built spburst_run and spburst_sweep binaries,
 * including the text reports that read statistics by name (an unknown
 * name is fatal there).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "check/check.hh"
#include "exp/options.hh"
#include "exp/spec.hh"
#include "sim/system.hh"

namespace spburst
{
namespace
{

/** A row's value, "" for a flag that is given, or nullopt for an
 *  option left off the command line. */
using Setting = std::optional<std::string>;

/** Two settings for each row of the table, and for no other name. */
const std::map<std::string, std::pair<Setting, Setting>> kSettings = {
    {"workload", {"x264", "mcf"}},
    {"trace", {"a.champsim", "a.champsim,skip=10"}},
    {"sb", {"14", "28"}},
    {"policy", {"at-execute", "at-commit"}},
    {"strategy", {"at-commit", "spb"}},
    {"spb", {std::nullopt, ""}},
    {"spb-n", {"32", "48"}},
    {"spb-dynamic", {std::nullopt, ""}},
    {"spb-backward", {std::nullopt, ""}},
    {"ideal", {std::nullopt, ""}},
    {"l1pf", {"stream", "bop"}},
    {"core", {"skylake", "SLM"}},
    {"threads", {"1", "2"}},
    {"uops", {"2000", "3000"}},
    {"seed", {"1", "2"}},
    {"sample", {"interval=5000,window=1000", "interval=5000,window=500"}},
    {"check", {"off", "full"}},
    {"no-fast-forward", {std::nullopt, ""}},
};

/** A 2k-uop x264 config with @p row set to @p setting. */
SystemConfig
configWith(const exp::ConfigOption &row, const Setting &setting)
{
    SystemConfig cfg = makeConfig("x264", 56, StorePrefetchPolicy::AtCommit);
    cfg.maxUopsPerCore = 2'000;
    if (setting)
        row.parse(cfg, *setting);
    return cfg;
}

TEST(ConfigOptions, SettingsCoverExactlyTheTable)
{
    std::set<std::string> rows, covered;
    for (const exp::ConfigOption &row : exp::configOptions())
        EXPECT_TRUE(rows.insert(row.name).second) << row.name;
    for (const auto &entry : kSettings)
        covered.insert(entry.first);
    EXPECT_EQ(rows, covered);
}

TEST(ConfigOptions, EveryKeyRowChangesTheConfigKey)
{
    for (const exp::ConfigOption &row : exp::configOptions()) {
        if (row.scope != exp::Scope::Key)
            continue;
        const auto &[a, b] = kSettings.at(row.name);
        EXPECT_NE(exp::configKey(configWith(row, a)),
                  exp::configKey(configWith(row, b)))
            << "--" << row.name;
    }
}

TEST(ConfigOptions, EveryHostRowLeavesKeyAndStatisticsAlone)
{
    const check::Level saved = check::level();
    for (const exp::ConfigOption &row : exp::configOptions()) {
        if (row.scope != exp::Scope::Host)
            continue;
        std::vector<std::string> keys;
        std::vector<std::vector<std::pair<std::string, double>>> stats(2);
        for (const Setting &setting : {kSettings.at(row.name).first,
                                       kSettings.at(row.name).second}) {
            const SystemConfig cfg = configWith(row, setting);
            keys.push_back(exp::configKey(cfg));
            const StatSet all = runSystem(cfg).toStatSet();
            for (const auto &entry : all.entries())
                if (entry.first.rfind("check.", 0) != 0)
                    stats[keys.size() - 1].push_back(entry);
            check::setLevel(saved);
        }
        EXPECT_EQ(keys[0], keys[1]) << "--" << row.name;
        EXPECT_EQ(stats[0], stats[1]) << "--" << row.name;
    }
}

/** Run a built tool; (exit code, stdout + stderr). A value the parser
 *  let through would start a long run, so timeout fails it (124). */
std::pair<int, std::string>
runTool(const std::string &command)
{
    FILE *pipe = popen(("timeout 60 " + command + " 2>&1").c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    for (std::size_t n; (n = fread(buf, 1, sizeof(buf), pipe)) > 0;)
        out.append(buf, n);
    const int status = pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

void
expectHelpLists(const std::string &tool,
                const std::vector<std::string> &options)
{
    const auto [code, out] = runTool(tool + " --help");
    EXPECT_EQ(code, 0);
    for (const std::string &name : options)
        EXPECT_NE(out.find("  --" + name), std::string::npos) << name;
}

/** Each argument must exit 1 with a fatal: naming its option. */
void
expectFatal(const std::string &command,
            const std::vector<std::pair<std::string, std::string>> &cases)
{
    for (const auto &[arg, option] : cases) {
        const auto [code, out] = runTool(command + " " + arg);
        EXPECT_EQ(code, 1) << arg << "\n" << out;
        EXPECT_NE(out.find("fatal: --" + option), std::string::npos)
            << arg << "\n" << out;
    }
}

TEST(RunCli, HelpListsEveryRow)
{
    expectHelpLists(SPBURST_RUN_BIN,
                    {"workload", "trace", "sb", "policy", "spb", "spb-n",
                     "spb-dynamic", "spb-backward", "ideal", "l1pf", "core",
                     "threads", "uops", "seed", "sample", "check",
                     "no-fast-forward", "format", "jobs", "out",
                     "list-workloads"});
}

TEST(RunCli, MalformedValuesFailBeforeAnyJob)
{
    expectFatal(std::string(SPBURST_RUN_BIN) + " --uops=100000000",
                {{"--sb=abc", "sb"},
                 {"--uops=10x", "uops"},
                 {"--uops=-5", "uops"},
                 {"--uops=0", "uops"},
                 {"--seed=+5", "seed"},
                 {"--seed=18446744073709551616", "seed"},
                 {"--threads=abc", "threads"},
                 {"--format=yaml", "format"},
                 {"--spb-n=1", "spb-n"},
                 {"--workload=x264,nope", "workload"},
                 {"--trace=x.champsim,skip=-1", "trace"},
                 {"--sample=interval=-5000,window=1000", "sample"},
                 {"--sample=interval=5000,window=1,"
                  "warmup=18446744073709551615",
                  "sample"}});
}

/** The number after "NAME": in a flat JSON report (NaN if absent). */
double
jsonNumber(const std::string &json, const std::string &name)
{
    const std::string field = "\"" + name + "\":";
    const std::size_t at = json.find(field);
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(json.c_str() + at + field.size(), nullptr);
}

TEST(RunCli, SampledTextReportPrintsTheEstimate)
{
    // The estimate line reads the sample stats by name; it must print
    // the values the JSON report carries for the same run.
    const std::string run = std::string(SPBURST_RUN_BIN) +
                            " --trace=" SPBURST_CHAMPSIM_FIXTURES
                            "/fixture.champsim"
                            " --sample=interval=5000,window=1000,warmup=500";
    const auto [code, text] = runTool(run);
    ASSERT_EQ(code, 0) << text;
    const auto [jcode, json] = runTool(run + " --format=json");
    ASSERT_EQ(jcode, 0) << json;

    char line[256];
    std::snprintf(line, sizeof(line),
                  ": sampled %d windows: IPC %.3f +/- %.3f (95%% CI), "
                  "SB stalls/kuop %.2f +/- %.2f\n",
                  static_cast<int>(jsonNumber(json, "sample.windows")),
                  jsonNumber(json, "sample.ipc_mean"),
                  jsonNumber(json, "sample.ipc_ci95"),
                  jsonNumber(json, "sample.sb_stall_per_kuop_mean"),
                  jsonNumber(json, "sample.sb_stall_per_kuop_ci95"));
    EXPECT_GT(jsonNumber(json, "sample.windows"), 1.0) << json;
    EXPECT_NE(text.find(line), std::string::npos)
        << "expected '" << line << "' in\n"
        << text;
}

TEST(SweepCli, HelpListsEveryRow)
{
    expectHelpLists(SPBURST_SWEEP_BIN,
                    {"workload", "trace", "sb", "strategy", "spb-n", "l1pf",
                     "core", "seed", "threads", "uops", "sample", "check",
                     "jobs", "out", "resume", "timeout-s", "dry-run",
                     "no-summary", "quiet"});
}

TEST(SweepCli, MalformedValuesFailBeforeAnyJob)
{
    expectFatal(std::string(SPBURST_SWEEP_BIN) +
                    " --workload=x264 --uops=100000000 --quiet",
                {{"--sb=14,abc", "sb"},
                 {"--spb-n=8,x", "spb-n"},
                 {"--threads=-1", "threads"},
                 {"--seed=1,x", "seed"},
                 {"--timeout-s=abc", "timeout-s"},
                 {"--timeout-s=1e309", "timeout-s"},
                 {"--timeout-s=nan", "timeout-s"},
                 {"--strategy=spb,SPB", "strategy"},
                 {"--core=SKL,skl", "core"}});
}

TEST(SweepCli, DryRunPrintsTheRecordedKeys)
{
    // Keys as the hand-written parsers the table replaced printed
    // them: existing JSONL files must keep resuming.
    const auto [code, out] = runTool(std::string(SPBURST_SWEEP_BIN) +
                                     " --dry-run --workload=x264,mcf"
                                     " --sb=14,56");
    EXPECT_EQ(code, 0);
    const std::string tail = "|p2|spb0:48:0:0|i0|c0|pf1|t1|s1|u100000|"
                             "skylake|m2:8\n";
    EXPECT_EQ(out, "x264|sb14" + tail + "x264|sb56" + tail + "mcf|sb14" +
                       tail + "mcf|sb56" + tail + "# 4 jobs\n");
}

TEST(SweepCli, SeedIsAGridAxis)
{
    const auto [code, out] = runTool(std::string(SPBURST_SWEEP_BIN) +
                                     " --dry-run --workload=x264"
                                     " --seed=1,7");
    EXPECT_EQ(code, 0);
    const std::string head = "x264|sb56|p2|spb0:48:0:0|i0|c0|pf1|t1|s";
    const std::string tail = "|u100000|skylake|m2:8\n";
    EXPECT_EQ(out, head + "1" + tail + head + "7" + tail + "# 2 jobs\n");
}

/** The cells after the job key in the summary row of the first job
 *  whose key starts with @p key_prefix (empty if no such row). Cells
 *  end in " |"; the bars inside a key have no space before them. */
std::vector<std::string>
summaryCells(const std::string &out, const std::string &key_prefix)
{
    std::vector<std::string> cells;
    const std::size_t at = out.find("| " + key_prefix);
    if (at == std::string::npos)
        return cells;
    const std::string row = out.substr(at, out.find('\n', at) - at);
    std::size_t end = row.find(" |"); // end of the key cell
    while (end != std::string::npos && end + 2 < row.size()) {
        const std::size_t next = row.find(" |", end + 2);
        std::string cell = row.substr(end + 2, next - end - 2);
        cell.erase(0, cell.find_first_not_of(' '));
        cell.erase(cell.find_last_not_of(' ') + 1);
        cells.push_back(cell);
        end = next;
    }
    return cells;
}

TEST(SweepCli, SummaryReadsDoneAndResumedStats)
{
    // The summary table reads cycles, IPC and the SB-stall ratio by
    // name, from the live run (done) and from the JSONL file
    // (resumed); both rows must print the same values.
    const std::string out_file =
        testing::TempDir() + "/spburst_sweep_summary.jsonl";
    std::remove(out_file.c_str());
    const std::string sweep = std::string(SPBURST_SWEEP_BIN) +
                              " --workload=x264 --uops=2000 --out=" +
                              out_file;
    const auto [code, first] = runTool(sweep);
    const auto [rcode, second] = runTool(sweep + " --resume");
    std::remove(out_file.c_str());
    ASSERT_EQ(code, 0) << first;
    ASSERT_EQ(rcode, 0) << second;

    const std::vector<std::string> done = summaryCells(first, "x264|");
    const std::vector<std::string> resumed = summaryCells(second, "x264|");
    ASSERT_EQ(done.size(), 4u) << first;
    ASSERT_EQ(resumed.size(), 4u) << second;
    EXPECT_EQ(done[3], "done");
    EXPECT_EQ(resumed[3], "resumed");
    EXPECT_NE(done[0], "-");
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(done[i], resumed[i]) << "column " << i;
}

TEST(SweepCli, RemovedOptionsAreUnknown)
{
    for (const char *arg : {"--shards=2", "--retries=1", "--per-job-seeds"}) {
        const auto [code, out] = runTool(std::string(SPBURST_SWEEP_BIN) +
                                         " --dry-run --workload=x264 " + arg);
        EXPECT_EQ(code, 1) << arg << "\n" << out;
        EXPECT_NE(out.find("unknown spburst_sweep option"), std::string::npos)
            << arg << "\n" << out;
    }
}

} // namespace
} // namespace spburst
