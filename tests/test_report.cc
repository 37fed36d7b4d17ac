/**
 * @file
 * Unit tests for the JSON/CSV result exporters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/report.hh"
#include "sim/system.hh"

namespace spburst
{
namespace
{

SimResult
tinyRun(const std::string &workload)
{
    SystemConfig cfg =
        makeConfig(workload, 28, StorePrefetchPolicy::AtCommit, true);
    cfg.maxUopsPerCore = 5'000;
    return runSystem(cfg);
}

TEST(Report, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
}

TEST(Report, JsonContainsCoreFields)
{
    const SimResult r = tinyRun("gcc");
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"workload\":\"gcc\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(json.find("\"sb_stall_ratio\":"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    // Balanced quotes: an even count.
    EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(Report, JsonArrayOfResults)
{
    const std::vector<SimResult> rs{tinyRun("gcc"), tinyRun("namd")};
    const std::string json = toJson(rs);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"workload\":\"gcc\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"namd\""), std::string::npos);
}

TEST(Report, CsvHasHeaderAndOneRowPerResult)
{
    const std::vector<SimResult> rs{tinyRun("gcc"), tinyRun("namd")};
    const std::string csv = toCsv(rs);
    // 1 header + 2 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_EQ(csv.rfind("workload,", 0), 0u);
    EXPECT_NE(csv.find("\ngcc,"), std::string::npos);
    EXPECT_NE(csv.find("\nnamd,"), std::string::npos);
}

TEST(Report, CsvQuotesWorkloadsThatHoldCommasOrQuotes)
{
    // --trace=FILE,skip=N names its workload "trace:FILE,skip=N".
    SimResult trace = tinyRun("gcc");
    trace.workload = "trace:data/fixture.champsim,skip=100";
    SimResult quoted = trace;
    quoted.workload = "say \"hi\"";
    const std::string csv = toCsv({trace, quoted});
    EXPECT_NE(csv.find("\n\"trace:data/fixture.champsim,skip=100\","),
              std::string::npos)
        << csv;
    EXPECT_NE(csv.find("\n\"say \"\"hi\"\"\","), std::string::npos) << csv;

    // Every row has as many fields as the header (RFC 4180: a comma
    // inside quotes separates nothing, a doubled quote is one quote).
    std::istringstream lines(csv);
    std::string line;
    std::vector<std::size_t> fields;
    while (std::getline(lines, line)) {
        std::size_t n = 1;
        bool inQuotes = false;
        for (const char c : line) {
            if (c == '"')
                inQuotes = !inQuotes;
            else if (c == ',' && !inQuotes)
                ++n;
        }
        fields.push_back(n);
    }
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[1], fields[0]);
    EXPECT_EQ(fields[2], fields[0]);
}

TEST(Report, JsonEscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("\x07"), "\\u0007");
    EXPECT_EQ(jsonEscape("\x01\x1f"), "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape("a\tb\x0c"), "a\\tb\\u000c");
    EXPECT_EQ(jsonEscape("\r"), "\\u000d");
}

TEST(Report, CsvTakesTheUnionOfStatNames)
{
    // A two-core run exports core1.*/l1d1.* statistics a one-core run
    // lacks; the CSV header must be the union, with empty cells for
    // absent stats.
    SystemConfig wide_cfg =
        makeConfig("dedup", 28, StorePrefetchPolicy::AtCommit);
    wide_cfg.threads = 2;
    wide_cfg.maxUopsPerCore = 5'000;
    const SimResult wide = runSystem(wide_cfg);
    const SimResult narrow = tinyRun("gcc");

    const StatSet wide_stats = wide.toStatSet();
    const StatSet narrow_stats = narrow.toStatSet();
    ASSERT_TRUE(wide_stats.has("core1.cycles"));
    ASSERT_FALSE(narrow_stats.has("core1.cycles"));

    const std::string csv = toCsv({wide, narrow});
    const std::string header = csv.substr(0, csv.find('\n'));
    EXPECT_NE(header.find(",core1.cycles"), std::string::npos);

    // Both rows carry exactly one field per header column; the
    // one-core row leaves the core1.* columns empty.
    std::istringstream lines(csv);
    std::string line;
    std::getline(lines, line);
    const auto cols = std::count(line.begin(), line.end(), ',');
    while (std::getline(lines, line))
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), cols);
    EXPECT_NE(csv.find(",,"), std::string::npos);
}

TEST(Report, JsonlRoundTripsJobWorkloadAndStats)
{
    const SimResult r = tinyRun("gcc");
    const std::string key = "gcc|sb28|\"quoted\"";
    std::istringstream in(toJsonLine(key, r) + "\n" +
                          toJsonLine("second", r) + "\n");
    const std::vector<JsonlRecord> records = parseJsonl(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].job, key);
    EXPECT_EQ(records[1].job, "second");
    EXPECT_EQ(records[0].workload, "gcc");

    const StatSet expected = r.toStatSet();
    for (const auto &[name, value] : expected.entries()) {
        ASSERT_TRUE(records[0].stats.has(name)) << name;
        const double parsed = records[0].stats.get(name);
        if (std::isfinite(value))
            EXPECT_NEAR(parsed, value,
                        std::max(1e-9, std::abs(value) * 1e-12))
                << name;
        else
            EXPECT_TRUE(std::isnan(parsed)) << name; // serialised null
    }
    EXPECT_TRUE(records[0].stats.has("threads"));
}

TEST(Report, JsonlParserSkipsMalformedLines)
{
    const SimResult r = tinyRun("gcc");
    const std::string good = toJsonLine("ok", r);
    std::istringstream in(good + "\n" +
                          good.substr(0, good.size() / 2) + "\n" + // torn
                          "not json at all\n" +
                          "\n" +                                   // blank
                          "{\"job\":\"also-ok\",\"cycles\":12}\n");
    const std::vector<JsonlRecord> records = parseJsonl(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].job, "ok");
    EXPECT_EQ(records[1].job, "also-ok");
    EXPECT_EQ(records[1].stats.get("cycles"), 12.0);
}

TEST(Report, ParseJsonlFileOfMissingPathIsEmpty)
{
    EXPECT_TRUE(parseJsonlFile("/no/such/dir/results.jsonl").empty());
}

TEST(Report, CsvColumnsAlign)
{
    const std::vector<SimResult> rs{tinyRun("gcc")};
    const std::string csv = toCsv(rs);
    const std::size_t header_cols =
        static_cast<std::size_t>(std::count(
            csv.begin(), csv.begin() + static_cast<long>(csv.find('\n')),
            ',')) +
        1;
    const std::size_t row_start = csv.find('\n') + 1;
    const std::size_t row_cols =
        static_cast<std::size_t>(std::count(csv.begin() +
                                                static_cast<long>(
                                                    row_start),
                                            csv.end(), ',')) +
        1;
    EXPECT_EQ(header_cols, row_cols);
}

} // namespace
} // namespace spburst
