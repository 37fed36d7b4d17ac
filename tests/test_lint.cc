/**
 * @file
 * Tests for spburst-lint: every rule must trip on its bad fixture at
 * the exact expected line, stay silent on the good fixtures, honour
 * suppressions (and report stale ones), render SARIF that passes a
 * structural smoke test — and the real tree must lint clean.
 *
 * Fixture corpus: tests/lint/ (SPBURST_LINT_FIXTURES). The directory
 * mimics a repo root (src/mem/..., tools/...) so the analyzer's
 * path-based result-affecting classification applies naturally.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <sys/wait.h>

#include "analysis/compdb.hh"
#include "analysis/engine.hh"
#include "analysis/project.hh"

namespace spburst::lint
{
namespace
{

RunResult
lintFixtures(std::vector<std::string> onlyRules = {})
{
    Options options;
    options.root = SPBURST_LINT_FIXTURES;
    options.files = filesFromTree(options.root);
    options.onlyRules = std::move(onlyRules);
    return runLint(options);
}

using Key = std::tuple<std::string, std::string, int>; // rule, file, line

std::set<Key>
keysOf(const RunResult &result)
{
    std::set<Key> keys;
    for (const Finding &f : result.findings)
        keys.insert({f.ruleId, f.file, f.line});
    return keys;
}

TEST(Lint, FixtureCorpusTripsEveryRuleAtTheExpectedLines)
{
    const RunResult result = lintFixtures();
    EXPECT_TRUE(result.errors.empty());
    EXPECT_EQ(result.filesAnalyzed, 8u);

    const std::set<Key> expected = {
        {"nondeterminism", "src/mem/nondet_bad.cc", 11},       // rand
        {"nondeterminism", "src/mem/nondet_bad.cc", 12},       // std::time
        {"nondeterminism", "src/mem/nondet_bad.cc", 13},       // chrono x2
        {"nondeterminism", "src/mem/nondet_bad.cc", 14},       // getenv
        {"unordered-iteration", "src/mem/unordered_bad.cc", 18},
        {"unordered-iteration", "src/mem/unordered_bad.cc", 32},
        {"unordered-iteration", "src/mem/unordered_bad.cc", 34},
        {"unordered-iteration", "src/mem/unordered_bad.cc", 36},
        {"callback-capture", "src/mem/capture_bad.cc", 22},    // [&]
        {"callback-capture", "src/mem/capture_bad.cc", 23},    // [=]
        {"callback-capture", "src/mem/capture_bad.cc", 24},    // [&x]
        {"callback-capture", "src/mem/capture_bad.cc", 26},    // Mshr*
        {"unused-suppression", "src/mem/suppress.cc", 14},
    };
    EXPECT_EQ(keysOf(result), expected);
    // chrono + steady_clock both flag nondet_bad.cc:13.
    EXPECT_EQ(result.findings.size(), 14u);
}

TEST(Lint, GoodFixturesAndExemptDirsStaySilent)
{
    const RunResult result = lintFixtures();
    for (const Finding &f : result.findings) {
        EXPECT_EQ(f.file.find("_good"), std::string::npos) << f.file;
        // tools/ is exempt from the determinism rules.
        EXPECT_EQ(f.file.find("tools/"), std::string::npos) << f.file;
    }
}

TEST(Lint, UsedSuppressionsSilenceAndDoNotReadAsStale)
{
    const RunResult result = lintFixtures();
    for (const Finding &f : result.findings) {
        // unordered_good.cc's harvest loop and suppress.cc's rand()
        // are both allowed; only the stale comment may surface.
        if (f.file == "src/mem/unordered_good.cc") {
            ADD_FAILURE() << renderText(result);
        }
        if (f.file == "src/mem/suppress.cc") {
            EXPECT_EQ(f.ruleId, "unused-suppression");
        }
    }
}

TEST(Lint, RuleFilterRestrictsToTheRequestedRule)
{
    const RunResult result = lintFixtures({"nondeterminism"});
    EXPECT_EQ(result.findings.size(), 5u);
    for (const Finding &f : result.findings) {
        EXPECT_EQ(f.ruleId, "nondeterminism");
        EXPECT_EQ(f.file, "src/mem/nondet_bad.cc");
    }
}

TEST(Lint, CatalogueHasTheThreeRulesWithUniqueIds)
{
    std::set<std::string> ids;
    for (const Rule *rule : allRules())
        ids.insert(std::string(rule->info().id));
    const std::set<std::string> expected = {
        "nondeterminism", "unordered-iteration", "callback-capture"};
    EXPECT_EQ(ids, expected);
    EXPECT_EQ(allRules().size(), expected.size()); // ids are unique
}

TEST(Lint, TextRenderingIsGccStyle)
{
    const std::string text = renderText(lintFixtures());
    EXPECT_NE(text.find("src/mem/nondet_bad.cc:11:28: error: "
                        "[nondeterminism] 'rand'"),
              std::string::npos)
        << text;
}

/** Minimal structural JSON check: balanced braces/brackets outside of
 *  strings, no trailing garbage. Not a schema validator, but enough to
 *  catch broken escaping or truncation. */
bool
jsonBalanced(const std::string &s)
{
    int depth = 0;
    bool inString = false;
    bool sawAny = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{' || c == '[') {
            ++depth;
            sawAny = true;
        } else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return sawAny && depth == 0 && !inString;
}

TEST(Lint, SarifOutputPassesTheSchemaSmokeTest)
{
    const std::string sarif = renderSarif(lintFixtures());
    EXPECT_TRUE(jsonBalanced(sarif)) << sarif;
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"spburst-lint\""),
              std::string::npos);
    // Every rule id is declared in the driver metadata, and at least
    // one result region carries line/column coordinates.
    for (const Rule *rule : allRules())
        EXPECT_NE(sarif.find("\"id\": \"" +
                             std::string(rule->info().id) + "\""),
                  std::string::npos)
            << rule->info().id;
    EXPECT_NE(sarif.find("\"startLine\": 11"), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"callback-capture\""),
              std::string::npos);
}

/** Run the CLI and capture (exit code, stdout). */
std::pair<int, std::string>
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(SPBURST_LINT_BIN) + " " + args + " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(LintCli, FindingsExitOneAndWriteSarif)
{
    const std::string sarifPath =
        testing::TempDir() + "/spburst_lint_fixture.sarif";
    const auto [code, out] = runCli("--tree=" SPBURST_LINT_FIXTURES
                                    " --sarif=" +
                                    sarifPath);
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("[callback-capture]"), std::string::npos) << out;
    std::ifstream in(sarifPath);
    ASSERT_TRUE(in.good());
    std::ostringstream sarif;
    sarif << in.rdbuf();
    EXPECT_TRUE(jsonBalanced(sarif.str()));
    EXPECT_NE(sarif.str().find("\"version\": \"2.1.0\""),
              std::string::npos);
    std::remove(sarifPath.c_str());
}

TEST(LintCli, CleanInputExitsZero)
{
    const auto [code, out] =
        runCli("--root=" SPBURST_LINT_FIXTURES
               " " SPBURST_LINT_FIXTURES "/src/mem/nondet_good.cc");
    EXPECT_EQ(code, 0);
    EXPECT_EQ(out, "");
}

TEST(LintCli, GithubAnnotationsCarryFileLineAndRule)
{
    const auto [code, out] = runCli(
        "--github --rule=callback-capture --tree=" SPBURST_LINT_FIXTURES);
    EXPECT_EQ(code, 1);
    EXPECT_NE(
        out.find("::error file=src/mem/capture_bad.cc,line=22,col=31::"
                 "[callback-capture]"),
        std::string::npos)
        << out;
}

TEST(LintTree, RealSourcesLintClean)
{
    Options options;
    options.root = SPBURST_REPO_ROOT;
    options.files = filesFromTree(options.root);
    const RunResult result = runLint(options);
    EXPECT_TRUE(result.errors.empty());
    EXPECT_GE(result.filesAnalyzed, 100u);
    EXPECT_TRUE(result.findings.empty()) << renderText(result);
}

// ---------------------------------------------------------------------
// Lexer regressions: literals the first version mis-tokenized
// ---------------------------------------------------------------------

TEST(LintLexer, DigitSeparatorsAndEncodingPrefixes)
{
    const std::string src =
        "unsigned long x = 1'000'000;\n"
        "double d = 0x1f'ff + 0b10'01 + 1'23.4'5e1'0;\n"
        "auto a = u8\"--alpha\";\n"
        "auto b = u\"beta\" ; auto c = U\"gamma\"; auto d2 = L\"d\";\n"
        "auto e = 1 < 2;\n"; // '<' after a number is not a separator
    const auto file = makeFile("/tmp/lex.cc", "/tmp", src);
    ASSERT_NE(file, nullptr);

    std::vector<std::string> numbers, strings;
    for (const Token &t : file->lex.tokens) {
        if (t.kind == TokKind::Number)
            numbers.push_back(std::string(t.text));
        if (t.kind == TokKind::String)
            strings.push_back(std::string(t.text));
    }
    EXPECT_EQ(numbers,
              (std::vector<std::string>{"1'000'000", "0x1f'ff",
                                        "0b10'01", "1'23.4'5e1'0", "1",
                                        "2"}));
    EXPECT_EQ(strings,
              (std::vector<std::string>{"u8\"--alpha\"", "u\"beta\"",
                                        "U\"gamma\"", "L\"d\""}));
}

} // namespace
} // namespace spburst::lint
