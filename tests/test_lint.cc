/**
 * @file
 * Tests for spburst-lint: every rule must trip on its bad fixture at
 * the exact expected line, stay silent on the good fixtures, and honour
 * suppressions (and report stale ones) — and the real tree must lint
 * clean.
 *
 * Fixture corpus: tests/lint/ (SPBURST_LINT_FIXTURES). The directory
 * mimics a repo root (src/mem/..., tools/...) so the analyzer's
 * path-based result-affecting classification applies naturally.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/engine.hh"
#include "analysis/project.hh"

namespace spburst::lint
{
namespace
{

RunResult
lintFixtures()
{
    return lintTree(SPBURST_LINT_FIXTURES);
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
    EXPECT_EQ(result.filesAnalyzed, 7u);

    const std::set<Key> expected = {
        {"nondeterminism", "src/mem/nondet_bad.cc", 11},       // rand
        {"nondeterminism", "src/mem/nondet_bad.cc", 12},       // std::time
        {"nondeterminism", "src/mem/nondet_bad.cc", 13},       // chrono x2
        {"nondeterminism", "src/mem/nondet_bad.cc", 14},       // getenv
        {"nondeterminism", "src/mem/nondet_bad.cc", 20},       // hash map
        {"nondeterminism", "src/sample/warm_bad.cc", 13},      // hash set
        {"nondeterminism", "src/sample/warm_bad.cc", 21},      // getenv
        {"callback-capture", "src/mem/capture_bad.cc", 22},    // [&]
        {"callback-capture", "src/mem/capture_bad.cc", 23},    // [=]
        {"callback-capture", "src/mem/capture_bad.cc", 24},    // [&x]
        {"callback-capture", "src/mem/capture_bad.cc", 26},    // Mshr*
        {"unused-suppression", "src/mem/suppress.cc", 14},
    };
    EXPECT_EQ(keysOf(result), expected);
    // chrono + steady_clock both flag nondet_bad.cc:13.
    EXPECT_EQ(result.findings.size(), 13u);
}

TEST(Lint, GoodFixturesAndExemptDirsStaySilent)
{
    const RunResult result = lintFixtures();
    for (const Finding &f : result.findings) {
        EXPECT_EQ(f.file.find("_good"), std::string::npos) << f.file;
        // tools/ is exempt from the determinism rule.
        EXPECT_EQ(f.file.find("tools/"), std::string::npos) << f.file;
    }
}

TEST(Lint, UsedSuppressionsSilenceAndDoNotReadAsStale)
{
    const RunResult result = lintFixtures();
    for (const Finding &f : result.findings) {
        // suppress.cc's rand() is allowed; only the stale comment may
        // surface.
        if (f.file == "src/mem/suppress.cc") {
            EXPECT_EQ(f.ruleId, "unused-suppression");
        }
    }
}

TEST(Lint, CatalogueHasTheTwoRulesWithUniqueIds)
{
    std::set<std::string> ids;
    for (const Rule *rule : allRules())
        ids.insert(std::string(rule->id()));
    const std::set<std::string> expected = {"nondeterminism",
                                            "callback-capture"};
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
    // A hash container gets its own hint, naming the block map.
    EXPECT_NE(text.find("src/mem/nondet_bad.cc:20:24: error: "
                        "[nondeterminism] 'unordered_map' in "
                        "result-affecting code: a hash container"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("BlockMap or BlockSet"), std::string::npos);
}

TEST(LintTree, RealSourcesLintClean)
{
    const RunResult result = lintTree(SPBURST_REPO_ROOT);
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
