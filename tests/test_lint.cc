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

#include <filesystem>

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
    EXPECT_EQ(result.filesAnalyzed, 32u);

    const std::set<Key> expected = {
        {"nondeterminism", "src/mem/nondet_bad.cc", 11},       // rand
        {"nondeterminism", "src/mem/nondet_bad.cc", 12},       // std::time
        {"nondeterminism", "src/mem/nondet_bad.cc", 13},       // chrono x2
        {"nondeterminism", "src/mem/nondet_bad.cc", 14},       // getenv
        {"unordered-iteration", "src/mem/unordered_bad.cc", 18},
        {"unordered-iteration", "src/mem/unordered_bad.cc", 32},
        {"unordered-iteration", "src/mem/unordered_bad.cc", 34},
        {"unordered-iteration", "src/mem/unordered_bad.cc", 36},
        {"check-side-effect", "src/mem/check_bad.cc", 15},     // ++
        {"check-side-effect", "src/mem/check_bad.cc", 16},     // =
        {"check-side-effect", "src/mem/check_bad.cc", 17},     // pop()
        {"callback-capture", "src/mem/capture_bad.cc", 22},    // [&]
        {"callback-capture", "src/mem/capture_bad.cc", 23},    // [=]
        {"callback-capture", "src/mem/capture_bad.cc", 24},    // [&x]
        {"callback-capture", "src/mem/capture_bad.cc", 26},    // Mshr*
        {"callback-inline-size", "src/mem/capture_size_bad.cc", 35},
        {"stat-name", "src/mem/stat_bad.cc", 10},
        {"stat-name", "src/mem/stat_bad.cc", 11},
        {"unused-suppression", "src/mem/suppress.cc", 14},
        {"snapshot-coverage", "src/mem/snapcov_bad.cc", 15},  // stats_
        {"codec-symmetry", "src/mem/codec_bad.cc", 14}, // U32 vs U64
        {"codec-symmetry", "src/mem/codec_bad.cc", 19}, // 3 vs 2 ops
        {"stat-hot-path", "src/mem/stathot_bad.cc", 15},  // member
        {"stat-hot-path", "src/mem/stathot_bad.cc", 16},  // accessor
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 13},  // push_back
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 21},  // make_unique
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 23},  // new
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 37},  // member field
        {"config-key-coverage", "tools/config_bad.cc", 12},
        {"nondeterminism-taint", "src/mem/taint_bad.cc", 28},
        {"nondeterminism-taint", "src/mem/taint_bad.cc", 34},
        {"callback-lifetime", "src/mem/lifetime_bad.cc", 17},
        {"callback-lifetime", "src/mem/lifetime_bad.cc", 25},
        {"callback-lifetime", "src/mem/lifetime_bad.cc", 32},
        {"ff-stat-parity", "src/mem/ffparity_bad.cc", 32},
        {"ff-stat-parity", "src/mem/ffparity_bad.cc", 42},
        {"ff-stat-parity", "src/mem/ffparity_bad.cc", 59}, // t.stats.x
        {"check-purity-flow", "src/mem/checkflow_bad.cc", 11},
        {"check-purity-flow", "src/mem/checkflow_bad.cc", 17},
    };
    EXPECT_EQ(keysOf(result), expected);
    // chrono + steady_clock both flag nondet_bad.cc:13.
    EXPECT_EQ(result.findings.size(), 40u);
}

TEST(Lint, GoodFixturesAndExemptDirsStaySilent)
{
    const RunResult result = lintFixtures();
    for (const Finding &f : result.findings) {
        EXPECT_EQ(f.file.find("_good"), std::string::npos) << f.file;
        // tools/ is exempt from the determinism rules but not from
        // config-key-coverage, which only applies there.
        if (f.file.find("tools/") != std::string::npos) {
            EXPECT_EQ(f.ruleId, "config-key-coverage") << f.file;
        }
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

TEST(Lint, CatalogueHasTheFifteenRulesWithUniqueIds)
{
    std::set<std::string> ids;
    for (const Rule *rule : allRules())
        ids.insert(std::string(rule->info().id));
    const std::set<std::string> expected = {
        "nondeterminism",   "unordered-iteration",
        "check-side-effect", "callback-capture",
        "callback-inline-size", "stat-name",
        "snapshot-coverage", "codec-symmetry",
        "stat-hot-path", "hot-alloc", "config-key-coverage",
        "nondeterminism-taint", "callback-lifetime",
        "ff-stat-parity", "check-purity-flow",
    };
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
    EXPECT_NE(sarif.find("\"ruleId\": \"stat-name\""),
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
    EXPECT_NE(out.find("[callback-inline-size]"), std::string::npos)
        << out;
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
               " " SPBURST_LINT_FIXTURES "/src/mem/check_good.cc");
    EXPECT_EQ(code, 0);
    EXPECT_EQ(out, "");
}

TEST(LintCli, GithubAnnotationsCarryFileLineAndRule)
{
    const auto [code, out] = runCli(
        "--github --rule=stat-name --tree=" SPBURST_LINT_FIXTURES);
    EXPECT_EQ(code, 1);
    EXPECT_NE(
        out.find("::error file=src/mem/stat_bad.cc,line=10,col=16::"
                 "[stat-name]"),
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
// Semantic layer: parallelism, cache, fixes, mutation coverage
// ---------------------------------------------------------------------

TEST(Lint, OutputIsIdenticalAtAnyJobCount)
{
    Options serial;
    serial.root = SPBURST_LINT_FIXTURES;
    serial.files = filesFromTree(serial.root);
    serial.jobs = 1;
    Options wide = serial;
    wide.jobs = 8;
    const RunResult one = runLint(serial);
    const RunResult eight = runLint(wide);
    EXPECT_EQ(renderText(one), renderText(eight));
    // Summary extraction order must not leak into the dataflow
    // verdicts or their code-flow witnesses.
    EXPECT_EQ(renderSarif(one), renderSarif(eight));
}

namespace fs = std::filesystem;

/** Copy the named fixtures into a fresh temp tree and return its
 *  root. Findings and fixes then run against mutable copies. */
std::string
makeTempTree(const std::vector<std::string> &rels,
             const std::string &tag)
{
    const fs::path root = fs::path(testing::TempDir()) /
                          ("spburst_lint_" + tag);
    fs::remove_all(root);
    for (const std::string &rel : rels) {
        const fs::path dst = root / rel;
        fs::create_directories(dst.parent_path());
        fs::copy_file(fs::path(SPBURST_LINT_FIXTURES) / rel, dst);
    }
    return root.generic_string();
}

RunResult
lintTree(const std::string &root, const std::string &cachePath = "")
{
    Options options;
    options.root = root;
    options.files = filesFromTree(root);
    options.cachePath = cachePath;
    return runLint(options);
}

TEST(LintCache, WarmRunReplaysFindingsAndInvalidatesOnEdit)
{
    const std::string root = makeTempTree(
        {"src/mem/stathot_bad.cc", "src/mem/stathot_good.cc"}, "cache");
    const std::string cache = root + "/lint.cache";

    const RunResult cold = lintTree(root, cache);
    EXPECT_FALSE(cold.fromCache);
    EXPECT_EQ(cold.findings.size(), 2u);

    const RunResult warm = lintTree(root, cache);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(renderText(warm), renderText(cold));
    EXPECT_EQ(warm.filesAnalyzed, cold.filesAnalyzed);

    // Any content change invalidates the whole cache key.
    {
        std::ofstream out(root + "/src/mem/stathot_bad.cc",
                          std::ios::app);
        out << "// touched\n";
    }
    const RunResult edited = lintTree(root, cache);
    EXPECT_FALSE(edited.fromCache);
    EXPECT_EQ(keysOf(edited), keysOf(cold));

    // A different rule filter must not replay the full-run cache.
    Options filtered;
    filtered.root = root;
    filtered.files = filesFromTree(root);
    filtered.cachePath = cache;
    filtered.onlyRules = {"hot-alloc"};
    const RunResult other = runLint(filtered);
    EXPECT_FALSE(other.fromCache);
    EXPECT_TRUE(other.findings.empty());
}

TEST(LintFix, HoistsInternedHandleAndReservesCapacity)
{
    const std::string root = makeTempTree(
        {"src/mem/stathot_bad.cc", "src/mem/hotalloc_bad.cc"}, "fix");
    const RunResult before = lintTree(root);
    EXPECT_EQ(before.findings.size(), 6u);

    std::vector<std::string> log;
    const std::size_t applied = applyFixes(before, root, log);
    // stat-hot-path member fix: 2 edits; hot-alloc reserve fix: 1.
    EXPECT_EQ(applied, 3u);
    ASSERT_EQ(log.size(), 2u);

    std::stringstream patched;
    patched << std::ifstream(root + "/src/mem/stathot_bad.cc").rdbuf();
    EXPECT_NE(patched.str().find("const auto h_pump_ticks = "
                                 "stats_.intern(\"pump.ticks\");"),
              std::string::npos)
        << patched.str();
    EXPECT_NE(patched.str().find("stats_.add(h_pump_ticks, 1.0);"),
              std::string::npos)
        << patched.str();

    std::stringstream reserved;
    reserved << std::ifstream(root + "/src/mem/hotalloc_bad.cc").rdbuf();
    EXPECT_NE(reserved.str().find("out.reserve(queue.size());"),
              std::string::npos)
        << reserved.str();

    // The fixed call sites no longer fire; the unfixable ones remain
    // (accessor-receiver stat access, bare new / make_unique).
    const std::set<Key> after = keysOf(lintTree(root));
    const std::set<Key> expected = {
        {"stat-hot-path", "src/mem/stathot_bad.cc", 17},
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 22},
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 24},
        {"hot-alloc", "src/mem/hotalloc_bad.cc", 38}, // no mechanical fix
    };
    EXPECT_EQ(after, expected);
}

TEST(LintMutation, DroppingAMemberFromRestoreIsCaught)
{
    const std::string root =
        makeTempTree({"src/mem/snapcov_good.cc"}, "mutant");
    EXPECT_TRUE(lintTree(root).findings.empty());

    // Seeded mutation: the restore method forgets one register.
    const std::string path = root + "/src/mem/snapcov_good.cc";
    std::stringstream buf;
    buf << std::ifstream(path).rdbuf();
    std::string src = buf.str();
    const std::string write = "seq_ = s;";
    ASSERT_NE(src.find(write), std::string::npos);
    src.replace(src.find(write), write.size(), "(void)s;");
    std::ofstream(path, std::ios::trunc) << src;

    const RunResult mutated = lintTree(root);
    ASSERT_EQ(mutated.findings.size(), 1u);
    EXPECT_EQ(mutated.findings[0].ruleId, "snapshot-coverage");
    EXPECT_EQ(mutated.findings[0].line, 14); // int seq_ = 0;
    EXPECT_NE(mutated.findings[0].message.find(
                  "not written in any restore method"),
              std::string::npos)
        << mutated.findings[0].message;
}

TEST(LintSarif, FindingsWithFixesCarryFixObjects)
{
    const std::string sarif = renderSarif(lintFixtures());
    EXPECT_TRUE(jsonBalanced(sarif)) << sarif;
    EXPECT_NE(sarif.find("\"fixes\": ["), std::string::npos);
    EXPECT_NE(sarif.find("\"insertedContent\""), std::string::npos);
    EXPECT_NE(sarif.find("\"charOffset\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Dataflow layer: taint witnesses, summary cache, real-tree mutations
// ---------------------------------------------------------------------

TEST(LintSarif, DataflowFindingsCarryCodeFlowSteps)
{
    const std::string sarif = renderSarif(lintFixtures());
    EXPECT_TRUE(jsonBalanced(sarif)) << sarif;
    EXPECT_NE(sarif.find("\"codeFlows\": ["), std::string::npos);
    EXPECT_NE(sarif.find("\"threadFlows\": ["), std::string::npos);
    // The parity witness walks tick root -> call chain -> write site.
    EXPECT_NE(sarif.find("ff(tick) root"), std::string::npos);
}

/** Copy a file from the real tree into a fresh temp tree and lint just
 *  that copy; seeded mutations then run against the real sources. */
std::string
makeRealTree(const std::string &rel, const std::string &tag)
{
    const fs::path root =
        fs::path(testing::TempDir()) / ("spburst_real_" + tag);
    fs::remove_all(root);
    const fs::path dst = root / rel;
    fs::create_directories(dst.parent_path());
    fs::copy_file(fs::path(SPBURST_REPO_ROOT) / rel, dst);
    return root.generic_string();
}

std::string
slurp(const std::string &path)
{
    std::stringstream buf;
    buf << std::ifstream(path).rdbuf();
    return buf.str();
}

TEST(LintMutation, DroppingAnFfExemptAnnotationIsCaught)
{
    const std::string root = makeRealTree("src/cpu/core.cc", "ffpar");
    const std::string path = root + "/src/cpu/core.cc";
    EXPECT_TRUE(lintTree(root).findings.empty())
        << renderText(lintTree(root));

    // Seeded mutation: delete one justified ff-exempt annotation; the
    // stat under Core::tick loses its skipQuiescentCycles alibi.
    std::string src = slurp(path);
    const std::size_t at = src.find("// spburst-lint: ff-exempt");
    ASSERT_NE(at, std::string::npos);
    const std::size_t eol = src.find('\n', at);
    src.erase(at, eol - at + 1);
    std::ofstream(path, std::ios::trunc) << src;

    const RunResult mutated = lintTree(root);
    ASSERT_EQ(mutated.findings.size(), 1u) << renderText(mutated);
    EXPECT_EQ(mutated.findings[0].ruleId, "ff-stat-parity");
    EXPECT_FALSE(mutated.findings[0].flow.empty());
}

TEST(LintMutation, SeedingAPointerHashIntoAStatIsCaught)
{
    const std::string root = makeRealTree("src/cpu/core.cc", "taint");
    const std::string path = root + "/src/cpu/core.cc";
    EXPECT_TRUE(lintTree(root).findings.empty());

    // Seeded mutation: a host pointer folded into a StatSet column.
    std::ofstream(path, std::ios::app)
        << "\nStatSet\n"
           "CoreStats::lintSeedTaint(const void *origin) const\n"
           "{\n"
           "    StatSet seeded;\n"
           "    seeded.set(\"core.origin\",\n"
           "               static_cast<double>(\n"
           "                   reinterpret_cast<unsigned long>("
           "origin)));\n"
           "    return seeded;\n"
           "}\n";

    const RunResult mutated = lintTree(root);
    ASSERT_EQ(mutated.findings.size(), 1u) << renderText(mutated);
    EXPECT_EQ(mutated.findings[0].ruleId, "nondeterminism-taint");
    EXPECT_FALSE(mutated.findings[0].flow.empty());
}

TEST(LintMutation, SeedingADanglingCaptureIsCaught)
{
    const std::string root = makeRealTree("src/cpu/core.cc", "dangle");
    const std::string path = root + "/src/cpu/core.cc";
    EXPECT_TRUE(lintTree(root).findings.empty());

    // Seeded mutation: a scheduled callback captures the address of a
    // stack local by value — explicit capture, so the syntactic
    // callback-capture rule stays quiet and only the CFG-lifetime rule
    // can see it.
    std::ofstream(path, std::ios::app)
        << "\nvoid\n"
           "Core::lintSeedDangling()\n"
           "{\n"
           "    int budget = 0;\n"
           "    int *p = &budget;\n"
           "    eventQueue_.schedule(1, [p] { (void)*p; });\n"
           "}\n";

    const RunResult mutated = lintTree(root);
    ASSERT_EQ(mutated.findings.size(), 1u) << renderText(mutated);
    EXPECT_EQ(mutated.findings[0].ruleId, "callback-lifetime");
}

TEST(LintMutation, SeedingAMutatingHelperIntoACheckIsCaught)
{
    const std::string root = makeRealTree("src/cpu/core.cc", "purity");
    const std::string path = root + "/src/cpu/core.cc";
    EXPECT_TRUE(lintTree(root).findings.empty());

    // Seeded mutation: SPBURST_CHECK calls a helper that advances
    // member state — lexically clean, impure one call away.
    std::ofstream(path, std::ios::app)
        << "\nunsigned long\n"
           "Core::lintSeedBump()\n"
           "{\n"
           "    lintSeed_ = lintSeed_ + 1;\n"
           "    return lintSeed_;\n"
           "}\n"
           "\n"
           "void\n"
           "Core::lintSeedAudit()\n"
           "{\n"
           "    SPBURST_CHECK(Core, lintSeedBump() != 0, "
           "\"seed advances\");\n"
           "}\n";

    const RunResult mutated = lintTree(root);
    ASSERT_EQ(mutated.findings.size(), 1u) << renderText(mutated);
    EXPECT_EQ(mutated.findings[0].ruleId, "check-purity-flow");
}

TEST(LintCache, SummariesInvalidateAlongCallEdgesAndReuseTheRest)
{
    const fs::path root = fs::path(testing::TempDir()) /
                          "spburst_lint_flowcache";
    fs::remove_all(root);
    fs::create_directories(root / "src/mem");
    // Caller and callee in separate files: the finding lives at the
    // caller's sink, the taint source at the callee's return.
    std::ofstream(root / "src/mem/flow_caller.cc")
        << "namespace fx\n"
           "{\n"
           "struct StatSet\n"
           "{\n"
           "    void set(const char *key, double v);\n"
           "};\n"
           "class FlowCaller\n"
           "{\n"
           "  public:\n"
           "    void onDrain(const void *req)\n"
           "    {\n"
           "        sum_.set(\"flow.key\",\n"
           "                 static_cast<double>(foldOrigin(req)));\n"
           "    }\n"
           "\n"
           "  private:\n"
           "    unsigned long foldOrigin(const void *p);\n"
           "    StatSet sum_;\n"
           "};\n"
           "} // namespace fx\n";
    const auto writeCallee = [&](const std::string &body) {
        std::ofstream(root / "src/mem/flow_callee.cc")
            << "namespace fx\n"
               "{\n"
               "class FlowCaller;\n"
               "unsigned long\n"
               "FlowCaller::foldOrigin(const void *p)\n"
               "{\n" +
                   body +
                   "}\n"
                   "} // namespace fx\n";
    };
    writeCallee("    return reinterpret_cast<unsigned long>(p);\n");

    const std::string cache = (root / "lint.cache").generic_string();
    const RunResult cold = lintTree(root.generic_string(), cache);
    ASSERT_EQ(cold.findings.size(), 1u) << renderText(cold);
    EXPECT_EQ(cold.findings[0].ruleId, "nondeterminism-taint");
    EXPECT_EQ(cold.findings[0].file, "src/mem/flow_caller.cc");
    EXPECT_EQ(cold.summariesReused, 0u);

    // Fix the callee only: the caller's cached summary is reused, yet
    // the propagated verdict at the unchanged caller flips to clean.
    writeCallee("    return 42ul;\n");
    const RunResult warm = lintTree(root.generic_string(), cache);
    EXPECT_FALSE(warm.fromCache);
    EXPECT_TRUE(warm.findings.empty()) << renderText(warm);
    EXPECT_EQ(warm.summariesReused, 1u);
    EXPECT_EQ(warm.summariesTotal, 2u);
}

TEST(LintCache, DeletedFilesDropOutOfTheCacheOnTheNextRun)
{
    const std::string root = makeTempTree(
        {"src/mem/stathot_bad.cc", "src/mem/stathot_good.cc"},
        "deleted");
    const std::string cache = root + "/lint.cache";

    const RunResult cold = lintTree(root, cache);
    EXPECT_EQ(cold.findings.size(), 2u);
    EXPECT_NE(slurp(cache).find("stathot_bad.cc"), std::string::npos);

    // Delete the offending file: its findings, suppressions, and
    // summary must all vanish from the next run's saved cache.
    fs::remove(fs::path(root) / "src/mem/stathot_bad.cc");
    const RunResult after = lintTree(root, cache);
    EXPECT_FALSE(after.fromCache); // file list changed the cache key
    EXPECT_TRUE(after.findings.empty()) << renderText(after);
    EXPECT_EQ(slurp(cache).find("stathot_bad.cc"), std::string::npos);

    const RunResult replay = lintTree(root, cache);
    EXPECT_TRUE(replay.fromCache);
    EXPECT_TRUE(replay.findings.empty());
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
