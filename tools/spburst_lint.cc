/**
 * @file
 * spburst-lint CLI: the repo-specific static analyzer.
 *
 * Modes (one of):
 *   --compdb=<build-dir>  analyze the TUs in compile_commands.json
 *                         (plus first-party headers)
 *   --tree=<root>         analyze every .cc/.hh under src/, bench/,
 *                         tools/ of <root>
 *   <files...>            analyze an explicit file list
 *
 * Options:
 *   --root=<dir>    anchor for relative paths in diagnostics
 *                   (default: --tree value, else cwd)
 *   --rule=<ids>    comma-separated rule filter
 *   --sarif=<path>  also write a SARIF 2.1.0 log
 *   --github        also print GitHub Actions ::error annotations
 *   --list-rules    print the rule catalogue and exit
 *
 * Exit codes: 0 clean, 1 findings, 2 usage/read error.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/compdb.hh"
#include "analysis/engine.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: spburst_lint [--compdb=BUILDDIR | --tree=ROOT | "
        "files...]\n"
        "                    [--root=DIR] [--rule=id,...] "
        "[--sarif=PATH]\n"
        "                    [--github] [--list-rules]\n");
    return 2;
}

void
splitCsv(const std::string &csv, std::vector<std::string> &out)
{
    std::string cur;
    for (char c : csv) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spburst::lint;

    std::string compdb, tree, root, sarifPath;
    bool github = false;
    Options options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (arg.rfind("--compdb=", 0) == 0) {
            compdb = value("--compdb=");
        } else if (arg.rfind("--tree=", 0) == 0) {
            tree = value("--tree=");
        } else if (arg.rfind("--root=", 0) == 0) {
            root = value("--root=");
        } else if (arg.rfind("--rule=", 0) == 0) {
            splitCsv(value("--rule="), options.onlyRules);
        } else if (arg.rfind("--sarif=", 0) == 0) {
            sarifPath = value("--sarif=");
        } else if (arg == "--github") {
            github = true;
        } else if (arg == "--list-rules") {
            for (const Rule *rule : allRules()) {
                const RuleInfo info = rule->info();
                std::printf("%-22s %s\n",
                            std::string(info.id).c_str(),
                            std::string(info.summary).c_str());
            }
            std::printf("%-22s %s\n",
                        std::string(kUnusedSuppressionId).c_str(),
                        "a spburst-lint: allow(...) comment that "
                        "silences nothing");
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "spburst_lint: unknown option %s\n",
                         arg.c_str());
            return usage();
        } else {
            options.files.push_back(arg);
        }
    }

    namespace fs = std::filesystem;
    if (root.empty())
        root = tree.empty() ? fs::current_path().generic_string() : tree;
    root = fs::weakly_canonical(fs::path(root)).generic_string();
    options.root = root;

    if (!compdb.empty()) {
        std::string error;
        auto files = filesFromCompdb(compdb, root, error);
        if (!error.empty()) {
            std::fprintf(stderr, "spburst_lint: %s\n", error.c_str());
            return 2;
        }
        options.files.insert(options.files.end(), files.begin(),
                             files.end());
    }
    if (!tree.empty()) {
        auto files = filesFromTree(tree);
        options.files.insert(options.files.end(), files.begin(),
                             files.end());
    }
    if (options.files.empty()) {
        std::fprintf(stderr, "spburst_lint: no input files\n");
        return usage();
    }

    const auto t0 = std::chrono::steady_clock::now();
    const RunResult result = runLint(options);
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (const std::string &error : result.errors)
        std::fprintf(stderr, "spburst_lint: %s\n", error.c_str());

    std::fputs(renderText(result).c_str(), stdout);
    if (github)
        std::fputs(renderGithub(result).c_str(), stdout);
    if (!sarifPath.empty()) {
        std::ofstream out(sarifPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "spburst_lint: cannot write %s\n",
                         sarifPath.c_str());
            return 2;
        }
        out << renderSarif(result);
    }

    std::fprintf(stderr,
                 "spburst_lint: %zu files, %zu finding%s in %lld ms%s\n",
                 result.filesAnalyzed, result.findings.size(),
                 result.findings.size() == 1 ? "" : "s",
                 static_cast<long long>(elapsedMs),
                 result.errors.empty() ? "" : " (with read errors)");
    if (!result.errors.empty())
        return 2;
    return result.findings.empty() ? 0 : 1;
}
