/**
 * @file
 * The spburst-lint driver: loads files, builds indices, runs rules,
 * applies per-line suppressions, and renders results.
 *
 * Suppression syntax (parsed from comments):
 *
 *     code();  // spburst-lint: allow(<rule-id>) -- why this is fine
 *     // spburst-lint: allow(<rule-a>, <rule-b>) -- next line
 *
 * A suppression that silences nothing is itself reported (rule id
 * "unused-suppression") so stale allowances can't accumulate.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace spburst::lint
{

/** One lint invocation. */
struct Options
{
    std::vector<std::string> files;
    std::string root;                   //!< anchor for relative paths
    std::vector<std::string> onlyRules; //!< empty = all rules
};

struct RunResult
{
    std::vector<Finding> findings;   //!< sorted (file, line, col, id)
    std::vector<std::string> errors; //!< unreadable files etc.
    std::size_t filesAnalyzed = 0;
};

/** Run the analysis. */
RunResult runLint(const Options &options);

/** Render findings as "file:line:col: error: [rule] message" lines. */
std::string renderText(const RunResult &result);

/** Render findings as a SARIF 2.1.0 log. */
std::string renderSarif(const RunResult &result);

/** Render findings as GitHub Actions ::error annotations. */
std::string renderGithub(const RunResult &result);

} // namespace spburst::lint
