/**
 * @file
 * The spburst-lint engine: one pass over a tree's source files. Each
 * file is read, lexed and checked by every rule, and its per-line
 * suppressions are applied, before the next file is read.
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

struct RunResult
{
    std::vector<Finding> findings;   //!< sorted (file, line, col, id)
    std::vector<std::string> errors; //!< unreadable files etc.
    std::size_t filesAnalyzed = 0;
};

/** Lint every *.cc / *.hh file under @p root's src/, bench/ and tools/
 *  directories; findings name files relative to @p root. */
RunResult lintTree(const std::string &root);

/** Render findings as "file:line:col: error: [rule] message" lines. */
std::string renderText(const RunResult &result);

} // namespace spburst::lint
