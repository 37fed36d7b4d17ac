/**
 * @file
 * Data model shared by the spburst-lint engine and its rules.
 *
 * A lint run is one pass over files: each file is loaded into a
 * FileContext (tokens, comments, suppressions, directory category),
 * every Rule checks it, and its suppressions are applied before the
 * next file is read. Rules see one file at a time and keep no state
 * across files: they read the file and append Findings.
 */

#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.hh"

namespace spburst::lint
{

/** One diagnostic. */
struct Finding
{
    std::string ruleId;
    std::string file; //!< root-relative path
    int line = 0;
    int col = 0;
    std::string message;
};

/** One `// spburst-lint: allow(<rule>, ...)` comment. */
struct Suppression
{
    int targetLine = 0;           //!< line whose findings it silences
    int commentLine = 0;          //!< line the comment starts on
    std::set<std::string> rules;  //!< rule ids listed in allow(...)
    bool used = false;            //!< matched at least one finding
};

/** One analyzed source file. */
struct FileContext
{
    std::string relPath; //!< root-relative, '/'-separated
    /** True when the file lives in a directory whose code can affect
     *  simulated results (src/cpu, src/mem, src/core, src/prefetch,
     *  src/sim, src/sample, plus the deterministic support dirs
     *  src/common, src/check, src/trace, src/energy). Host-side dirs —
     *  src/exp, tools, bench, examples — are exempt from the
     *  determinism rule. */
    bool resultAffecting = false;
    LexedFile lex;
    std::vector<Suppression> suppressions;
};

/** One lint rule. Implementations live in rules.cc. */
class Rule
{
  public:
    virtual ~Rule() = default;
    /** Stable kebab-case id, as findings and allow(...) name it. */
    virtual std::string_view id() const = 0;
    virtual void check(const FileContext &file,
                       std::vector<Finding> &out) const = 0;
};

/** All registered rules, in stable registration order. Includes every
 *  rule id that can appear in a finding except "unused-suppression",
 *  which the engine emits itself. */
const std::vector<const Rule *> &allRules();

/** Rule id the engine uses for stale allow(...) comments. */
inline constexpr std::string_view kUnusedSuppressionId =
    "unused-suppression";

} // namespace spburst::lint
