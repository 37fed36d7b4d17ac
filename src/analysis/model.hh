/**
 * @file
 * Data model shared by the spburst-lint engine and its rules.
 *
 * A lint run loads every requested file into a FileContext (tokens,
 * comments, suppressions, directory category), then builds a
 * project-wide TypeIndex of unordered-container declarations in a
 * first pass, and finally runs each Rule over each file. Rules are
 * pure: they read the project and append Findings.
 */

#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.hh"

namespace spburst::lint
{

/** Identity and one-line documentation for a rule (SARIF metadata). */
struct RuleInfo
{
    std::string_view id;      //!< stable kebab-case rule id
    std::string_view summary; //!< one-line description
};

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
    std::string stem;    //!< basename without extension ("mshr")
    /** True when the file lives in a directory whose code can affect
     *  simulated results (src/cpu, src/mem, src/core, src/prefetch,
     *  src/sim, plus the deterministic support dirs src/common,
     *  src/check, src/trace, src/energy). Host-side dirs — src/exp,
     *  tools, bench, examples — are exempt from the determinism
     *  rules. */
    bool resultAffecting = false;
    LexedFile lex;
    std::vector<Suppression> suppressions;
};

/** Project-wide declaration knowledge for the unordered-iteration
 *  rule (built before any rule runs). */
struct TypeIndex
{
    /** "Class::method" for methods declared to return (a reference to)
     *  an unordered container. */
    std::set<std::string> unorderedMethods;
    /** Classes that own at least one such method. */
    std::set<std::string> classesWithUnorderedMethods;
    /** Per file stem: bare names of such methods (for unqualified
     *  calls inside the class's own .hh/.cc pair). */
    std::map<std::string, std::set<std::string>> unorderedMethodsByStem;
    /** Per file stem: variable names declared as unordered containers. */
    std::map<std::string, std::set<std::string>> unorderedVarsByStem;
    /** Per file stem: variable name -> class name, for variables whose
     *  declared type is a class with unordered-returning methods. */
    std::map<std::string, std::map<std::string, std::string>>
        varClassByStem;
};

/** Everything a rule may look at. */
struct Project
{
    std::vector<std::unique_ptr<FileContext>> files;
    TypeIndex types;
};

/** One lint rule. Implementations live in rules.cc. */
class Rule
{
  public:
    virtual ~Rule() = default;
    virtual RuleInfo info() const = 0;
    virtual void check(const Project &project, const FileContext &file,
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
