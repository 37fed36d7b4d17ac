/**
 * @file
 * Data model shared by the spburst-lint engine and its rules.
 *
 * A lint run loads every requested file into a FileContext (tokens,
 * comments, suppressions, directory category), then builds two
 * project-wide indices in a first pass — a TypeIndex of
 * unordered-container declarations and a DeclIndex of classes,
 * function bodies and the call graph — and finally runs each Rule over
 * each file. Rules are pure: they read the project and append Findings.
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
    /** Parsed `// spburst-lint: <tag>` annotations, keyed by the line
     *  they target (same targeting convention as allow(...): a trailing
     *  comment targets its own line, an own-line comment targets the
     *  next line). Tags: "hot", "state(host-only)", "state(snapshot)",
     *  "state(restore)". */
    std::map<int, std::set<std::string>> annotations;
};

/** Project-wide declaration knowledge for the unordered-iteration and
 *  capture rules (built before any rule runs). */
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

/** One non-static data member of an indexed class. */
struct MemberDecl
{
    std::string name;
    std::string file; //!< root-relative path of the declaring file
    int line = 0;
    bool hostOnly = false; //!< annotated state(host-only)
};

/** One indexed function or method body (or bodiless declaration). */
struct FunctionDecl
{
    std::string cls;  //!< qualifying class name; empty for free funcs
    std::string name; //!< bare name
    std::size_t fileIndex = 0; //!< into Project::files
    int line = 0;              //!< 1-based line of the name token
    std::size_t bodyBegin = 0; //!< token index of the opening '{'
    std::size_t bodyEnd = 0;   //!< token index of the matching '}'
    bool hasBody = false;
    bool hotRoot = false;    //!< directly annotated `hot`
    bool hot = false;        //!< hotRoot or reachable from one
    std::string hotVia;      //!< name of the hot root that reaches it
};

/** Aggregated per-class declaration knowledge. */
struct ClassDecl
{
    std::string name;
    std::string file; //!< root-relative path of the defining file
    int line = 0;     //!< line of the class-name token
    std::vector<MemberDecl> members;
    /** Method names that capture architectural state: name starts with
     *  "snapshot", or the declaration is annotated state(snapshot). */
    std::set<std::string> snapshotMethods;
    /** Method names that restore it ("restore" prefix or
     *  state(restore) annotation). */
    std::set<std::string> restoreMethods;
};

/** Project-wide declaration index for the semantic rules (built once
 *  before any rule runs, after the token indices). */
struct DeclIndex
{
    std::map<std::string, ClassDecl> classes;
    std::vector<FunctionDecl> functions;
    /** Bare function name -> indices into @c functions (bodies only). */
    std::map<std::string, std::vector<std::size_t>> byName;
    /** Per file stem: variable/member names declared as StatSet. */
    std::map<std::string, std::set<std::string>> statSetVarsByStem;
    /** Per file stem: methods declared to return (a reference to) a
     *  StatSet. */
    std::map<std::string, std::set<std::string>> statSetMethodsByStem;
    /** Names on which `.reserve(` / `->reserve(` is called anywhere in
     *  the project (capacity-managed vectors for the hot-alloc rule). */
    std::set<std::string> reservedNames;
    /** Names declared anywhere as std::deque: chunked allocation with
     *  no relocation, so hot-alloc's reserve() advice does not apply. */
    std::set<std::string> dequeNames;
    /** "Cls::name" of bodiless method declarations annotated `hot`;
     *  the annotation transfers to the out-of-line definition. */
    std::set<std::string> hotDeclMethods;
};

/** Everything a rule may look at. */
struct Project
{
    std::vector<std::unique_ptr<FileContext>> files;
    TypeIndex types;
    DeclIndex decls;
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

/** The three semantic rules (snapshot-coverage, stat-hot-path,
 *  hot-alloc), registered by allRules() after the token-level rules.
 *  Defined in semantic_rules.cc. */
const std::vector<const Rule *> &semanticRules();

/** Build Project::decls from the lexed files. Defined in index.cc;
 *  called by buildIndices(). */
void buildDeclIndex(Project &project);

/** Rule id the engine uses for stale allow(...) comments. */
inline constexpr std::string_view kUnusedSuppressionId =
    "unused-suppression";

} // namespace spburst::lint
