/**
 * @file
 * The semantic rule catalogue (rides on the DeclIndex from index.cc).
 *
 * Three rules guarding the invariants the sampling subsystem and the
 * hot-path work turned into correctness requirements:
 *
 *  - snapshot-coverage:   every data member of a class with both
 *                         snapshot and restore methods must be read by
 *                         a snapshot method and written by a restore
 *                         method, or be annotated state(host-only) —
 *                         a member missing from restore makes sampled
 *                         runs silently diverge from detailed runs.
 *  - stat-hot-path:       string-keyed StatSet calls reachable from a
 *                         hot-annotated root re-hash the key on every
 *                         access; count in the module's stats struct.
 *  - hot-alloc:           new / make_unique / make_shared and
 *                         push_back without a reserve() in hot
 *                         functions.
 */

#include <cstddef>
#include <set>
#include <string>

#include "analysis/model.hh"
#include "analysis/util.hh"

namespace spburst::lint
{

namespace
{

void
add(std::vector<Finding> &out, std::string_view rule,
    const FileContext &file, const Token &at, std::string message)
{
    Finding f;
    f.ruleId = std::string(rule);
    f.file = file.relPath;
    f.line = at.line;
    f.col = at.col;
    f.message = std::move(message);
    out.push_back(std::move(f));
}

/** Index of the '(' matching the ')' at @p close, scanning backwards;
 *  toks.size() when unbalanced. */
std::size_t
matchOpenBackward(const std::vector<Token> &toks, std::size_t close)
{
    int depth = 0;
    for (std::size_t i = close + 1; i-- > 0;) {
        if (isPunct(toks[i], ")"))
            ++depth;
        else if (isPunct(toks[i], "(") && --depth == 0)
            return i;
    }
    return toks.size();
}

// ---------------------------------------------------------------------
// Rule: snapshot-coverage
// ---------------------------------------------------------------------

class SnapshotCoverageRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"snapshot-coverage",
                "every data member of a class with snapshot/restore "
                "methods must be read in snapshot and written in "
                "restore, or be annotated state(host-only)"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        for (const auto &[name, cls] : project.decls.classes) {
            if (cls.file != file.relPath)
                continue; // report at the declaring file only
            if (cls.snapshotMethods.empty() || cls.restoreMethods.empty())
                continue;
            // Bodies of the state methods, wherever they are defined.
            std::vector<const FunctionDecl *> snap, rest;
            for (const FunctionDecl &fn : project.decls.functions) {
                if (!fn.hasBody || fn.cls != name)
                    continue;
                if (cls.snapshotMethods.count(fn.name))
                    snap.push_back(&fn);
                if (cls.restoreMethods.count(fn.name))
                    rest.push_back(&fn);
            }
            // Partial file list (header without the .cc): skipping
            // beats false positives.
            if (snap.empty() || rest.empty())
                continue;
            for (const MemberDecl &m : cls.members) {
                if (m.hostOnly)
                    continue;
                const bool inSnap = touched(project, snap, m.name);
                const bool inRest = touched(project, rest, m.name);
                if (inSnap && inRest)
                    continue;
                std::string what;
                if (!inSnap && !inRest)
                    what = "neither read in any snapshot method nor "
                           "written in any restore method";
                else if (!inSnap)
                    what = "not read in any snapshot method";
                else
                    what = "not written in any restore method";
                Finding f;
                f.ruleId = std::string(info().id);
                f.file = file.relPath;
                f.line = m.line;
                f.col = 1;
                f.message = "data member '" + m.name +
                            "' of stateful class '" + name + "' is " +
                            what +
                            ": sampled runs restore an incomplete "
                            "state and silently diverge from detailed "
                            "runs; cover it in " +
                            *cls.snapshotMethods.begin() + "/" +
                            *cls.restoreMethods.begin() +
                            " or annotate it `// spburst-lint: "
                            "state(host-only) -- <why>`";
                out.push_back(std::move(f));
            }
        }
    }

  private:
    static bool
    touched(const Project &project,
            const std::vector<const FunctionDecl *> &fns,
            const std::string &member)
    {
        for (const FunctionDecl *fn : fns) {
            const std::vector<Token> &toks =
                project.files[fn->fileIndex]->lex.tokens;
            for (std::size_t i = fn->bodyBegin;
                 i <= fn->bodyEnd && i < toks.size(); ++i)
                if (isIdent(toks[i], member))
                    return true;
        }
        return false;
    }
};

// ---------------------------------------------------------------------
// Rule: stat-hot-path
// ---------------------------------------------------------------------

class StatHotPathRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"stat-hot-path",
                "string-keyed StatSet accesses reachable from a "
                "hot-annotated root re-hash the key every call; count "
                "in a plain integer member of the module's stats "
                "struct"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        static const std::set<std::string_view> accessors = {
            "set", "get", "has", "add"};
        const std::vector<Token> &toks = file.lex.tokens;
        for (const FunctionDecl &fn : project.decls.functions) {
            if (!fn.hot || !fn.hasBody ||
                project.files[fn.fileIndex].get() != &file)
                continue;
            for (std::size_t i = fn.bodyBegin + 1;
                 i + 1 < fn.bodyEnd && i + 1 < toks.size(); ++i) {
                if (toks[i].kind != TokKind::Ident ||
                    accessors.count(toks[i].text) == 0)
                    continue;
                if (!isPunct(toks[i + 1], "(") || i < 2)
                    continue;
                if (!(isPunct(toks[i - 1], ".") ||
                      isPunct(toks[i - 1], "->")))
                    continue;
                std::string recv;
                if (toks[i - 2].kind == TokKind::Ident &&
                    stemHas(project.decls.statSetVarsByStem, file.stem,
                            std::string(toks[i - 2].text))) {
                    recv = std::string(toks[i - 2].text);
                } else if (isPunct(toks[i - 2], ")")) {
                    const std::size_t open =
                        matchOpenBackward(toks, i - 2);
                    if (open < toks.size() && open > 0 &&
                        toks[open - 1].kind == TokKind::Ident &&
                        stemHas(project.decls.statSetMethodsByStem,
                                file.stem,
                                std::string(toks[open - 1].text)))
                        recv = std::string(toks[open - 1].text) + "()";
                }
                if (recv.empty())
                    continue;
                const std::size_t close = matchClose(toks, i + 1);
                if (close >= toks.size())
                    continue;
                const auto args = splitArgs(toks, i + 1, close);
                if (args.empty() ||
                    toks[args[0].first].kind != TokKind::String)
                    continue; // dynamic key: fine
                add(out, info().id, file, toks[i],
                    "string-keyed StatSet::" + std::string(toks[i].text) +
                        "(" + std::string(toks[args[0].first].text) +
                        ", ...) on a hot path (reachable from hot root '" +
                        fn.hotVia +
                        "'): every call re-resolves the name; count in "
                        "a plain integer member of the module's stats "
                        "struct and export it when the report is "
                        "assembled (toStatSet)");
            }
        }
    }

  private:
    template <typename MapOfSets>
    static bool
    stemHas(const MapOfSets &m, const std::string &stem,
            const std::string &name)
    {
        const auto it = m.find(stem);
        return it != m.end() && it->second.count(name) != 0;
    }
};

// ---------------------------------------------------------------------
// Rule: hot-alloc
// ---------------------------------------------------------------------

class HotAllocRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"hot-alloc",
                "heap allocation (new / make_unique / make_shared / "
                "unreserved push_back) in a hot-annotated function: "
                "per-uop allocations belong in construction"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        const std::vector<Token> &toks = file.lex.tokens;
        for (const FunctionDecl &fn : project.decls.functions) {
            if (!fn.hot || !fn.hasBody ||
                project.files[fn.fileIndex].get() != &file)
                continue;
            for (std::size_t i = fn.bodyBegin + 1;
                 i < fn.bodyEnd && i < toks.size(); ++i) {
                const Token &t = toks[i];
                if (t.kind != TokKind::Ident)
                    continue;
                if ((t.text == "new" &&
                     !(i > 0 && isIdent(toks[i - 1], "operator"))) ||
                    t.text == "make_unique" || t.text == "make_shared") {
                    std::string msg = "'";
                    msg += t.text;
                    msg += "' in hot function '";
                    msg += fn.name;
                    msg += "' (reachable from hot root '";
                    msg += fn.hotVia;
                    msg += "'): allocate at construction or pool the "
                           "objects; a per-uop allocation dominates "
                           "the simulated hot loop";
                    add(out, info().id, file, t, msg);
                    continue;
                }
                if ((t.text == "push_back" || t.text == "emplace_back") &&
                    i >= 2 && i + 1 < toks.size() &&
                    isPunct(toks[i + 1], "(") &&
                    (isPunct(toks[i - 1], ".") ||
                     isPunct(toks[i - 1], "->")) &&
                    toks[i - 2].kind == TokKind::Ident) {
                    const std::string recv(toks[i - 2].text);
                    const bool memberAccess =
                        i >= 4 && (isPunct(toks[i - 3], ".") ||
                                   isPunct(toks[i - 3], "->"));
                    if (isReserved(project, file, fn, recv,
                                   memberAccess))
                        continue;
                    add(out, info().id, file, t,
                        "'" + recv + "." + std::string(t.text) +
                            "' in hot function '" + fn.name +
                            "' (reachable from hot root '" + fn.hotVia +
                            "') with no reserve() in sight: growth "
                            "reallocations land on the hot path; "
                            "reserve the capacity up front");
                }
            }
        }
    }

  private:
    /** Members count as reserved when any file reserves them — both
     *  trailing-underscore names and fields reached through an object
     *  (`entry->targets.push_back`, @p memberAccess); locals must be
     *  reserved inside this body. */
    static bool
    isReserved(const Project &project, const FileContext &file,
               const FunctionDecl &fn, const std::string &recv,
               bool memberAccess)
    {
        // Deques allocate in chunks and never relocate: reserve()
        // does not exist for them and growth is already amortised.
        if (project.decls.dequeNames.count(recv) != 0)
            return true;
        if (memberAccess || (!recv.empty() && recv.back() == '_'))
            return project.decls.reservedNames.count(recv) != 0;
        const std::vector<Token> &toks = file.lex.tokens;
        for (std::size_t i = fn.bodyBegin;
             i + 2 <= fn.bodyEnd && i + 2 < toks.size(); ++i) {
            if (isIdent(toks[i], recv) &&
                (isPunct(toks[i + 1], ".") ||
                 isPunct(toks[i + 1], "->")) &&
                isIdent(toks[i + 2], "reserve"))
                return true;
        }
        return false;
    }
};

} // namespace

const std::vector<const Rule *> &
semanticRules()
{
    static const SnapshotCoverageRule r1;
    static const StatHotPathRule r2;
    static const HotAllocRule r3;
    static const std::vector<const Rule *> rules = {&r1, &r2, &r3};
    return rules;
}

} // namespace spburst::lint
