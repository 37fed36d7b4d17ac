/**
 * @file
 * The spburst-lint rule catalogue.
 *
 * Two token-level rules, each guarding one of the repo's standing
 * invariants (see DESIGN.md "Static analysis & determinism rules"):
 *
 *  - nondeterminism:        no host clocks, host randomness, environment
 *                           lookups or standard hash containers in
 *                           result-affecting directories.
 *  - callback-capture:      lambdas handed to the event scheduler must
 *                           use explicit captures, never reference
 *                           captures, and never raw pointers to pooled
 *                           (recycled) slots.
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

template <typename Set, typename Key>
bool
contains(const Set &s, const Key &k)
{
    return s.find(k) != s.end();
}

// ---------------------------------------------------------------------
// Rule: nondeterminism
// ---------------------------------------------------------------------

/** Host clocks, host randomness and environment lookups are banned in
 *  result-affecting directories, and so are the standard hash
 *  containers, whose iteration order is the host library's. */
class NondeterminismRule final : public Rule
{
  public:
    std::string_view id() const override { return "nondeterminism"; }

    void
    check(const FileContext &file,
          std::vector<Finding> &out) const override
    {
        if (!file.resultAffecting)
            return;
        static const std::set<std::string_view> banned = {
            "chrono",        "system_clock",  "steady_clock",
            "high_resolution_clock",          "random_device",
            "rand",          "srand",         "rand_r",
            "drand48",       "lrand48",       "gettimeofday",
            "clock_gettime", "timespec_get",  "localtime",
            "gmtime",        "getenv",
        };
        static const std::set<std::string_view> hashContainers = {
            "unordered_map", "unordered_set", "unordered_multimap",
            "unordered_multiset"};
        // These are only banned as free-function calls in expression
        // context: 'time'/'clock' are common member and accessor names
        // (System::clock() returns the sim clock).
        static const std::set<std::string_view> bannedCalls = {"time",
                                                               "clock"};
        static const std::set<std::string_view> exprBefore = {
            "(", "=", ",", ";", "{", "+", "-", "<", ">",
            "?", ":", "!", "&&", "||", "return",
        };
        const std::vector<Token> &toks = file.lex.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::Ident)
                continue;
            if (contains(hashContainers, t.text)) {
                add(out, id(), file, t,
                    inResultCode(t.text,
                                 "a hash container iterates in an order "
                                 "set by its hash, bucket count and "
                                 "standard library, and that order leaks "
                                 "into stats and event order once "
                                 "anything walks it; key by block "
                                 "address with BlockMap or BlockSet "
                                 "(src/mem/block_map.hh), which cannot "
                                 "be iterated, or use an ordered "
                                 "container"));
                continue;
            }
            bool asCall = false;
            if (contains(bannedCalls, t.text) && i + 1 < toks.size() &&
                isPunct(toks[i + 1], "(") && i > 0) {
                // std::time( / std::clock( — always the host function.
                if (isPunct(toks[i - 1], "::") && i > 1 &&
                    isIdent(toks[i - 2], "std"))
                    asCall = true;
                // Bare call in expression position; declarations
                // ("SimClock &clock()") and member calls stay legal.
                else if (contains(exprBefore, toks[i - 1].text))
                    asCall = true;
            }
            if (!contains(banned, t.text) && !asCall)
                continue;
            add(out, id(), file, t,
                inResultCode(t.text,
                             "simulated results must be bit-identical "
                             "across hosts and runs; use spburst::Rng "
                             "seeded from the config for randomness, "
                             "and keep host timing in src/exp or "
                             "tools/"));
        }
    }

  private:
    /** "'<name>' in result-affecting code: <why>". Built in steps: GCC
     *  12 -Wrestrict misfires on operator+(const char *, std::string
     *  &&). */
    static std::string
    inResultCode(std::string_view name, std::string_view why)
    {
        std::string msg = "'";
        msg += name;
        msg += "' in result-affecting code: ";
        msg += why;
        return msg;
    }
};

// ---------------------------------------------------------------------
// Scheduled-lambda extraction for the callback-capture rule
// ---------------------------------------------------------------------

/** One parsed capture-list entry of a lambda passed to schedule(). */
struct CaptureEntry
{
    enum class Kind
    {
        DefaultRef,  //!< [&]
        DefaultCopy, //!< [=]
        This,        //!< this / *this
        Ref,         //!< &name
        Copy,        //!< name  or  name = init
    };
    Kind kind = Kind::Copy;
    std::string name;
    std::string type;      //!< inferred declared type ("" if unknown)
    bool pointer = false;  //!< declared as a pointer
    const Token *at = nullptr;
};

struct ScheduledLambda
{
    const Token *at = nullptr; //!< the '[' token
    std::vector<CaptureEntry> captures;
};

/** Infer the declared type of @p name by scanning backwards from token
 *  @p before for the nearest plausible declaration. */
void
inferType(const std::vector<Token> &toks, std::size_t before,
          const std::string &name, std::string &type, bool &pointer)
{
    type.clear();
    pointer = false;
    for (std::size_t i = before; i-- > 0;) {
        if (!(toks[i].kind == TokKind::Ident && toks[i].text == name))
            continue;
        std::size_t j = i;
        bool sawPtr = false;
        while (j > 0 && (isPunct(toks[j - 1], "*") ||
                         isPunct(toks[j - 1], "&") ||
                         isIdent(toks[j - 1], "const"))) {
            if (isPunct(toks[j - 1], "*"))
                sawPtr = true;
            --j;
        }
        if (j == 0 || toks[j - 1].kind != TokKind::Ident)
            continue; // a use, not a declaration
        const std::string_view prev = toks[j - 1].text;
        if (prev == "return" || prev == "delete" || prev == "new" ||
            prev == "sizeof" || prev == "move")
            continue;
        type = std::string(prev);
        pointer = sawPtr;
        return;
    }
}

/** All lambdas passed directly as arguments to a `.schedule(...)` /
 *  `->schedule(...)` call in @p file. */
std::vector<ScheduledLambda>
scheduledLambdas(const FileContext &file)
{
    std::vector<ScheduledLambda> lambdas;
    const std::vector<Token> &toks = file.lex.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "schedule"))
            continue;
        if (!(isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")))
            continue;
        if (!isPunct(toks[i + 1], "("))
            continue;
        const std::size_t close = matchClose(toks, i + 1);
        if (close >= toks.size())
            continue;
        for (const auto &[aFirst, aLast] : splitArgs(toks, i + 1, close)) {
            if (aFirst >= aLast || !isPunct(toks[aFirst], "["))
                continue;
            const std::size_t bClose = matchClose(toks, aFirst);
            if (bClose >= toks.size() || bClose > aLast)
                continue;
            ScheduledLambda lam;
            lam.at = &toks[aFirst];
            for (const auto &[cFirst, cLast] :
                 splitArgs(toks, aFirst, bClose)) {
                if (cFirst >= cLast)
                    continue;
                CaptureEntry e;
                e.at = &toks[cFirst];
                const std::size_t n = cLast - cFirst;
                if (n == 1 && isPunct(toks[cFirst], "&")) {
                    e.kind = CaptureEntry::Kind::DefaultRef;
                } else if (n == 1 && isPunct(toks[cFirst], "=")) {
                    e.kind = CaptureEntry::Kind::DefaultCopy;
                } else if (isIdent(toks[cFirst], "this") ||
                           (isPunct(toks[cFirst], "*") && n >= 2 &&
                            isIdent(toks[cFirst + 1], "this"))) {
                    e.kind = CaptureEntry::Kind::This;
                } else if (isPunct(toks[cFirst], "&") && n >= 2 &&
                           toks[cFirst + 1].kind == TokKind::Ident) {
                    e.kind = CaptureEntry::Kind::Ref;
                    e.name = std::string(toks[cFirst + 1].text);
                } else if (toks[cFirst].kind == TokKind::Ident) {
                    e.kind = CaptureEntry::Kind::Copy;
                    e.name = std::string(toks[cFirst].text);
                    // Init-capture: name = init. Infer the type from
                    // the moved/copied source variable when the init is
                    // `x` or `std::move(x)`.
                    std::string source = e.name;
                    if (n >= 3 && isPunct(toks[cFirst + 1], "=")) {
                        source.clear();
                        for (std::size_t k = cFirst + 2; k < cLast; ++k) {
                            if (toks[k].kind == TokKind::Ident &&
                                toks[k].text != "std" &&
                                toks[k].text != "move") {
                                source = std::string(toks[k].text);
                                break;
                            }
                        }
                    }
                    if (!source.empty())
                        inferType(toks, i, source, e.type, e.pointer);
                } else {
                    continue; // unrecognised entry: ignore
                }
                lam.captures.push_back(std::move(e));
            }
            lambdas.push_back(std::move(lam));
        }
    }
    return lambdas;
}

// ---------------------------------------------------------------------
// Rule: callback-capture
// ---------------------------------------------------------------------

/** Scheduled callbacks run after the current frame is gone and after
 *  pooled slots may have been recycled: explicit captures only, no
 *  references, no raw pointers to pooled entries. */
class CallbackCaptureRule final : public Rule
{
  public:
    std::string_view id() const override { return "callback-capture"; }

    void
    check(const FileContext &file,
          std::vector<Finding> &out) const override
    {
        // Pooled / recycled slot types: capturing a raw pointer to one
        // across a delay is a use-after-recycle.
        static const std::set<std::string_view> pooled = {
            "MshrEntry", "MshrTarget", "Entry", "CacheBlk"};
        for (const ScheduledLambda &lam : scheduledLambdas(file)) {
            for (const CaptureEntry &e : lam.captures) {
                switch (e.kind) {
                case CaptureEntry::Kind::DefaultRef:
                    add(out, id(), file, *e.at,
                        "default reference capture [&] in a scheduled "
                        "callback: every captured local dangles by the "
                        "time the event runs; capture explicitly by "
                        "value");
                    break;
                case CaptureEntry::Kind::DefaultCopy:
                    add(out, id(), file, *e.at,
                        "default copy capture [=] in a scheduled "
                        "callback: list the captures explicitly so "
                        "their lifetime and size stay auditable");
                    break;
                case CaptureEntry::Kind::Ref:
                    add(out, id(), file, *e.at,
                        "reference capture '&" + e.name +
                            "' in a scheduled callback: the referent's "
                            "frame is gone when the event runs; "
                            "capture by value (move callbacks)");
                    break;
                case CaptureEntry::Kind::Copy:
                    if (e.pointer && contains(pooled, e.type)) {
                        add(out, id(), file, *e.at,
                            "captured raw pointer '" + e.name +
                                "' to pooled " + e.type +
                                " slot in a scheduled callback: the "
                                "slot can be recycled before the event "
                                "runs (use-after-recycle); capture the "
                                "block address / seq+token and "
                                "re-look-up");
                    }
                    break;
                case CaptureEntry::Kind::This:
                    break;
                }
            }
        }
    }
};

} // namespace

const std::vector<const Rule *> &
allRules()
{
    static const NondeterminismRule r1;
    static const CallbackCaptureRule r2;
    static const std::vector<const Rule *> rules = {&r1, &r2};
    return rules;
}

} // namespace spburst::lint
