/**
 * @file
 * Dataflow-summary extraction, the per-file summary cache codec, call
 * resolution, and the SCC fixpoint (see dataflow.hh for the model).
 *
 * Extraction is strictly file-local so summaries can be cached by
 * content hash: callees stay symbolic (name + receiver text) and are
 * resolved at fixpoint time. The only cross-file input the extractor
 * reads is the stem-shared StatSet declaration set (a .cc sees vars
 * declared in its own .hh), which buildFlowIndex folds into the
 * effective cache hash so a header edit invalidates the pair.
 */

#include "analysis/dataflow.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "analysis/cfg.hh"
#include "analysis/util.hh"
#include "exp/task_pool.hh"

namespace spburst::lint
{

namespace
{

constexpr std::size_t kMaxSteps = 12;
constexpr unsigned kMaxParams = 32;
constexpr int kMaxPasses = 8;

bool
isKeywordNotCall(std::string_view w)
{
    return w == "if" || w == "for" || w == "while" || w == "switch" ||
           w == "return" || w == "sizeof" || w == "catch" ||
           w == "throw" || w == "new" || w == "delete" ||
           w == "alignof" || w == "decltype" || w == "static_assert" ||
           w == "assert" || w == "defined";
}

/** Host-nondeterministic sources that taint on sight (clock types used
 *  as `steady_clock::now()` etc.). */
bool
isBareHostSource(std::string_view w)
{
    return w == "system_clock" || w == "steady_clock" ||
           w == "high_resolution_clock" || w == "random_device";
}

/** Host sources that count only in call position (`time(` yes,
 *  `x.time` no): common words otherwise. */
bool
isCallHostSource(std::string_view w)
{
    return w == "rand" || w == "srand" || w == "rand_r" ||
           w == "drand48" || w == "lrand48" || w == "random" ||
           w == "getenv" || w == "gettimeofday" ||
           w == "clock_gettime" || w == "timespec_get" ||
           w == "time" || w == "clock";
}

std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// Local-summary extraction
// ---------------------------------------------------------------------

/** Per-variable taint state at one program point. */
using VarState = std::map<std::string, TaintSet>;

bool
joinInto(VarState &dst, const VarState &src)
{
    bool changed = false;
    for (const auto &[name, ts] : src) {
        auto [it, inserted] = dst.emplace(name, ts);
        if (inserted)
            changed = true;
        else if (it->second.merge(ts))
            changed = true;
    }
    return changed;
}

class Extractor
{
  public:
    Extractor(const DeclIndex &decls, const FileContext &file,
              const FunctionDecl &fn)
        : file_(file), fn_(fn), toks_(file.lex.tokens)
    {
        const auto it = decls.statSetVarsByStem.find(file.stem);
        if (it != decls.statSetVarsByStem.end())
            statSetVars_ = &it->second;
    }

    FnSummary
    run()
    {
        cfg_ = buildCfg(toks_, fn_.bodyBegin, fn_.bodyEnd);
        findParams();
        assignCallOrdinals();
        sum_.calls.resize(callTok_.size());
        for (std::size_t k = 0; k < callTok_.size(); ++k) {
            CallSite &cs = sum_.calls[k];
            const std::size_t i = callTok_[k];
            cs.name = std::string(toks_[i].text);
            cs.line = toks_[i].line;
            if (i >= 2 && (isPunct(toks_[i - 1], ".") ||
                           isPunct(toks_[i - 1], "->")) &&
                toks_[i - 2].kind == TokKind::Ident)
                cs.recv = std::string(toks_[i - 2].text);
            if (i >= 2 && isPunct(toks_[i - 1], "::") &&
                toks_[i - 2].kind == TokKind::Ident)
                cs.recvClass = std::string(toks_[i - 2].text);
        }

        // Iterate the block states to a fixpoint, then one recording
        // pass with the final states. RPO + capped passes keep this
        // deterministic and cheap.
        const std::vector<std::size_t> order = cfg_.rpo();
        std::vector<VarState> in(cfg_.blocks.size());
        std::vector<VarState> out(cfg_.blocks.size());
        in[0] = entryState();
        std::vector<std::vector<std::size_t>> preds(cfg_.blocks.size());
        for (std::size_t b = 0; b < cfg_.blocks.size(); ++b)
            for (const std::size_t s : cfg_.blocks[b].succs)
                preds[s].push_back(b);
        for (int pass = 0; pass < kMaxPasses; ++pass) {
            bool changed = false;
            for (const std::size_t b : order) {
                VarState s = b == 0 ? entryState() : VarState{};
                for (const std::size_t p : preds[b])
                    joinInto(s, out[p]);
                if (joinInto(in[b], s))
                    changed = true;
                VarState o = in[b];
                for (const CfgStmt &st : cfg_.blocks[b].stmts)
                    transfer(st, o, false);
                if (out[b] != o) {
                    out[b] = std::move(o);
                    changed = true;
                }
            }
            if (!changed)
                break;
        }
        for (const std::size_t b : order) {
            VarState s = in[b];
            for (const CfgStmt &st : cfg_.blocks[b].stmts)
                transfer(st, s, true);
        }
        return std::move(sum_);
    }

    const Cfg &
    cfg() const
    {
        return cfg_;
    }

  private:
    VarState
    entryState() const
    {
        VarState s;
        for (unsigned i = 0; i < params_.size() && i < kMaxParams; ++i) {
            TaintSet ts;
            ts.params = 1u << i;
            s[params_[i]] = std::move(ts);
        }
        return s;
    }

    void
    findParams()
    {
        // The '(' opening the parameter list directly follows the
        // function's name token; scan backwards from the body brace
        // (initializer-list calls use member names, so the first
        // backward match is the parameter list).
        for (std::size_t i = fn_.bodyBegin; i-- > 1;) {
            if (!isPunct(toks_[i], "(") ||
                toks_[i - 1].kind != TokKind::Ident ||
                toks_[i - 1].text != fn_.name)
                continue;
            const std::size_t close = matchClose(toks_, i);
            if (close >= toks_.size() || close > fn_.bodyBegin)
                continue;
            for (const auto &[aFirst, aLast] :
                 splitArgs(toks_, i, close)) {
                std::size_t cut = aLast;
                for (std::size_t k = aFirst; k < aLast; ++k) {
                    if (isPunct(toks_[k], "=")) {
                        cut = k;
                        break;
                    }
                }
                std::string name;
                for (std::size_t k = cut; k-- > aFirst;) {
                    if (toks_[k].kind == TokKind::Ident) {
                        name = std::string(toks_[k].text);
                        break;
                    }
                }
                if (!name.empty())
                    params_.push_back(std::move(name));
            }
            return;
        }
    }

    void
    assignCallOrdinals()
    {
        for (std::size_t i = fn_.bodyBegin + 1;
             i + 1 < fn_.bodyEnd && i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind == TokKind::Ident &&
                isPunct(toks_[i + 1], "(") &&
                !isKeywordNotCall(toks_[i].text)) {
                ordinalOf_[i] =
                    static_cast<std::uint16_t>(callTok_.size());
                callTok_.push_back(i);
            }
        }
    }

    bool
    isStatSetVar(std::string_view name) const
    {
        return statSetVars_ &&
               statSetVars_->count(std::string(name)) != 0;
    }

    /** Classify an lvalue chain (base [. field]) as a stat write, a
     *  member-state write, or a plain variable. */
    enum class Lvalue
    {
        Var,
        StatWrite,
        StateWrite,
        Unknown
    };

    struct Chain
    {
        std::string base;
        std::string field; //!< last member; empty for plain vars
        /** Some link before the field names a stats object: the chain
         *  writes a stat (`stats_.x`, per-context `t.stats.x`). */
        bool statsLink = false;
        int line = 0;
    };

    /** Parse the lvalue chain ending at token @p lastIncl (walking
     *  back over [index] and (call) suffixes and './->' links). */
    bool
    parseChain(std::size_t first, std::size_t lastIncl, Chain &chain)
    {
        std::size_t j = lastIncl;
        while (j > first &&
               (isPunct(toks_[j], "]") || isPunct(toks_[j], ")"))) {
            // Balance backwards to the opener.
            const std::string_view close = toks_[j].text;
            const std::string_view open = close == "]" ? "[" : "(";
            int depth = 0;
            while (j > first) {
                if (isPunct(toks_[j], close))
                    ++depth;
                else if (isPunct(toks_[j], open) && --depth == 0)
                    break;
                --j;
            }
            if (j == first)
                return false;
            --j;
        }
        if (toks_[j].kind != TokKind::Ident)
            return false;
        std::vector<std::string> names{std::string(toks_[j].text)};
        chain.line = toks_[j].line;
        while (j >= first + 2 &&
               (isPunct(toks_[j - 1], ".") ||
                isPunct(toks_[j - 1], "->")) &&
               toks_[j - 2].kind == TokKind::Ident) {
            j -= 2;
            names.push_back(std::string(toks_[j].text));
        }
        chain.base = names.back();
        chain.field = names.size() > 1 ? names.front() : std::string();
        chain.statsLink = std::any_of(
            names.begin() + 1, names.end(), [](const std::string &n) {
                return n.find("stats") != std::string::npos;
            });
        return true;
    }

    Lvalue
    classify(const Chain &chain) const
    {
        if (!chain.field.empty()) {
            if (chain.statsLink)
                return Lvalue::StatWrite;
            if (chain.base == "this" || chain.base.back() == '_')
                return Lvalue::StateWrite;
            return Lvalue::Unknown; // some other object's member
        }
        if (chain.base.back() == '_')
            return Lvalue::StateWrite;
        return Lvalue::Var;
    }

    bool
    lineExempt(int line) const
    {
        const auto it = file_.annotations.find(line);
        return it != file_.annotations.end() &&
               it->second.count("ff-exempt") != 0;
    }

    void
    recordStatWrite(const std::string &key, bool statSetKey, int line,
                    bool record)
    {
        if (!record)
            return;
        for (const StatWriteInfo &w : sum_.statWrites)
            if (w.key == key && w.line == line)
                return;
        StatWriteInfo w;
        w.key = key;
        w.statSetKey = statSetKey;
        w.line = line;
        w.exempt = lineExempt(line);
        w.checkPrefixed =
            statSetKey && key.rfind("check.", 0) == 0;
        sum_.statWrites.push_back(std::move(w));
    }

    void
    recordStateWrite(const Chain &chain, bool record)
    {
        if (!record || sum_.stateWriteLine >= 0)
            return;
        sum_.stateWriteLine = chain.line;
        sum_.stateWriteDesc =
            chain.field.empty()
                ? "writes member '" + chain.base + "'"
                : "writes member '" + chain.base + "." + chain.field +
                      "'";
    }

    void
    recordSink(int kind, int line, int col, std::string desc,
               const TaintSet &value, bool record)
    {
        if (!record)
            return;
        for (const FnSummary::Sink &s : sum_.sinks)
            if (s.kind == kind && s.line == line && s.col == col &&
                s.desc == desc)
                return;
        FnSummary::Sink s;
        s.kind = kind;
        s.line = line;
        s.col = col;
        s.desc = std::move(desc);
        s.value = value;
        sum_.sinks.push_back(std::move(s));
    }

    /** Taint of the expression tokens [first, last); registers call
     *  arguments / sinks in record mode. */
    TaintSet
    evalExpr(std::size_t first, std::size_t last, VarState &state,
             bool record)
    {
        TaintSet ts;
        std::size_t i = first;
        while (i < last) {
            const Token &t = toks_[i];
            if (t.kind != TokKind::Ident) {
                ++i;
                continue;
            }
            // reinterpret_cast to a non-pointer (integer) type.
            if (t.text == "reinterpret_cast" && i + 1 < last &&
                isPunct(toks_[i + 1], "<")) {
                const std::size_t past =
                    matchTemplateClose(toks_, i + 1);
                bool pointerTarget = false;
                for (std::size_t k = i + 2; k + 1 < past; ++k)
                    if (isPunct(toks_[k], "*"))
                        pointerTarget = true;
                if (!pointerTarget && past < toks_.size()) {
                    ts.direct = true;
                    pushStep(ts.steps, file_.relPath, t.line,
                             "reinterpret_cast of a pointer to an "
                             "integer type (host address)");
                }
                i = past < last ? past : last;
                continue;
            }
            if (t.text == "uintptr_t" || t.text == "intptr_t") {
                ts.direct = true;
                pushStep(ts.steps, file_.relPath, t.line,
                         "cast to " + std::string(t.text) +
                             " (host pointer value)");
                ++i;
                continue;
            }
            if (t.text == "hash" && i + 1 < last &&
                isPunct(toks_[i + 1], "<")) {
                const std::size_t past =
                    matchTemplateClose(toks_, i + 1);
                bool ptrArg = false;
                for (std::size_t k = i + 2; k + 1 < past; ++k)
                    if (isPunct(toks_[k], "*"))
                        ptrArg = true;
                if (ptrArg) {
                    ts.direct = true;
                    pushStep(ts.steps, file_.relPath, t.line,
                             "std::hash of a pointer (host address)");
                }
                i = past < last ? past : last;
                continue;
            }
            const bool prevMember =
                i > 0 && (isPunct(toks_[i - 1], ".") ||
                          isPunct(toks_[i - 1], "->"));
            if (isBareHostSource(t.text) ||
                (isCallHostSource(t.text) && !prevMember &&
                 i + 1 < last && isPunct(toks_[i + 1], "("))) {
                ts.direct = true;
                pushStep(ts.steps, file_.relPath, t.line,
                         "host-nondeterministic source '" +
                             std::string(t.text) + "'");
                ++i;
                continue;
            }
            // Call?
            if (i + 1 < last && isPunct(toks_[i + 1], "(") &&
                !isKeywordNotCall(t.text)) {
                const std::size_t close = matchClose(toks_, i + 1);
                if (close >= toks_.size() || close > last) {
                    ++i;
                    continue;
                }
                const auto args = splitArgs(toks_, i + 1, close);
                // StatSet writes double as sinks and stat-key writes.
                const bool statSetWrite =
                    prevMember && i >= 2 &&
                    toks_[i - 2].kind == TokKind::Ident &&
                    isStatSetVar(toks_[i - 2].text) &&
                    (t.text == "set" || t.text == "add" ||
                     t.text == "merge");
                if (statSetWrite && !args.empty()) {
                    std::string key;
                    bool pure = true;
                    for (std::size_t k = args[0].first;
                         k < args[0].second; ++k) {
                        if (toks_[k].kind == TokKind::String)
                            key += stringValue(toks_[k]);
                        else
                            pure = false;
                    }
                    if (!key.empty() && pure && t.text != "merge")
                        recordStatWrite(key, true, t.line, record);
                    for (std::size_t a = 1; a < args.size(); ++a) {
                        const TaintSet av = evalExpr(
                            args[a].first, args[a].second, state,
                            record);
                        recordSink(
                            0, toks_[args[a].first].line,
                            toks_[args[a].first].col,
                            "StatSet write" +
                                (key.empty() ? std::string()
                                             : " '" + key + "'"),
                            av, record);
                    }
                    i = close + 1;
                    continue;
                }
                const bool configSink = t.text == "configKey";
                const bool jsonSink =
                    t.text == "toJson" || t.text == "toJsonLine";
                const auto ord = ordinalOf_.find(i);
                for (std::size_t a = 0; a < args.size(); ++a) {
                    if (args[a].second <= args[a].first)
                        continue;
                    const TaintSet av = evalExpr(
                        args[a].first, args[a].second, state, record);
                    if (record && ord != ordinalOf_.end()) {
                        CallSite &cs = sum_.calls[ord->second];
                        if (cs.args.size() < args.size())
                            cs.args.resize(args.size());
                        cs.args[a].merge(av);
                    }
                    if (configSink)
                        recordSink(1, toks_[args[a].first].line,
                                   toks_[args[a].first].col,
                                   "exp::configKey argument", av,
                                   record);
                    if (jsonSink)
                        recordSink(2, toks_[args[a].first].line,
                                   toks_[args[a].first].col,
                                   "JSONL result output (" +
                                       std::string(t.text) + ")",
                                   av, record);
                }
                if (ord != ordinalOf_.end())
                    ts.calls.push_back(ord->second);
                i = close + 1;
                continue;
            }
            // Receiver of a method call: skip, the value is the call.
            if (i + 3 < last &&
                (isPunct(toks_[i + 1], ".") ||
                 isPunct(toks_[i + 1], "->")) &&
                toks_[i + 2].kind == TokKind::Ident &&
                isPunct(toks_[i + 3], "(")) {
                ++i;
                continue;
            }
            const auto it = state.find(std::string(t.text));
            if (it != state.end())
                ts.merge(it->second);
            ++i;
        }
        std::sort(ts.calls.begin(), ts.calls.end());
        ts.calls.erase(std::unique(ts.calls.begin(), ts.calls.end()),
                       ts.calls.end());
        return ts;
    }

    void
    transfer(const CfgStmt &st, VarState &state, bool record)
    {
        const std::size_t first = st.first;
        const std::size_t last = st.last;
        if (first >= last)
            return;

        // ++ / -- writes.
        for (std::size_t i = first; i < last; ++i) {
            if (!(isPunct(toks_[i], "++") || isPunct(toks_[i], "--")))
                continue;
            Chain chain;
            bool got = false;
            if (i + 1 < last && toks_[i + 1].kind == TokKind::Ident) {
                // Prefix: chain extends forward.
                std::size_t j = i + 1;
                while (j + 2 < last &&
                       (isPunct(toks_[j + 1], ".") ||
                        isPunct(toks_[j + 1], "->")) &&
                       toks_[j + 2].kind == TokKind::Ident)
                    j += 2;
                got = parseChain(i + 1, j, chain);
            } else if (i > first) {
                got = parseChain(first, i - 1, chain);
            }
            if (!got)
                continue;
            switch (classify(chain)) {
            case Lvalue::StatWrite:
                recordStatWrite(chain.field, false, chain.line, record);
                break;
            case Lvalue::StateWrite:
                recordStateWrite(chain, record);
                break;
            default:
                break;
            }
        }

        // return <expr>;
        if (isIdent(toks_[first], "return")) {
            const TaintSet ts =
                evalExpr(first + 1, last, state, record);
            if (record)
                sum_.returnTaint.merge(ts);
            return;
        }

        // Assignment (first top-level = or compound op).
        static const std::set<std::string_view> assigns = {
            "=",  "+=", "-=", "*=",  "/=",  "%=",
            "&=", "|=", "^=", "<<=", ">>=",
        };
        int pd = 0;
        std::size_t op = last;
        for (std::size_t i = first; i < last; ++i) {
            const Token &t = toks_[i];
            if (t.kind != TokKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++pd;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --pd;
            else if (pd == 0 && assigns.count(t.text) != 0) {
                op = i;
                break;
            }
        }
        if (op < last) {
            const TaintSet rhs =
                evalExpr(op + 1, last, state, record);
            Chain chain;
            if (op > first && parseChain(first, op - 1, chain)) {
                switch (classify(chain)) {
                case Lvalue::Var: {
                    TaintSet &slot = state[chain.base];
                    if (isPunct(toks_[op], "="))
                        slot = rhs;
                    else
                        slot.merge(rhs);
                    break;
                }
                case Lvalue::StatWrite:
                    recordStatWrite(chain.field, false, chain.line,
                                    record);
                    break;
                case Lvalue::StateWrite:
                    recordStateWrite(chain, record);
                    break;
                case Lvalue::Unknown:
                    break;
                }
            }
            return;
        }

        // Plain expression statement: evaluate for calls/sinks.
        evalExpr(first, last, state, record);
    }

    const FileContext &file_;
    const FunctionDecl &fn_;
    const std::vector<Token> &toks_;
    const std::set<std::string> *statSetVars_ = nullptr;
    Cfg cfg_;
    FnSummary sum_;
    std::vector<std::string> params_;
    std::vector<std::size_t> callTok_;
    std::map<std::size_t, std::uint16_t> ordinalOf_;
};

// ---------------------------------------------------------------------
// Summary cache codec
// ---------------------------------------------------------------------

std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\t')
            out += "\\t";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
unesc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
        } else if (s[i + 1] == 't') {
            out += '\t';
            ++i;
        } else if (s[i + 1] == 'n') {
            out += '\n';
            ++i;
        } else {
            out += s[i + 1];
            ++i;
        }
    }
    return out;
}

void
writeTs(std::ostringstream &out, const TaintSet &ts)
{
    out << (ts.direct ? 1 : 0) << '\t' << ts.params << '\t';
    for (std::size_t i = 0; i < ts.calls.size(); ++i)
        out << (i ? "," : "") << ts.calls[i];
    out << '\t' << ts.steps.size();
    for (const FlowStep &s : ts.steps)
        out << '\t' << s.line << '\t' << esc(s.note);
}

/** Parse a TaintSet from fields[at...]; returns the next index or
 *  npos on malformed input. */
std::size_t
readTs(const std::vector<std::string> &f, std::size_t at, TaintSet &ts)
{
    if (at + 3 > f.size())
        return std::string::npos;
    ts.direct = f[at] == "1";
    ts.params =
        static_cast<std::uint32_t>(std::strtoul(f[at + 1].c_str(),
                                                nullptr, 10));
    ts.calls.clear();
    const std::string &csv = f[at + 2];
    std::size_t start = 0;
    while (start < csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        ts.calls.push_back(static_cast<std::uint16_t>(
            std::atoi(csv.substr(start, comma - start).c_str())));
        start = comma + 1;
    }
    const std::size_t n = static_cast<std::size_t>(
        std::atoi(f[at + 3].c_str()));
    std::size_t i = at + 4;
    ts.steps.clear();
    for (std::size_t k = 0; k < n; ++k, i += 2) {
        if (i + 1 >= f.size())
            return std::string::npos;
        FlowStep s;
        s.line = std::atoi(f[i].c_str());
        s.note = unesc(f[i + 1]);
        ts.steps.push_back(std::move(s));
    }
    return i;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

} // namespace

bool
TaintSet::merge(const TaintSet &other)
{
    bool changed = false;
    if (other.direct && !direct) {
        direct = true;
        changed = true;
    }
    if ((params | other.params) != params) {
        params |= other.params;
        changed = true;
    }
    const std::size_t before = calls.size();
    calls.insert(calls.end(), other.calls.begin(), other.calls.end());
    std::sort(calls.begin(), calls.end());
    calls.erase(std::unique(calls.begin(), calls.end()), calls.end());
    if (calls.size() != before)
        changed = true;
    if (steps.empty() && !other.steps.empty())
        steps = other.steps;
    return changed;
}

void
pushStep(std::vector<FlowStep> &steps, const std::string &file,
         int line, std::string note)
{
    if (steps.size() >= kMaxSteps)
        return;
    FlowStep s;
    s.file = file;
    s.line = line;
    s.note = std::move(note);
    steps.push_back(std::move(s));
}

std::string
serializeSummaries(const std::vector<FnSummary> &fns)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < fns.size(); ++i) {
        const FnSummary &s = fns[i];
        out << "F\t" << i << '\t' << s.stateWriteLine << '\t'
            << esc(s.stateWriteDesc) << '\n';
        out << "R\t";
        writeTs(out, s.returnTaint);
        out << '\n';
        for (const CallSite &c : s.calls) {
            out << "C\t" << esc(c.name) << '\t' << esc(c.recv) << '\t'
                << esc(c.recvClass) << '\t' << c.line << '\t'
                << c.args.size() << '\n';
            for (const TaintSet &a : c.args) {
                out << "A\t";
                writeTs(out, a);
                out << '\n';
            }
        }
        for (const StatWriteInfo &w : s.statWrites)
            out << "W\t" << esc(w.key) << '\t' << (w.statSetKey ? 1 : 0)
                << '\t' << w.line << '\t' << (w.exempt ? 1 : 0) << '\t'
                << (w.checkPrefixed ? 1 : 0) << '\n';
        for (const FnSummary::Sink &k : s.sinks) {
            out << "K\t" << k.kind << '\t' << k.line << '\t' << k.col
                << '\t' << esc(k.desc) << '\t';
            writeTs(out, k.value);
            out << '\n';
        }
    }
    return out.str();
}

bool
deserializeSummaries(const std::string &blob,
                     std::vector<FnSummary> &fns)
{
    fns.clear();
    std::istringstream in(blob);
    std::string line;
    FnSummary *cur = nullptr;
    CallSite *curCall = nullptr;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto f = splitTabs(line);
        if (f[0] == "F" && f.size() >= 4) {
            fns.emplace_back();
            cur = &fns.back();
            curCall = nullptr;
            cur->stateWriteLine = std::atoi(f[2].c_str());
            cur->stateWriteDesc = unesc(f[3]);
        } else if (f[0] == "R" && cur) {
            if (readTs(f, 1, cur->returnTaint) == std::string::npos)
                return false;
        } else if (f[0] == "C" && cur && f.size() >= 6) {
            cur->calls.emplace_back();
            curCall = &cur->calls.back();
            curCall->name = unesc(f[1]);
            curCall->recv = unesc(f[2]);
            curCall->recvClass = unesc(f[3]);
            curCall->line = std::atoi(f[4].c_str());
        } else if (f[0] == "A" && curCall) {
            curCall->args.emplace_back();
            if (readTs(f, 1, curCall->args.back()) == std::string::npos)
                return false;
        } else if (f[0] == "W" && cur && f.size() >= 6) {
            StatWriteInfo w;
            w.key = unesc(f[1]);
            w.statSetKey = f[2] == "1";
            w.line = std::atoi(f[3].c_str());
            w.exempt = f[4] == "1";
            w.checkPrefixed = f[5] == "1";
            cur->statWrites.push_back(std::move(w));
        } else if (f[0] == "K" && cur && f.size() >= 6) {
            FnSummary::Sink k;
            k.kind = std::atoi(f[1].c_str());
            k.line = std::atoi(f[2].c_str());
            k.col = std::atoi(f[3].c_str());
            k.desc = unesc(f[4]);
            if (readTs(f, 5, k.value) == std::string::npos)
                return false;
            cur->sinks.push_back(std::move(k));
        } else {
            return false; // unknown record: stale format
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------

std::size_t
FlowIndex::resolve(const Project &project, std::size_t callerIdx,
                   const CallSite &cs) const
{
    const DeclIndex &decls = project.decls;
    const std::size_t npos = decls.functions.size();
    if (callerIdx >= npos)
        return npos;
    const FunctionDecl &caller = decls.functions[callerIdx];
    const FileContext &callerFile = *project.files[caller.fileIndex];

    if (!cs.recvClass.empty()) {
        const auto it = byQualified.find(cs.recvClass + "::" + cs.name);
        if (it != byQualified.end())
            return it->second;
        // Namespace qualifier (exp::configKey): fall through to the
        // name-based path below.
    }
    if (!cs.recv.empty()) {
        std::string cls;
        if (cs.recv == "this") {
            cls = caller.cls;
        } else {
            const auto stemIt = varClassByStem.find(callerFile.stem);
            if (stemIt != varClassByStem.end()) {
                const auto varIt = stemIt->second.find(cs.recv);
                if (varIt != stemIt->second.end())
                    cls = varIt->second;
            }
        }
        if (cls.empty())
            return npos; // unknown receiver: don't guess a free fn
        const auto it = byQualified.find(cls + "::" + cs.name);
        return it != byQualified.end() ? it->second : npos;
    }
    const auto it = decls.byName.find(cs.name);
    if (it == decls.byName.end())
        return npos;
    if (it->second.size() == 1)
        return it->second.front();
    // Ambiguous bare name: the propagateHot convention — the single
    // candidate sharing the caller's file stem or class.
    std::size_t match = npos;
    int count = 0;
    for (const std::size_t cand : it->second) {
        const FunctionDecl &c = decls.functions[cand];
        const bool sameStem =
            project.files[c.fileIndex]->stem == callerFile.stem;
        const bool sameCls =
            !caller.cls.empty() && c.cls == caller.cls;
        if (sameStem || sameCls) {
            match = cand;
            ++count;
        }
    }
    return count == 1 ? match : npos;
}

// ---------------------------------------------------------------------
// Fixpoint evaluator
// ---------------------------------------------------------------------

TaintEval::Result
TaintEval::eval(const TaintSet &ts)
{
    Result r;
    r.indep = ts.direct;
    r.params = ts.params;
    if (ts.direct)
        r.steps = ts.steps;
    for (const std::uint16_t k : ts.calls) {
        Result c = evalCall(k);
        if (c.indep && !r.indep) {
            r.indep = true;
            r.steps = std::move(c.steps);
        }
        r.params |= c.params;
    }
    return r;
}

TaintEval::Result
TaintEval::evalCall(std::uint16_t ordinal)
{
    Result r;
    for (const std::uint16_t v : visiting_)
        if (v == ordinal)
            return r; // loop-carried call chain: already accounted
    const FlowIndex &fi = *flow_;
    if (fnIdx_ >= fi.fn.size() ||
        ordinal >= fi.fn[fnIdx_].calls.size())
        return r;
    const CallSite &cs = fi.fn[fnIdx_].calls[ordinal];
    const std::size_t callee = fi.resolve(project_, fnIdx_, cs);
    if (callee >= fi.fn.size())
        return r; // external / unresolved: assumed taint-free
    visiting_.push_back(ordinal);
    const std::string &file =
        project_.files[project_.decls.functions[fnIdx_].fileIndex]
            ->relPath;
    if (fi.retIndep[callee]) {
        r.indep = true;
        r.steps = fi.retSteps[callee];
        pushStep(r.steps, file, cs.line,
                 "returned by '" + cs.name + "'");
    }
    for (unsigned j = 0; j < kMaxParams; ++j) {
        if (!(fi.retParams[callee] & (1u << j)) ||
            j >= cs.args.size())
            continue;
        Result a = eval(cs.args[j]);
        if (a.indep && !r.indep) {
            r.indep = true;
            r.steps = std::move(a.steps);
            pushStep(r.steps, file, cs.line,
                     "flows through '" + cs.name +
                         "' to its return value");
        }
        r.params |= a.params;
    }
    visiting_.pop_back();
    return r;
}

// ---------------------------------------------------------------------
// buildFlowIndex
// ---------------------------------------------------------------------

namespace
{

/** Tarjan's SCC over the resolved call graph; SCCs are emitted
 *  callees-first, which is the evaluation order the fixpoint needs. */
class Tarjan
{
  public:
    explicit Tarjan(const std::vector<std::vector<std::size_t>> &succs)
        : succs_(succs), index_(succs.size(), kNone),
          low_(succs.size(), 0), onStack_(succs.size(), 0)
    {
        for (std::size_t v = 0; v < succs.size(); ++v)
            if (index_[v] == kNone)
                strongConnect(v);
    }

    std::vector<std::vector<std::size_t>> sccs;

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    void
    strongConnect(std::size_t v)
    {
        // Iterative to keep deep call chains off the C++ stack.
        struct Frame
        {
            std::size_t v;
            std::size_t next = 0;
        };
        std::vector<Frame> frames{{v}};
        open(v);
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.next < succs_[f.v].size()) {
                const std::size_t w = succs_[f.v][f.next++];
                if (index_[w] == kNone) {
                    open(w);
                    frames.push_back({w});
                } else if (onStack_[w]) {
                    low_[f.v] = std::min(low_[f.v], index_[w]);
                }
                continue;
            }
            if (low_[f.v] == index_[f.v]) {
                std::vector<std::size_t> scc;
                std::size_t w;
                do {
                    w = stack_.back();
                    stack_.pop_back();
                    onStack_[w] = 0;
                    scc.push_back(w);
                } while (w != f.v);
                std::sort(scc.begin(), scc.end());
                sccs.push_back(std::move(scc));
            }
            const std::size_t done = f.v;
            frames.pop_back();
            if (!frames.empty())
                low_[frames.back().v] =
                    std::min(low_[frames.back().v], low_[done]);
        }
    }

    void
    open(std::size_t v)
    {
        index_[v] = counter_;
        low_[v] = counter_;
        ++counter_;
        stack_.push_back(v);
        onStack_[v] = 1;
    }

    const std::vector<std::vector<std::size_t>> &succs_;
    std::vector<std::size_t> index_;
    std::vector<std::size_t> low_;
    std::vector<char> onStack_;
    std::vector<std::size_t> stack_;
    std::size_t counter_ = 0;
};

void
buildVarClassIndex(const Project &project, FlowIndex &fi)
{
    for (const auto &file : project.files) {
        const std::vector<Token> &toks = file->lex.tokens;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::Ident)
                continue;
            const std::string cls(t.text);
            if (project.decls.classes.count(cls) == 0)
                continue;
            if (i > 0 && (isIdent(toks[i - 1], "class") ||
                          isIdent(toks[i - 1], "struct") ||
                          isIdent(toks[i - 1], "enum")))
                continue;
            std::size_t j = i + 1;
            while (j < toks.size() &&
                   (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                    isIdent(toks[j], "const")))
                ++j;
            if (j >= toks.size() || toks[j].kind != TokKind::Ident)
                continue;
            const std::string name(toks[j].text);
            if (j + 1 < toks.size() &&
                (isPunct(toks[j + 1], ";") ||
                 isPunct(toks[j + 1], "=") ||
                 isPunct(toks[j + 1], "{") ||
                 isPunct(toks[j + 1], ",") ||
                 isPunct(toks[j + 1], ")")))
                fi.varClassByStem[file->stem].emplace(name, cls);
        }
    }
}

} // namespace

void
buildFlowIndex(Project &project, const SummaryCache *cache,
               unsigned jobs, SummaryCache *fresh)
{
    auto fi = std::make_shared<FlowIndex>();
    const DeclIndex &decls = project.decls;
    const std::size_t nFns = decls.functions.size();
    const std::size_t nFiles = project.files.size();
    fi->fn.resize(nFns);

    // Functions of each file, in global index order (deterministic,
    // content-determined per file: pass-1 inline methods then pass-2
    // out-of-class definitions).
    std::vector<std::vector<std::size_t>> byFile(nFiles);
    for (std::size_t f = 0; f < nFns; ++f)
        if (decls.functions[f].hasBody)
            byFile[decls.functions[f].fileIndex].push_back(f);

    // Effective per-file hash: content plus the stem-shared StatSet
    // declarations the extractor reads (a header edit that adds a
    // StatSet var must invalidate its .cc sibling's summary).
    std::vector<std::string> effHash(nFiles);
    for (std::size_t i = 0; i < nFiles; ++i) {
        const FileContext &file = *project.files[i];
        std::string seed = file.contentHash;
        const auto it = decls.statSetVarsByStem.find(file.stem);
        if (it != decls.statSetVarsByStem.end())
            for (const std::string &v : it->second)
                seed += "|" + v;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(fnv1a(seed)));
        effHash[i] = buf;
    }

    fi->summariesTotal = nFiles;
    std::vector<char> hit(nFiles, 0);
    std::vector<std::vector<FnSummary>> perFile(nFiles);
    if (cache) {
        for (std::size_t i = 0; i < nFiles; ++i) {
            const auto it = cache->find(project.files[i]->relPath);
            if (it == cache->end() || it->second.hash != effHash[i])
                continue;
            std::vector<FnSummary> fns;
            if (deserializeSummaries(it->second.blob, fns) &&
                fns.size() == byFile[i].size()) {
                perFile[i] = std::move(fns);
                hit[i] = 1;
            }
        }
    }

    exp::parallelFor(jobs, nFiles, [&](std::size_t i) {
        if (hit[i])
            return;
        const FileContext &file = *project.files[i];
        std::vector<FnSummary> fns;
        fns.reserve(byFile[i].size());
        for (const std::size_t f : byFile[i]) {
            Extractor ex(decls, file, decls.functions[f]);
            fns.push_back(ex.run());
        }
        perFile[i] = std::move(fns);
    });
    for (std::size_t i = 0; i < nFiles; ++i) {
        if (hit[i])
            ++fi->summariesReused;
        for (std::size_t k = 0; k < byFile[i].size(); ++k)
            fi->fn[byFile[i][k]] = std::move(perFile[i][k]);
    }
    if (fresh) {
        fresh->clear(); // files absent from this run are pruned here
        for (std::size_t i = 0; i < nFiles; ++i) {
            std::vector<FnSummary> fns;
            fns.reserve(byFile[i].size());
            for (const std::size_t f : byFile[i])
                fns.push_back(fi->fn[f]);
            SummaryCacheEntry e;
            e.hash = effHash[i];
            e.blob = serializeSummaries(fns);
            (*fresh)[project.files[i]->relPath] = std::move(e);
        }
    }

    // Resolution indices.
    buildVarClassIndex(project, *fi);
    {
        std::map<std::string, int> seen;
        for (std::size_t f = 0; f < nFns; ++f) {
            const FunctionDecl &fn = decls.functions[f];
            if (!fn.hasBody || fn.cls.empty())
                continue;
            const std::string key = fn.cls + "::" + fn.name;
            if (++seen[key] == 1)
                fi->byQualified[key] = f;
            else
                fi->byQualified.erase(key); // ambiguous: don't guess
        }
    }

    fi->retIndep.assign(nFns, 0);
    fi->retParams.assign(nFns, 0);
    fi->retSteps.assign(nFns, {});
    fi->impure.assign(nFns, 0);
    fi->impureSteps.assign(nFns, {});
    fi->sinkParams.assign(nFns, 0);
    fi->sinkParamSteps.assign(nFns, {});
    fi->checkDomain.assign(nFns, 0);
    for (std::size_t f = 0; f < nFns; ++f) {
        const std::string &rel =
            project.files[decls.functions[f].fileIndex]->relPath;
        fi->checkDomain[f] =
            rel.find("src/check/") != std::string::npos;
    }

    // Resolved call-graph successors.
    std::vector<std::vector<std::size_t>> succs(nFns);
    for (std::size_t f = 0; f < nFns; ++f) {
        for (const CallSite &cs : fi->fn[f].calls) {
            const std::size_t c = fi->resolve(project, f, cs);
            if (c < nFns)
                succs[f].push_back(c);
        }
        std::sort(succs[f].begin(), succs[f].end());
        succs[f].erase(std::unique(succs[f].begin(), succs[f].end()),
                       succs[f].end());
    }

    // SCC fixpoint, callees first; within an SCC iterate to stability.
    Tarjan tarjan(succs);
    for (const std::vector<std::size_t> &scc : tarjan.sccs) {
        bool changed = true;
        while (changed) {
            changed = false;
            for (const std::size_t f : scc) {
                const FnSummary &s = fi->fn[f];
                const std::string &file =
                    project.files[decls.functions[f].fileIndex]
                        ->relPath;
                TaintEval ev(project, *fi, f);

                // Return taint.
                TaintEval::Result r = ev.eval(s.returnTaint);
                if (r.indep && !fi->retIndep[f]) {
                    fi->retIndep[f] = 1;
                    fi->retSteps[f] = r.steps;
                    changed = true;
                }
                if ((fi->retParams[f] | r.params) !=
                    fi->retParams[f]) {
                    fi->retParams[f] |= r.params;
                    changed = true;
                }

                // Impurity (check-domain functions mutate by design).
                if (!fi->impure[f] && !fi->checkDomain[f]) {
                    std::vector<FlowStep> steps;
                    if (s.stateWriteLine >= 0) {
                        pushStep(steps, file, s.stateWriteLine,
                                 s.stateWriteDesc);
                    } else {
                        for (const StatWriteInfo &w : s.statWrites) {
                            if (w.checkPrefixed)
                                continue;
                            pushStep(steps, file, w.line,
                                     "writes stat '" + w.key + "'");
                            break;
                        }
                    }
                    if (steps.empty()) {
                        for (const CallSite &cs : s.calls) {
                            const std::size_t c =
                                fi->resolve(project, f, cs);
                            if (c >= nFns || fi->checkDomain[c] ||
                                !fi->impure[c])
                                continue;
                            pushStep(steps, file, cs.line,
                                     "calls '" + cs.name + "'");
                            for (const FlowStep &st :
                                 fi->impureSteps[c])
                                pushStep(steps, st.file, st.line,
                                         st.note);
                            break;
                        }
                    }
                    if (!steps.empty()) {
                        fi->impure[f] = 1;
                        fi->impureSteps[f] = std::move(steps);
                        changed = true;
                    }
                }

                // Parameters reaching a sink.
                for (const FnSummary::Sink &snk : s.sinks) {
                    TaintEval::Result sr = ev.eval(snk.value);
                    for (unsigned p = 0; p < kMaxParams; ++p) {
                        if (!(sr.params & (1u << p)) ||
                            (fi->sinkParams[f] & (1u << p)))
                            continue;
                        fi->sinkParams[f] |= 1u << p;
                        std::vector<FlowStep> steps;
                        pushStep(steps, file, snk.line,
                                 "parameter reaches " + snk.desc);
                        fi->sinkParamSteps[f][p] = std::move(steps);
                        changed = true;
                    }
                }
                for (std::size_t k = 0; k < s.calls.size(); ++k) {
                    const CallSite &cs = s.calls[k];
                    const std::size_t c = fi->resolve(project, f, cs);
                    if (c >= nFns || fi->sinkParams[c] == 0)
                        continue;
                    for (unsigned j = 0;
                         j < kMaxParams && j < cs.args.size(); ++j) {
                        if (!(fi->sinkParams[c] & (1u << j)))
                            continue;
                        TaintEval::Result ar = ev.eval(cs.args[j]);
                        for (unsigned p = 0; p < kMaxParams; ++p) {
                            if (!(ar.params & (1u << p)) ||
                                (fi->sinkParams[f] & (1u << p)))
                                continue;
                            fi->sinkParams[f] |= 1u << p;
                            std::vector<FlowStep> steps;
                            pushStep(steps, file, cs.line,
                                     "passed as argument " +
                                         std::to_string(j + 1) +
                                         " to '" + cs.name + "'");
                            const auto it =
                                fi->sinkParamSteps[c].find(j);
                            if (it != fi->sinkParamSteps[c].end())
                                for (const FlowStep &st : it->second)
                                    pushStep(steps, st.file, st.line,
                                             st.note);
                            fi->sinkParamSteps[f][p] =
                                std::move(steps);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    project.flow = std::move(fi);
}

} // namespace spburst::lint
