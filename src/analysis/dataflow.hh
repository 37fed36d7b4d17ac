/**
 * @file
 * Interprocedural dataflow layer for spburst-lint.
 *
 * Per-function *local summaries* are extracted from each file
 * independently (CFG walk, taint lattice, call-site / stat-write /
 * sink collection) and are therefore cacheable per file, keyed by
 * content hash. Everything interprocedural — call resolution, the SCC
 * fixpoint, the propagated facts the flow rules read — is recomputed
 * from the local summaries on every run, which is exactly the
 * "invalidate transitively along call-graph edges" semantics: a change
 * to a callee's file changes its local summary, and the fixpoint
 * carries the new facts to every (possibly cache-hit) caller.
 *
 * The taint lattice per tracked value is the join-semilattice
 *   (direct, params, calls)
 * where `direct` means a host-nondeterministic source reaches the
 * value, `params` is the bitmask of function parameters that reach it,
 * and `calls` is the set of call sites whose return value reaches it.
 * Call elements stay symbolic in the local summary and are discharged
 * by the fixpoint evaluator once callee facts are known. A bounded
 * FlowStep chain witnesses the `direct` component for SARIF codeFlows.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace spburst::lint
{

/** Join-semilattice element tracking how a value became tainted. */
struct TaintSet
{
    bool direct = false;       //!< a host source reaches the value
    std::uint32_t params = 0;  //!< parameter bitmask (params 0..31)
    std::vector<std::uint16_t> calls; //!< call-site ordinals, sorted
    std::vector<FlowStep> steps;      //!< witness for @c direct

    bool
    empty() const
    {
        return !direct && params == 0 && calls.empty();
    }
    /** Join; returns true when the semantic part (not steps) grew. */
    bool merge(const TaintSet &other);

    /** Semantic equality (steps are witnesses, not facts). */
    friend bool
    operator==(const TaintSet &a, const TaintSet &b)
    {
        return a.direct == b.direct && a.params == b.params &&
               a.calls == b.calls;
    }
    friend bool
    operator!=(const TaintSet &a, const TaintSet &b)
    {
        return !(a == b);
    }
};

/** One call site inside a function body, receiver left symbolic so the
 *  summary stays file-local (resolution happens at fixpoint time). */
struct CallSite
{
    std::string name;      //!< callee bare name
    std::string recv;      //!< receiver variable ("" none, "this")
    std::string recvClass; //!< explicit `Cls::name(...)` qualifier
    int line = 0;
    std::vector<TaintSet> args; //!< taint of each argument expression
};

/** One stat write: `stats_.member` increments or StatSet literal keys. */
struct StatWriteInfo
{
    std::string key;     //!< member name, or the StatSet key literal
    bool statSetKey = false;
    int line = 0;
    bool exempt = false;       //!< `ff-exempt` annotation on the line
    bool checkPrefixed = false; //!< StatSet key starting "check."
};

/** The cacheable per-function summary. */
struct FnSummary
{
    std::vector<CallSite> calls;
    std::vector<StatWriteInfo> statWrites;
    int stateWriteLine = -1;   //!< first direct member-state write
    std::string stateWriteDesc;
    TaintSet returnTaint;

    struct Sink
    {
        int kind = 0; //!< 0 StatSet value, 1 configKey arg, 2 JSONL arg
        int line = 0;
        int col = 0;
        std::string desc;
        TaintSet value;
    };
    std::vector<Sink> sinks;
};

/** One cached per-file entry: summary-format version and effective
 *  hash are checked by the loader; @c blob is the serialized form. */
struct SummaryCacheEntry
{
    std::string hash;
    std::string blob;
};
/** relPath -> entry. */
using SummaryCache = std::map<std::string, SummaryCacheEntry>;

/** Bump when the summary format or extraction semantics change: a
 *  stale blob must deserialize as a miss. */
inline constexpr int kSummaryVersion = 2;

/** Dataflow knowledge attached to the Project. Vectors indexed like
 *  DeclIndex::functions unless noted. */
struct FlowIndex
{
    std::vector<FnSummary> fn;

    // --- resolution ---------------------------------------------------
    /** "Cls::name" -> function index, for unambiguous method bodies. */
    std::map<std::string, std::size_t> byQualified;
    /** Per file stem: variable name -> class, for receiver resolution
     *  (covers members declared in the .hh of a .cc/.hh pair). */
    std::map<std::string, std::map<std::string, std::string>>
        varClassByStem;

    // --- propagated facts (SCC fixpoint) ------------------------------
    std::vector<char> retIndep; //!< returns a host-tainted value
    std::vector<std::uint32_t> retParams; //!< params reaching return
    std::vector<std::vector<FlowStep>> retSteps;
    /** Transitively writes member state or a non-check.* stat,
     *  check-domain (src/check/) callees excluded. */
    std::vector<char> impure;
    std::vector<std::vector<FlowStep>> impureSteps;
    /** Params that transitively reach a taint sink. */
    std::vector<std::uint32_t> sinkParams;
    std::vector<std::map<unsigned, std::vector<FlowStep>>> sinkParamSteps;
    /** Defining file lives under src/check/: mutation is its job. */
    std::vector<char> checkDomain;

    /** How many per-file summaries were reused from the cache. */
    std::size_t summariesReused = 0;
    std::size_t summariesTotal = 0;

    /** Resolve a (possibly receiver-qualified) call from @p callerIdx
     *  to a function index, or functions.size() when ambiguous or
     *  external. Deterministic: unique body, else `recvClass::name`,
     *  else declared receiver class, else the single candidate sharing
     *  the caller's stem or class (the propagateHot convention). */
    std::size_t resolve(const Project &project, std::size_t callerIdx,
                        const CallSite &cs) const;
};

/** Discharges symbolic TaintSets against the fixpoint facts. Cheap to
 *  construct; make one per function. Takes the FlowIndex explicitly so
 *  the fixpoint can evaluate against the index it is still building. */
class TaintEval
{
  public:
    TaintEval(const Project &project, const FlowIndex &flow,
              std::size_t fnIdx)
        : project_(project), flow_(&flow), fnIdx_(fnIdx)
    {
    }

    struct Result
    {
        bool indep = false;        //!< tainted regardless of params
        std::uint32_t params = 0;  //!< tainted iff these params are
        std::vector<FlowStep> steps;
    };

    Result eval(const TaintSet &ts);

  private:
    Result evalCall(std::uint16_t ordinal);

    const Project &project_;
    const FlowIndex *flow_;
    std::size_t fnIdx_;
    std::vector<std::uint16_t> visiting_;
};

/** Build Project::flow: local summaries (cache-assisted when
 *  @p cache is non-null) plus the propagated facts. @p jobs follows
 *  the engine convention (0 = hardware, 1 = serial); the result is
 *  byte-identical at any setting. On return @p fresh (when non-null)
 *  holds the serialized summaries of every analyzed file, ready to be
 *  persisted — files absent from this run are pruned by construction.
 */
void buildFlowIndex(Project &project, const SummaryCache *cache,
                    unsigned jobs, SummaryCache *fresh);

/** Serialize / parse one file's function summaries (blob format is
 *  internal to the cache; versioned via kSummaryVersion). */
std::string serializeSummaries(const std::vector<FnSummary> &fns);
bool deserializeSummaries(const std::string &blob,
                          std::vector<FnSummary> &fns);

/** Append a step, dropping on overflow (witnesses stay bounded). */
void pushStep(std::vector<FlowStep> &steps, const std::string &file,
              int line, std::string note);

} // namespace spburst::lint
