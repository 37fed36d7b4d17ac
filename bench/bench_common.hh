/**
 * @file
 * Shared infrastructure for the figure-reproduction harnesses: command
 * line options, a memoizing simulation runner, the strategy variants
 * the paper compares, and table-building helpers.
 *
 * Every bench binary regenerates one table or figure of the paper; the
 * default instruction budgets are sized so the whole bench/ directory
 * completes in minutes on one core. Pass --uops=N to change fidelity,
 * --quick for a fast smoke run.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "exp/engine.hh"
#include "sim/system.hh"

namespace spburst::bench
{

/** One store-prefetch strategy variant from the paper's evaluation. */
struct Strategy
{
    const char *label;
    StorePrefetchPolicy policy;
    bool spb;
    bool ideal;
};

inline constexpr Strategy kNone{"none", StorePrefetchPolicy::None, false,
                                false};
inline constexpr Strategy kAtExecute{
    "at-execute", StorePrefetchPolicy::AtExecute, false, false};
inline constexpr Strategy kAtCommit{
    "at-commit", StorePrefetchPolicy::AtCommit, false, false};
inline constexpr Strategy kSpb{"SPB", StorePrefetchPolicy::AtCommit, true,
                               false};
inline constexpr Strategy kIdeal{"ideal", StorePrefetchPolicy::AtCommit,
                                 false, true};

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    /** Template of every config a figure runs; --uops, --seed and
     *  --sample (rows of the option table, src/exp) write it. */
    SystemConfig base;
    /** Workloads named with --trace=FILE (repeatable); figures that
     *  honour it run on these instead of their synthetic suite. */
    std::vector<std::string> workloads;
    unsigned jobs = 0;            //!< host threads for prewarm (0=auto)
    bool progress = false;        //!< live progress line on stderr

    /** Parse the bench command line (--help lists it); unknown flags
     *  and malformed values are fatal. */
    static BenchOptions parse(int argc, char **argv,
                              std::uint64_t default_uops = 120'000);

    /** base running @p workload at SB size @p sb_size under
     *  @p strategy. */
    SystemConfig config(const std::string &workload, unsigned sb_size,
                        const Strategy &strategy) const;
};

/** The three real strategies (paper Fig. 5 x-axis). */
inline const std::vector<Strategy> kRealStrategies{kAtExecute, kAtCommit,
                                                   kSpb};

/** The SB sizes the paper evaluates. */
inline const std::vector<unsigned> kSbSizes{14, 28, 56};

/**
 * Memoizing simulation runner (many figures share configurations).
 *
 * Figures declare their full (workload × config) grid up front with
 * prewarm()/prewarmGrid(); the grid runs on the exp engine's host
 * thread pool and fills the memo cache, so the table-building loops
 * below hit the cache only. Results are bit-identical to serial
 * execution for any --jobs value.
 */
class Runner
{
  public:
    explicit Runner(const BenchOptions &options) : options_(options) {}

    /** Build a config for (workload, SB size, strategy) and run it. */
    const SimResult &run(const std::string &workload, unsigned sb_size,
                         const Strategy &strategy);

    /** Run an arbitrary config (memoized on its key). */
    const SimResult &run(SystemConfig cfg);

    /** Run every not-yet-cached config in parallel (--jobs threads)
     *  and memoize the results. */
    void prewarm(const std::vector<SystemConfig> &configs);

    /** prewarm() of the standard grid workloads × sizes × strategies;
     *  when @p ideal_baseline also (workload, SB56, ideal), the
     *  normalisation denominator nearly every figure shares. */
    void prewarmGrid(const std::vector<std::string> &workloads,
                     const std::vector<unsigned> &sb_sizes,
                     const std::vector<Strategy> &strategies,
                     bool ideal_baseline = true);

    const BenchOptions &options() const { return options_; }

    /** Number of distinct simulations executed. */
    std::size_t executed() const { return cache_.size(); }

  private:
    BenchOptions options_;
    std::map<std::string, SimResult> cache_;
};

/** Workload lists (paper ordering: SB-bound first). */
std::vector<std::string> suiteAll();
std::vector<std::string> suiteSbBound();

/**
 * Geomean of per-workload values; values below come from a callable
 * mapping workload name -> double.
 */
template <typename F>
double
geomeanOver(const std::vector<std::string> &workloads, F &&value)
{
    std::vector<double> v;
    v.reserve(workloads.size());
    for (const auto &w : workloads)
        v.push_back(value(w));
    return geomean(v);
}

/** Print the standard bench header (paper figure id + what it shows). */
void printHeader(const std::string &figure, const std::string &what,
                 const BenchOptions &options);

} // namespace spburst::bench
