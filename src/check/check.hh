/**
 * @file
 * simcheck — the always-on microarchitectural invariant checker.
 *
 * Production simulators earn trust in their numbers by validating the
 * model on every run (gem5's panic/assert discipline, protocol checkers
 * in coherence work). This header is the core of that layer for
 * spburst: a cheap runtime-levelled check macro family, per-domain
 * violation registries surfaced in sim::report, and a test hook that
 * turns violations into catchable exceptions.
 *
 * Levels:
 *  - off:  checks compile in but cost one predictable branch each.
 *  - fast: O(1) invariants on the pipeline/memory hot paths (default).
 *  - full: adds the expensive redundant oracles — shadow-memory
 *          forwarding cross-checks, SWMR coherence audits, end-of-run
 *          drain audits (MSHR leaks).
 *
 * Counters are thread-local: the experiment engine runs one job per
 * host thread, so a System's counters are private to its run and the
 * per-run deltas exported into SimResult are exact even under --jobs=N.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"

namespace spburst::check
{

/** Checking effort level (the --check=off|fast|full knob). */
enum class Level : std::uint8_t
{
    Off = 0,  //!< checks disabled (single branch per site)
    Fast = 1, //!< O(1) invariants only
    Full = 2, //!< + redundant oracles and audits
};

/** Component domain a check belongs to (the per-component registry). */
enum class Domain : std::uint8_t
{
    StoreBuffer, //!< SB allocation / senior / drain-order invariants
    Pipeline,    //!< ROB commit order, wrong-path containment
    Forwarding,  //!< store-to-load forwarding vs. the shadow oracle
    Coherence,   //!< SWMR / directory-state audits
    Mshr,        //!< MSHR leaks, drain-time residue
    Spb,         //!< burst page-bound invariants
};

/** Number of Domain values. */
inline constexpr int kNumDomains = 6;

/** Human-readable domain name ("sb", "pipeline", ...). */
const char *domainName(Domain d);

/** Thrown instead of aborting when a check fails under a ThrowGuard. */
class CheckViolation : public std::runtime_error
{
  public:
    CheckViolation(Domain d, const std::string &msg)
        : std::runtime_error(msg), domain(d)
    {
    }

    Domain domain;
};

/**
 * RAII scope turning check violations into CheckViolation throws on the
 * current thread instead of aborting the process. The experiment engine
 * holds one around every job, so a violation fails that job alone; the
 * mutation tests use one to assert that a seeded bug is reported.
 */
class ThrowGuard
{
  public:
    ThrowGuard();
    ~ThrowGuard();
    ThrowGuard(const ThrowGuard &) = delete;
    ThrowGuard &operator=(const ThrowGuard &) = delete;
};

/** Per-domain evaluation / violation counters (one set per thread). */
struct Counters
{
    std::uint64_t evaluated[kNumDomains] = {};  //!< full mode only
    std::uint64_t violations[kNumDomains] = {};

    std::uint64_t totalViolations() const;
    std::uint64_t totalEvaluated() const;

    /** Export as "violations", "violations.sb", "evaluated", ... */
    StatSet toStatSet() const;

    /** Per-domain difference (this - since); counters never decrease. */
    Counters delta(const Counters &since) const;
};

namespace detail
{

extern std::atomic<Level> gLevel;
// constinit: static TLS initialization, so cross-TU access compiles to
// a direct slot load instead of an init-wrapper call (which UBSan
// flags as a null reference before the defining TU runs its init).
extern thread_local constinit Counters tCounters;
extern thread_local constinit int tThrowDepth;

/** Count a violation, then abort — or throw under a ThrowGuard. */
[[noreturn]] void failImpl(Domain d, const char *expr, const char *file,
                           int line, const std::string &msg);

} // namespace detail

/** Current checking level. */
inline Level
level()
{
    return detail::gLevel.load(std::memory_order_relaxed);
}

/** True if any checking is active (fast or full). */
inline bool
enabled()
{
    return level() != Level::Off;
}

/** True if the expensive oracles are active. */
inline bool
full()
{
    return level() == Level::Full;
}

/** Set the process-wide checking level. */
void setLevel(Level l);

/** Name of a level ("off" / "fast" / "full"). */
const char *levelName(Level l);

/** Bookkeeping on a passing check (counts evaluations in full mode). */
inline void
note(Domain d)
{
    if (full())
        ++detail::tCounters.evaluated[static_cast<int>(d)];
}

/** This thread's counters since thread start (or last reset). */
inline const Counters &
counters()
{
    return detail::tCounters;
}

/** Reset this thread's counters to zero. */
void resetCounters();

} // namespace spburst::check

/**
 * Fast-tier invariant: active at --check=fast and above. @p domain is a
 * bare check::Domain enumerator (StoreBuffer, Pipeline, ...). On
 * failure: counts the violation, then panics (or throws CheckViolation
 * under a check::ThrowGuard).
 */
#define SPBURST_CHECK(domain, cond, ...)                                    \
    do {                                                                    \
        if (::spburst::check::enabled()) {                                  \
            ::spburst::check::note(::spburst::check::Domain::domain);       \
            if (!(cond)) {                                                  \
                ::spburst::check::detail::failImpl(                         \
                    ::spburst::check::Domain::domain, #cond, __FILE__,      \
                    __LINE__, ::spburst::detail::format(__VA_ARGS__));      \
            }                                                               \
        }                                                                   \
    } while (0)

/** Full-tier invariant: active only at --check=full. */
#define SPBURST_CHECK_SLOW(domain, cond, ...)                               \
    do {                                                                    \
        if (::spburst::check::full()) {                                     \
            ::spburst::check::note(::spburst::check::Domain::domain);       \
            if (!(cond)) {                                                  \
                ::spburst::check::detail::failImpl(                         \
                    ::spburst::check::Domain::domain, #cond, __FILE__,      \
                    __LINE__, ::spburst::detail::format(__VA_ARGS__));      \
            }                                                               \
        }                                                                   \
    } while (0)
