/**
 * @file
 * Lightweight statistics support.
 *
 * Hot-path counters are plain integer members of per-module stat structs
 * (no virtual dispatch on increment). This header provides the glue that
 * turns those structs into reportable name/value collections, plus the
 * aggregation helpers used by the benchmark harnesses (geometric mean,
 * mean, ratios).
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace spburst
{

/**
 * Stable handle to one StatSet entry, produced by StatSet::intern().
 *
 * Hot paths that update a statistic repeatedly should intern the name
 * once (outside the loop / at construction) and use the handle
 * overloads: handle access is a vector index, with no map lookup and
 * no string hashing per update. spburst-lint's `stat-hot-path` rule
 * flags string-keyed accessors inside `hot`-annotated functions.
 */
class StatHandle
{
  public:
    StatHandle() = default;

    bool valid() const { return index_ != kInvalid; }

  private:
    friend class StatSet;
    explicit StatHandle(std::size_t index) : index_(index) {}

    static constexpr std::size_t kInvalid = ~std::size_t{0};
    std::size_t index_ = kInvalid;
};

/** An ordered collection of named scalar statistics. */
class StatSet
{
  public:
    /** Add (or overwrite) a named value. */
    void set(std::string_view name, double value);

    /** Look up a value; fatal if absent. */
    double get(std::string_view name) const;

    /** True if a value with this name has been recorded. */
    bool has(std::string_view name) const;

    /** Increment a named value (creating it at 0 first if absent). */
    void add(std::string_view name, double delta);

    /**
     * Intern @p name: ensure an entry exists (initialised to 0.0 when
     * new) and return a handle for O(1) string-free access to it. The
     * handle stays valid for the lifetime of this StatSet.
     */
    StatHandle intern(std::string_view name);

    /** Overwrite the entry behind @p handle. */
    void set(StatHandle handle, double value);

    /** Read the entry behind @p handle. */
    double get(StatHandle handle) const;

    /** Increment the entry behind @p handle. */
    void add(StatHandle handle, double delta);

    /** Name of the entry behind @p handle (reporting/debugging). */
    const std::string &name(StatHandle handle) const;

    /** All entries in insertion order. */
    const std::vector<std::pair<std::string, double>> &entries() const
    {
        return entries_;
    }

    /** Merge another set under a prefix ("l1d." etc.). */
    void merge(const std::string &prefix, const StatSet &other);

    /** Render as "name = value" lines. */
    std::string toString() const;

  private:
    std::vector<std::pair<std::string, double>> entries_;
    /** Transparent comparator: lookups take string_view, no temporary
     *  std::string per get()/has() in report assembly. */
    std::map<std::string, std::size_t, std::less<>> index_;
};

/** Geometric mean of a vector of positive values (1.0 for empty input). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (0.0 for empty input). */
double mean(const std::vector<double> &values);

/** Safe ratio: returns @p ifZero when the denominator is zero. */
double ratio(double num, double den, double ifZero = 0.0);

} // namespace spburst
