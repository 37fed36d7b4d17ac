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
