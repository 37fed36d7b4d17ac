/**
 * @file
 * Declarative experiment descriptions.
 *
 * An ExperimentSpec is a grid: a list of workloads crossed with any
 * number of configuration axes (SB sizes, policies, window lengths,
 * prefetchers, core presets, ...). expand() materialises the Cartesian
 * product into independent Jobs, each carrying a fully resolved
 * SystemConfig and a unique, schedule-independent key. Everything a
 * job will compute is fixed at expansion time — a seed is one more
 * axis, never derived from which host thread happens to run a job —
 * so results are bit-identical regardless of thread count or schedule.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/system.hh"

namespace spburst::exp
{

/**
 * Unique identity of a configuration: every field that affects the
 * simulation outcome, rendered into a short stable string. Used as the
 * job key, the memoization key and the JSONL "job" field.
 */
std::string configKey(const SystemConfig &cfg);

/** One independent unit of work: a keyed, fully resolved config. */
struct Job
{
    std::string key;     //!< unique within the experiment
    SystemConfig config;
};

/** One configuration axis: a row of the option table (options.hh)
 *  and the values it takes; its values multiply the grid. */
struct Axis
{
    std::string name;
    std::vector<std::string> values;
};

/** A declarative sweep: workloads × axis1 × axis2 × ... */
struct ExperimentSpec
{
    std::string name = "sweep";
    /** Template every job starts from. */
    SystemConfig base;
    /** First (mandatory) axis; at least one workload. */
    std::vector<std::string> workloads;
    /** Further axes, applied left to right. */
    std::vector<Axis> axes;

    /**
     * Materialise the grid, workloads outermost, later axes innermost.
     * Fatal if the expansion contains duplicate keys (two variants
     * that resolve to the same configuration).
     */
    std::vector<Job> expand() const;
};

} // namespace spburst::exp
