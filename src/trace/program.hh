/**
 * @file
 * Composite workload programs.
 *
 * A WorkloadProgram is an endless TraceSource assembled from weighted
 * segment factories: when the current segment is exhausted, the next
 * one is chosen by weighted random selection (deterministic under the
 * program's seed). Workload profiles (trace/workloads.hh) are thin
 * parameterisations of this class.
 */

#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "trace/segments.hh"
#include "trace/source.hh"

namespace spburst
{

/** Endless stream of uops produced by weighted random segment mixing. */
class WorkloadProgram : public TraceSource
{
  public:
    /** Builds a new (finite) segment each time the previous one ends. */
    using Factory = std::function<AnySegment(Rng &)>;

    /** @param name Diagnostic name. @param seed Determinism seed. */
    WorkloadProgram(std::string name, std::uint64_t seed);

    /** Register a segment factory with relative selection weight. */
    void addPhase(Factory factory, double weight);

    MicroOp next() override;
    const std::string &name() const override { return name_; }

  private:
    void pickSegment();

    std::string name_;
    Rng rng_;
    std::vector<std::pair<Factory, double>> phases_;
    double totalWeight_ = 0.0;
    /** Held by value, so picking a segment allocates nothing. */
    AnySegment current_;
};

} // namespace spburst
