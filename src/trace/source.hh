/**
 * @file
 * Abstract interface for micro-op streams.
 *
 * A TraceSource is an endless stream of MicroOps feeding one core.
 * Composite workload programs are assembled from finite segments (see
 * trace/segments.hh and trace/program.hh).
 */

#pragma once

#include <string>
#include <vector>

#include "trace/uop.hh"

namespace spburst
{

/** Endless micro-op stream feeding one simulated hardware thread. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next micro-op on the correct execution path. */
    virtual MicroOp next() = 0;

    /** Diagnostic name of the workload. */
    virtual const std::string &name() const = 0;
};

/** TraceSource that replays a fixed vector of uops, then repeats it. */
class VectorSource : public TraceSource
{
  public:
    /** @param uops The sequence to replay. @param loop Repeat forever if
     *  true; emit IntAlu no-ops after exhaustion if false. */
    explicit VectorSource(std::vector<MicroOp> uops, bool loop = true,
                          std::string name = "vector");

    MicroOp next() override;
    const std::string &name() const override { return name_; }

    /** Number of uops handed out so far. */
    std::uint64_t produced() const { return produced_; }

  private:
    std::vector<MicroOp> uops_;
    std::size_t pos_ = 0;
    bool loop_;
    std::string name_;
    std::uint64_t produced_ = 0;
};

} // namespace spburst
