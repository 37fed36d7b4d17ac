/**
 * @file
 * Host-thread pool for coarse-grained simulation jobs.
 *
 * The unit of work is an index into a fixed job set. Workers take the
 * next index from one shared atomic counter until it passes the end.
 * Jobs are milliseconds-to-minutes of simulation, so taking them in
 * order is all the scheduling they need — the counter's cost is noise
 * next to one cache miss model step.
 */

#pragma once

#include <cstddef>
#include <functional>

namespace spburst::exp
{

/** Number of usable hardware threads (never 0). */
unsigned hostConcurrency();

/**
 * Run @p body(i) for every i in [0, count) on @p threads host threads.
 *
 * threads == 0 means hostConcurrency(); threads == 1 runs inline on the
 * calling thread (no pool, deterministic call order — handy under a
 * debugger). The first exception thrown by @p body is rethrown on the
 * caller after all workers have drained; later ones are dropped.
 */
void parallelFor(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)> &body);

} // namespace spburst::exp
