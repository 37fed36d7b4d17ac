/**
 * @file
 * The experiment engine: runs a set of independent simulation Jobs on
 * a work-stealing host-thread pool.
 *
 *  - Determinism: each job's outcome depends only on its SystemConfig
 *    (the simulator has no cross-run state), so results are
 *    bit-identical for any thread count or schedule. Outcomes are
 *    returned in job order; the JSONL sink is append-on-completion, so
 *    its *line order* varies with the schedule — compare sorted.
 *  - Checkpointing: every completed job is flushed to the JSONL sink
 *    immediately; a killed run loses at most jobs in flight.
 *  - Resume: with EngineOptions::resume, jobs whose keys already
 *    appear in the sink are not re-run; their stats are loaded back
 *    and the new completions are appended, so the finished file equals
 *    (as a set of lines) the file an uninterrupted run produces.
 *  - Robustness: a per-attempt wall-clock timeout interrupts runaway
 *    configurations. A timed-out job is retried up to maxAttempts
 *    times, because only a timeout depends on the host; any other
 *    failure (fatal config error, cycle-limit livelock guard) follows
 *    from the config alone and fails the job at once. Either way the
 *    failure is reported in the outcome instead of killing the
 *    process.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "sim/report.hh"
#include "sim/system.hh"

namespace spburst::exp
{

/** How one job ended. */
enum class JobStatus
{
    Completed, //!< ran in this invocation; result + stats valid
    Resumed,   //!< loaded from the sink; stats valid, result is not
    Failed,    //!< every attempt failed; error holds the last reason
};

/** Everything the engine knows about one finished job. */
struct JobOutcome
{
    std::string key;
    JobStatus status = JobStatus::Failed;
    SimResult result;   //!< valid only when status == Completed
    StatSet stats;      //!< flat stats; valid unless status == Failed
    std::string error;  //!< last failure reason (Failed only)
    unsigned attempts = 0;
    double wallSeconds = 0.0;
};

/** Engine knobs. */
struct EngineOptions
{
    /** Host threads; 0 = all hardware threads, 1 = run inline. */
    unsigned hostThreads = 0;
    /**
     * Fork-based process sharding; 1 = run everything in this process.
     * With N > 1 the pending jobs are dealt round-robin (in job order)
     * to N forked children, each running its slice on its own
     * hostThreads pool and checkpointing to a private
     * `<jsonlPath>.shard<k>` file. The parent waits, merges the shard
     * files into jsonlPath verbatim (lines are byte-identical to an
     * unsharded run; order is job order) and deletes them. In the
     * parent's outcomes, `result` is not populated (it lives in the
     * shard process); `stats` is. A job missing from its shard's file
     * (child crash) is reported Failed.
     */
    unsigned shards = 1;
    /** JSONL checkpoint/result file; empty = no sink. */
    std::string jsonlPath;
    /** Skip jobs already present in the sink (implies append mode). */
    bool resume = false;
    /** Per-attempt wall-clock timeout in seconds; 0 = none. */
    double timeoutSeconds = 0.0;
    /** Attempts per timed-out job before reporting Failed (>= 1). */
    unsigned maxAttempts = 1;
    /** Emit a live "[done/total] ... eta" line to stderr. */
    bool progress = false;
};

/** Aggregate of one engine invocation. */
struct ExperimentReport
{
    std::vector<JobOutcome> outcomes; //!< same order as the jobs
    double wallSeconds = 0.0;
    unsigned hostThreads = 0;

    std::size_t completed() const { return countStatus(JobStatus::Completed); }
    std::size_t resumed() const { return countStatus(JobStatus::Resumed); }
    std::size_t failed() const { return countStatus(JobStatus::Failed); }

    /** Outcome by job key; nullptr if unknown. */
    const JobOutcome *find(const std::string &key) const;

  private:
    std::size_t countStatus(JobStatus s) const;
};

/**
 * Run @p jobs (expanded from an ExperimentSpec or hand-built). Job
 * keys must be unique — duplicates are fatal, because resume and
 * memoization both key on them.
 */
ExperimentReport runJobs(const std::vector<Job> &jobs,
                         const EngineOptions &options = {});

} // namespace spburst::exp
