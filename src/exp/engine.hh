/**
 * @file
 * The experiment engine: runs a set of independent simulation Jobs on
 * a pool of host threads.
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
 *  - Robustness: a per-job wall-clock timeout interrupts runaway
 *    configurations. A timeout, a fatal config error, the cycle-limit
 *    livelock guard and a violated simcheck invariant each fail their
 *    job at once; the failure is reported in the outcome instead of
 *    killing the process. Only completed jobs reach the sink, so a
 *    resumed run re-runs every failed one. A write to the sink that
 *    fails is fatal once the running jobs have finished.
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
    Failed,    //!< did not complete; error says why
};

/** Everything the engine knows about one finished job. */
struct JobOutcome
{
    std::string key;
    JobStatus status = JobStatus::Failed;
    SimResult result;   //!< valid only when status == Completed
    StatSet stats;      //!< flat stats; valid unless status == Failed
    std::string error;  //!< failure reason (Failed only)
    double wallSeconds = 0.0;
};

/** Engine knobs. */
struct EngineOptions
{
    /** Host threads; 0 = all hardware threads, 1 = run inline. */
    unsigned hostThreads = 0;
    /** JSONL checkpoint/result file; empty = no sink. */
    std::string jsonlPath;
    /** Skip jobs already present in the sink (implies append mode). */
    bool resume = false;
    /** Per-job wall-clock timeout in seconds; 0 = none. */
    double timeoutSeconds = 0.0;
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
