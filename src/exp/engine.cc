#include "exp/engine.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

#include "common/logging.hh"
#include "exp/task_pool.hh"

namespace spburst::exp
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * A kill mid-write can leave the sink without a trailing newline; an
 * append would then glue the next record onto the torn line, corrupting
 * it. Drop everything after the last newline before appending.
 */
void
repairTornTail(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    if (!file)
        return;
    long keep = 0;
    char buf[65536];
    long pos = 0;
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
        for (std::size_t i = 0; i < n; ++i)
            if (buf[i] == '\n')
                keep = pos + static_cast<long>(i) + 1;
        pos += static_cast<long>(n);
    }
    if (keep < pos) {
        std::fflush(file);
        if (ftruncate(fileno(file), keep) != 0)
            SPB_FATAL("cannot repair result sink '%s'", path.c_str());
    }
    std::fclose(file);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Append-only, mutex-guarded JSONL sink with per-line flush. */
class JsonlSink
{
  public:
    JsonlSink(const std::string &path, bool append)
    {
        if (path.empty())
            return;
        file_ = std::fopen(path.c_str(), append ? "a" : "w");
        if (!file_)
            SPB_FATAL("cannot open result sink '%s'", path.c_str());
    }

    ~JsonlSink()
    {
        if (file_)
            std::fclose(file_);
    }

    void
    write(const std::string &line)
    {
        if (!file_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fputc('\n', file_);
        std::fflush(file_); // the checkpoint: a kill loses nothing
    }

  private:
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

/** Serialised live progress/ETA line on stderr. */
class ProgressLine
{
  public:
    ProgressLine(bool enabled, std::size_t total, std::size_t resumed)
        : enabled_(enabled), total_(total), start_(Clock::now())
    {
        done_ = resumed;
    }

    void
    jobFinished(bool failed)
    {
        if (failed)
            ++failed_;
        const std::size_t done = ++done_;
        if (!enabled_)
            return;
        const double elapsed = secondsSince(start_);
        const double rate =
            done > 0 ? static_cast<double>(done) / elapsed : 0.0;
        const double eta =
            rate > 0.0
                ? static_cast<double>(total_ - done) / rate
                : 0.0;
        std::lock_guard<std::mutex> lock(mutex_);
        std::fprintf(stderr,
                     "\r[%zu/%zu] failed=%zu elapsed=%.1fs eta=%.1fs ",
                     done, total_, failed_.load(), elapsed, eta);
        std::fflush(stderr);
    }

    void
    finish()
    {
        if (enabled_ && total_ > 0)
            std::fputc('\n', stderr);
    }

  private:
    const bool enabled_;
    const std::size_t total_;
    const Clock::time_point start_;
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> failed_{0};
    std::mutex mutex_;
};

/** One attempt at one job; throws on timeout / fatal / livelock. */
SimResult
attemptJob(const SystemConfig &config, double timeout_seconds)
{
    // Fatal configuration errors become catchable FatalError on this
    // thread only, so one bad grid point cannot kill the sweep.
    FatalThrowGuard guard;
    System system(config);
    if (timeout_seconds <= 0.0)
        return system.run();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_seconds));
    return system.run([deadline] { return Clock::now() >= deadline; });
}

std::string
shardPath(const std::string &base, unsigned shard)
{
    return base + ".shard" + std::to_string(shard);
}

/**
 * Fork one child per shard, deal the pending jobs round-robin (in job
 * order, so the assignment is independent of any host schedule), merge
 * the children's private JSONL files into the parent sink verbatim,
 * and reconstruct the outcomes from the merged records.
 */
void
runSharded(const std::vector<Job> &jobs,
           const std::vector<std::size_t> &pending,
           const EngineOptions &options, ExperimentReport &report)
{
    const unsigned shards = static_cast<unsigned>(
        std::min<std::size_t>(options.shards, pending.size()));
    std::string base = options.jsonlPath;
    if (base.empty())
        base = "/tmp/spburst-exp-" + std::to_string(getpid());

    std::vector<pid_t> pids(shards, -1);
    for (unsigned s = 0; s < shards; ++s) {
        const pid_t pid = fork();
        if (pid < 0)
            SPB_FATAL("fork failed for shard %u", s);
        if (pid == 0) {
            // Child: run this shard's slice against a private sink.
            // _exit skips parent-side cleanup; the sink flushes per
            // line, so nothing is buffered when we get here.
            std::vector<Job> slice;
            for (std::size_t p = s; p < pending.size(); p += shards)
                slice.push_back(jobs[pending[p]]);
            EngineOptions child = options;
            child.shards = 1;
            child.resume = false;
            child.jsonlPath = shardPath(base, s);
            child.progress = false;
            const ExperimentReport r = runJobs(slice, child);
            std::fflush(nullptr);
            _exit(r.failed() == 0 ? 0 : 1);
        }
        pids[s] = pid;
    }
    for (unsigned s = 0; s < shards; ++s) {
        int status = 0;
        if (waitpid(pids[s], &status, 0) < 0)
            SPB_FATAL("waitpid failed for shard %u", s);
        // A non-zero exit only means some jobs failed; the per-job
        // detail comes from which records are missing below.
    }

    // Harvest every shard file: parsed stats for the report, raw lines
    // for byte-identical pass-through into the main sink.
    std::unordered_map<std::string, StatSet> stats;
    std::unordered_map<std::string, std::string> lines;
    for (unsigned s = 0; s < shards; ++s) {
        const std::string path = shardPath(base, s);
        std::vector<JsonlRecord> records = parseJsonlFile(path);
        std::vector<std::string> raw;
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            if (!line.empty())
                raw.push_back(std::move(line));
        // parseJsonlFile skips malformed lines, so records and raw can
        // only disagree after a torn write; map conservatively by
        // matching counts.
        if (records.size() == raw.size()) {
            for (std::size_t i = 0; i < records.size(); ++i)
                lines.emplace(records[i].job, std::move(raw[i]));
        }
        for (JsonlRecord &rec : records)
            stats.emplace(std::move(rec.job), std::move(rec.stats));
        std::remove(path.c_str());
    }

    JsonlSink sink(options.jsonlPath, options.resume);
    for (const std::size_t j : pending) {
        JobOutcome &out = report.outcomes[j];
        const auto it = stats.find(out.key);
        if (it == stats.end()) {
            out.status = JobStatus::Failed;
            out.error = "shard produced no result (child failed)";
            continue;
        }
        out.status = JobStatus::Completed;
        out.stats = std::move(it->second);
        out.attempts = 1;
        const auto line = lines.find(out.key);
        if (line != lines.end())
            sink.write(line->second);
    }
}

} // namespace

const JobOutcome *
ExperimentReport::find(const std::string &key) const
{
    for (const auto &o : outcomes)
        if (o.key == key)
            return &o;
    return nullptr;
}

std::size_t
ExperimentReport::countStatus(JobStatus s) const
{
    std::size_t n = 0;
    for (const auto &o : outcomes)
        n += o.status == s ? 1 : 0;
    return n;
}

ExperimentReport
runJobs(const std::vector<Job> &jobs, const EngineOptions &options)
{
    {
        std::set<std::string> keys;
        for (const auto &job : jobs)
            if (!keys.insert(job.key).second)
                SPB_FATAL("duplicate job key '%s'", job.key.c_str());
    }
    const unsigned max_attempts =
        options.maxAttempts == 0 ? 1 : options.maxAttempts;

    ExperimentReport report;
    report.hostThreads = options.hostThreads == 0 ? hostConcurrency()
                                                  : options.hostThreads;
    report.outcomes.resize(jobs.size());

    // Resume: load the sink and mark already-completed jobs.
    std::unordered_map<std::string, const JsonlRecord *> done;
    std::vector<JsonlRecord> previous;
    if (options.resume && !options.jsonlPath.empty()) {
        repairTornTail(options.jsonlPath);
        previous = parseJsonlFile(options.jsonlPath);
        for (const auto &rec : previous)
            done.emplace(rec.job, &rec);
    }

    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobOutcome &out = report.outcomes[i];
        out.key = jobs[i].key;
        const auto it = done.find(jobs[i].key);
        if (it != done.end()) {
            out.status = JobStatus::Resumed;
            out.stats = it->second->stats;
        } else {
            pending.push_back(i);
        }
    }

    const auto start = Clock::now();
    if (options.shards > 1 && !pending.empty()) {
        runSharded(jobs, pending, options, report);
        report.wallSeconds = secondsSince(start);
        return report;
    }

    JsonlSink sink(options.jsonlPath, options.resume);
    ProgressLine progress(options.progress, jobs.size(),
                          jobs.size() - pending.size());

    parallelFor(options.hostThreads, pending.size(),
                [&](std::size_t p) {
        const Job &job = jobs[pending[p]];
        JobOutcome &out = report.outcomes[pending[p]];
        const auto job_start = Clock::now();
        for (out.attempts = 1;; ++out.attempts) {
            try {
                out.result = attemptJob(job.config,
                                        options.timeoutSeconds);
                out.stats = out.result.toStatSet();
                out.status = JobStatus::Completed;
                out.error.clear();
                break;
            } catch (const SimInterrupted &e) {
                out.error = std::string("timeout: ") + e.what();
                if (out.attempts < max_attempts)
                    continue;
            } catch (const FatalError &e) {
                out.error = std::string("fatal: ") + e.what();
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            out.status = JobStatus::Failed;
            break;
        }
        out.wallSeconds = secondsSince(job_start);
        if (out.status == JobStatus::Completed)
            sink.write(toJsonLine(job.key, out.result));
        progress.jobFinished(out.status == JobStatus::Failed);
    });

    progress.finish();
    report.wallSeconds = secondsSince(start);
    return report;
}

} // namespace spburst::exp
