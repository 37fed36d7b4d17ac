#include "exp/engine.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <unistd.h>
#include <unordered_map>

#include "check/check.hh"
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

/**
 * Append-only, mutex-guarded JSONL sink with per-line flush. A worker
 * must not exit the process, so the first write error is only kept;
 * check() makes it fatal once the pool has drained.
 */
class JsonlSink
{
  public:
    JsonlSink(const std::string &path, bool append) : path_(path)
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
        const bool ok =
            std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
            std::fputc('\n', file_) != EOF &&
            std::fflush(file_) == 0; // the checkpoint: a kill loses nothing
        if (!ok && writeErrno_ == 0)
            writeErrno_ = errno != 0 ? errno : EIO;
    }

    /** Fatal if any write failed; call with no writer left running. */
    void
    check() const
    {
        if (writeErrno_ != 0)
            SPB_FATAL("cannot write result sink '%s': %s", path_.c_str(),
                      std::strerror(writeErrno_));
    }

  private:
    const std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
    int writeErrno_ = 0; //!< errno of the first failed write
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

/** Run one job; throws on timeout, fatal, livelock or a violated
 *  invariant. */
SimResult
attemptJob(const SystemConfig &config, double timeout_seconds)
{
    // Fatal configuration errors and simcheck violations become
    // catchable exceptions on this thread only, so one bad grid point
    // cannot kill the sweep.
    FatalThrowGuard fatal_guard;
    check::ThrowGuard check_guard;
    System system(config);
    if (timeout_seconds <= 0.0)
        return system.run();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_seconds));
    return system.run([deadline] { return Clock::now() >= deadline; });
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
    JsonlSink sink(options.jsonlPath, options.resume);
    ProgressLine progress(options.progress, jobs.size(),
                          jobs.size() - pending.size());

    parallelFor(options.hostThreads, pending.size(),
                [&](std::size_t p) {
        const Job &job = jobs[pending[p]];
        JobOutcome &out = report.outcomes[pending[p]];
        const auto job_start = Clock::now();
        try {
            out.result = attemptJob(job.config, options.timeoutSeconds);
            out.stats = out.result.toStatSet();
            out.status = JobStatus::Completed;
        } catch (const SimInterrupted &e) {
            out.error = std::string("timeout: ") + e.what();
        } catch (const FatalError &e) {
            out.error = std::string("fatal: ") + e.what();
        } catch (const check::CheckViolation &e) {
            out.error = std::string("check: ") + e.what();
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        out.wallSeconds = secondsSince(job_start);
        if (out.status == JobStatus::Completed)
            sink.write(toJsonLine(job.key, out.result));
        progress.jobFinished(out.status == JobStatus::Failed);
    });

    progress.finish();
    sink.check();
    report.wallSeconds = secondsSince(start);
    return report;
}

} // namespace spburst::exp
