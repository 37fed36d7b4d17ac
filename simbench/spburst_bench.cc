/**
 * @file
 * `spburst_bench` — the simulator's host-throughput benchmark.
 *
 * Drives spburst from outside, through the public API of src/sim,
 * src/exp, src/trace and src/sample, on one host thread. One invocation
 * runs one workload for a fixed host-time budget and prints, as its
 * last stdout line, one JSON object: correctness (attempted/failed
 * jobs) plus either the end-to-end metrics (untraced) or the per-layer
 * split (traced). run.py builds this program, generates its inputs
 * from the seed and wraps the result; README.md documents the metrics.
 *
 *   spburst_bench --workload=sb-bound --seed=1 --seconds=20 --trace=0
 *                 --dir=RUNDIR [--trace-file=T.gz] [--scale=smoke]
 *                 [--golden=FILE] [--alter-job=NAME] [--gen-seconds=S]
 *
 * Workloads: sb-bound (1 core, SB=14, 4 SB-bound profiles x
 * at-commit/at-commit+SPB), parsec-4c (4 cores, dedup and canneal
 * with SPB), trace-sampled (a generated ChampSim trace replayed in
 * sampled mode; the second job replays the first job's checkpoint).
 *
 * A pass runs every job of the workload once through exp::runJobs.
 * Passes repeat until the budget is spent, each on the next CPU the
 * process may use; a time is the fastest repetition of each job. Every
 * job is checked: it must complete, reach its uop target, produce the
 * same sorted-stats digest on every pass and in the traced run, and —
 * at the golden seed — match the golden digest.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/check.hh"
#include "common/logging.hh"
#include "exp/engine.hh"
#include "sample/runtime.hh"
#include "sim/system.hh"
#include "trace/champsim/source.hh"
#include "trace/champsim/trace_cache.hh"
#include "trace/workloads.hh"

using namespace spburst;

namespace
{

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/** Golden digests are recorded at this seed only. */
constexpr std::uint64_t kGoldenSeed = 1;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
divOrZero(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Keep, per job, the fastest time seen so far. */
void
keepFastest(std::vector<double> &best, const std::vector<double> &times)
{
    if (best.empty())
        best = times;
    for (std::size_t j = 0; j < best.size(); ++j)
        best[j] = std::min(best[j], times[j]);
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (const double x : v)
        total += x;
    return total;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 10.0;
    bool traced = false;
    std::string dir;       //!< fresh per-run directory (sink, checkpoint)
    std::string traceFile; //!< generated ChampSim trace (trace-sampled)
    std::string scale = "full";
    std::string golden;    //!< golden digest file ("" = no golden check)
    std::string alterJob;  //!< perturb this job (smoke test of the checks)
    double genSeconds = 0.0; //!< input generation time, measured by run.py
};

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        const char *v = nullptr;
        if ((v = value("--workload=")) != nullptr)
            o.workload = v;
        else if ((v = value("--seed=")) != nullptr)
            o.seed = std::strtoull(v, nullptr, 10);
        else if ((v = value("--seconds=")) != nullptr)
            o.seconds = std::strtod(v, nullptr);
        else if ((v = value("--trace=")) != nullptr)
            o.traced = std::strcmp(v, "1") == 0;
        else if ((v = value("--dir=")) != nullptr)
            o.dir = v;
        else if ((v = value("--trace-file=")) != nullptr)
            o.traceFile = v;
        else if ((v = value("--scale=")) != nullptr)
            o.scale = v;
        else if ((v = value("--golden=")) != nullptr)
            o.golden = v;
        else if ((v = value("--alter-job=")) != nullptr)
            o.alterJob = v;
        else if ((v = value("--gen-seconds=")) != nullptr)
            o.genSeconds = std::strtod(v, nullptr);
        else
            SPB_FATAL("unknown option '%s'", arg.c_str());
    }
    if (o.dir.empty() || !fs::is_directory(o.dir))
        SPB_FATAL("--dir=DIR must name an existing directory");
    if (o.scale != "full" && o.scale != "smoke")
        SPB_FATAL("--scale must be full or smoke (got '%s')",
                  o.scale.c_str());
    return o;
}

// ---------------------------------------------------------------- build

/** Why this build must not report timings, or nullptr if it may. */
const char *
refusal()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif !defined(__OPTIMIZE__)
    return "unoptimised build";
#else
    if (std::strstr(SIMBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
        return "sanitizer flags in the build";
    return nullptr;
#endif
}

#if defined(__clang__)
constexpr const char *kCompiler = "clang";
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc";
#else
constexpr const char *kCompiler = "unknown";
#endif

bool
checksCompiledIn()
{
#ifdef SPBURST_DISABLE_CHECKS
    return false;
#else
    return true;
#endif
}

// ------------------------------------------------------------- workloads

/** One job of a workload: a stable name (golden key) and its config. */
struct BenchJob
{
    std::string name;
    SystemConfig config;
};

struct Workload
{
    std::vector<BenchJob> jobs;
    bool sampled = false;
    std::string checkpoint; //!< shared checkpoint path (sampled only)
};

/** Uops per core (detailed) or run extent (sampled) at each scale. */
struct Extents
{
    std::uint64_t sbBound;
    std::uint64_t parsec;
    std::uint64_t sampled;
};

Extents
extents(const std::string &scale)
{
    if (scale == "smoke")
        return {4'000, 2'000, 200'000};
    return {100'000, 60'000, 2'000'000};
}

/**
 * Profile seed of a parsec-4c run. The 4-core model can starve a core
 * of block ownership forever (a coherence livelock: the run dies at
 * its cycle limit), and at 60k uops/core that hits about 4% of seeds.
 * Benchmark seeds therefore cycle through seeds 1..67 minus the three
 * there that livelock dedup or canneal; remove this map once the
 * livelock is fixed.
 */
std::uint64_t
parsecSeed(std::uint64_t seed)
{
    constexpr std::uint64_t kLivelocked[] = {4, 44, 57};
    std::uint64_t pos = (seed + 63) % 64; // seed 1 -> first entry
    for (std::uint64_t s = 1;; ++s) {
        if (std::find(std::begin(kLivelocked), std::end(kLivelocked), s) !=
            std::end(kLivelocked))
            continue;
        if (pos-- == 0)
            return s;
    }
}

Workload
makeWorkload(const Options &o)
{
    const Extents ext = extents(o.scale);
    Workload w;
    auto add = [&](std::string name, SystemConfig cfg) {
        if (name == o.alterJob) {
            // A config change the job's name does not reveal: its stats
            // must stop matching the golden digest.
            const unsigned sb =
                cfg.sbSize != 0 ? cfg.sbSize : cfg.coreParams.sqSize;
            cfg.sbSize = sb + 2;
        }
        w.jobs.push_back({std::move(name), std::move(cfg)});
    };

    if (o.workload == "sb-bound") {
        for (const char *app : {"x264", "roms", "bwaves", "cam4"}) {
            for (const bool spb : {false, true}) {
                SystemConfig cfg = makeConfig(
                    app, 14, StorePrefetchPolicy::AtCommit, spb);
                cfg.maxUopsPerCore = ext.sbBound;
                cfg.seed = o.seed;
                add(std::string(app) +
                        (spb ? "/at-commit+spb" : "/at-commit"),
                    cfg);
            }
        }
    } else if (o.workload == "parsec-4c") {
        for (const char *app : {"dedup", "canneal"}) {
            SystemConfig cfg =
                makeConfig(app, 0, StorePrefetchPolicy::AtCommit, true);
            cfg.threads = 4;
            cfg.maxUopsPerCore = ext.parsec;
            cfg.seed = parsecSeed(o.seed);
            add(std::string(app) + "/at-commit+spb", cfg);
        }
    } else if (o.workload == "trace-sampled") {
        if (o.traceFile.empty() || !fs::exists(o.traceFile))
            SPB_FATAL("trace-sampled needs --trace-file=FILE");
        w.sampled = true;
        w.checkpoint = (fs::path(o.dir) / "warm.ckpt").string();
        for (const bool spb : {false, true}) {
            SystemConfig cfg = makeConfig(
                "trace:" + o.traceFile, 0, StorePrefetchPolicy::AtCommit,
                spb);
            cfg.sample = sample::SampleSpec::parse(
                "interval=100000,window=2000,warmup=1000");
            cfg.sample.checkpointPath = w.checkpoint;
            cfg.maxUopsPerCore = ext.sampled;
            cfg.seed = o.seed;
            add(spb ? "at-commit+spb" : "at-commit", cfg);
        }
    } else {
        SPB_FATAL("unknown workload '%s' (sb-bound, parsec-4c, "
                  "trace-sampled)",
                  o.workload.c_str());
    }
    return w;
}

// --------------------------------------------------------------- digests

std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * What a job's digest covers: the flat stats every result sink writes
 * (SimResult::toStatSet) plus the per-structure counters they omit —
 * L2/L3, SPB engines and the directory — so a change to any simulated
 * count shows.
 */
StatSet
digestedStats(const SimResult &r)
{
    StatSet s = r.toStatSet();
    for (std::size_t c = 0; c < r.l2.size(); ++c)
        s.merge("l2_" + std::to_string(c) + ".", r.l2[c].toStatSet());
    s.merge("l3.", r.l3.toStatSet());
    for (std::size_t c = 0; c < r.spbs.size(); ++c) {
        const SpbStats &spb = r.spbs[c];
        const std::string p = "spb" + std::to_string(c) + ".";
        s.set(p + "stores_observed", static_cast<double>(spb.storesObserved));
        s.set(p + "window_checks", static_cast<double>(spb.windowChecks));
        s.set(p + "bursts", static_cast<double>(spb.bursts));
        s.set(p + "backward_bursts", static_cast<double>(spb.backwardBursts));
        s.set(p + "blocks_requested",
              static_cast<double>(spb.blocksRequested));
        s.set(p + "end_of_page_suppressed",
              static_cast<double>(spb.endOfPageSuppressed));
    }
    s.set("dir.invalidations",
          static_cast<double>(r.directory.invalidations));
    s.set("dir.invalidations_by_spb",
          static_cast<double>(r.directory.invalidationsBySpb));
    s.set("dir.downgrades", static_cast<double>(r.directory.downgrades));
    s.set("dir.dirty_probes", static_cast<double>(r.directory.dirtyProbes));
    return s;
}

/** Digest of the stats as sorted "name=value" lines (%.17g values). */
std::string
statsDigest(const StatSet &stats)
{
    std::vector<std::string> lines;
    lines.reserve(stats.entries().size());
    for (const auto &[name, value] : stats.entries()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "=%.17g\n", value);
        lines.push_back(name + buf);
    }
    std::sort(lines.begin(), lines.end());
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const std::string &l : lines)
        h = fnv1a(l.data(), l.size(), h);
    return hex(h);
}

/** Digest of the first @p n uops of a stream (input identity). */
std::string
streamDigest(TraceSource &src, std::uint64_t n)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        const MicroOp op = src.next();
        const std::uint64_t fields[] = {
            op.addr, op.pc, static_cast<std::uint64_t>(op.cls),
            static_cast<std::uint64_t>(op.region), op.size, op.srcDist1,
            op.srcDist2, op.mispredicted ? 1u : 0u, op.hasDest ? 1u : 0u};
        h = fnv1a(fields, sizeof(fields), h);
    }
    return hex(h);
}

/** Golden digests: "workload scale job digest" lines, '#' comments. */
std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::map<std::string, std::string> golden;
    std::ifstream in(path);
    if (!in.good())
        SPB_FATAL("cannot read golden digests '%s'", path.c_str());
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        char workload[64], scale[16], job[128], digest[32];
        if (std::sscanf(line.c_str(), "%63s %15s %127s %31s", workload,
                        scale, job, digest) != 4)
            SPB_FATAL("malformed golden line '%s'", line.c_str());
        golden[std::string(workload) + " " + scale + " " + job] = digest;
    }
    return golden;
}

// -------------------------------------------------------------- checking

/**
 * Per-job correctness ledger. The first digest a job produces must
 * match the golden digest (at the golden seed); every later execution
 * of the job — other passes, the traced run — must reproduce it.
 */
class Ledger
{
  public:
    Ledger(const Options &o, const Workload &w) : options_(o), workload_(w)
    {
        if (!o.golden.empty() && o.seed == kGoldenSeed)
            golden_ = loadGolden(o.golden);
    }

    /** Record one execution of job @p j: an error, or its stats. */
    void
    record(std::size_t j, const std::string &error, const StatSet *stats,
           const char *phase)
    {
        ++attempted_;
        std::string why = error;
        if (why.empty() && stats != nullptr)
            why = check(j, *stats);
        if (why.empty())
            return;
        ++failed_;
        std::fprintf(stderr, "simbench: job %s failed (%s): %s\n",
                     workload_.jobs[j].name.c_str(), phase, why.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Print one line per job with its digest (golden maintenance). */
    void
    printDigests() const
    {
        for (std::size_t j = 0; j < workload_.jobs.size(); ++j) {
            const auto it = first_.find(j);
            std::printf("{\"job\": \"%s\", \"digest\": \"%s\"}\n",
                        workload_.jobs[j].name.c_str(),
                        it == first_.end() ? "" : it->second.c_str());
        }
    }

  private:
    std::string
    check(std::size_t j, const StatSet &stats)
    {
        const SystemConfig &cfg = workload_.jobs[j].config;
        if (!reachedTarget(cfg, stats))
            return "missed its committed-uop target";
        const std::string digest = statsDigest(stats);
        const auto prev = first_.find(j);
        if (prev != first_.end()) {
            return digest == prev->second
                       ? ""
                       : "stats digest " + digest + " differs from " +
                             prev->second + " of an earlier run";
        }
        first_[j] = digest;
        if (options_.golden.empty() || options_.seed != kGoldenSeed)
            return "";
        const auto g = golden_.find(options_.workload + " " +
                                    options_.scale + " " +
                                    workload_.jobs[j].name);
        if (g == golden_.end())
            return "no golden digest recorded";
        return g->second == digest ? ""
                                   : "stats digest " + digest +
                                         " differs from golden " +
                                         g->second;
    }

    static bool
    reachedTarget(const SystemConfig &cfg, const StatSet &stats)
    {
        if (cfg.sample.enabled()) {
            const std::uint64_t periods =
                cfg.maxUopsPerCore / cfg.sample.intervalUops;
            return stats.get("sample.windows") ==
                       static_cast<double>(periods) &&
                   stats.get("sample.skipped_uops") +
                           stats.get("sample.detailed_uops") ==
                       static_cast<double>(periods *
                                           cfg.sample.intervalUops);
        }
        for (int c = 0; c < cfg.threads; ++c) {
            if (stats.get("core" + std::to_string(c) +
                          ".committed_uops") <
                static_cast<double>(cfg.maxUopsPerCore))
                return false;
        }
        return true;
    }

    const Options &options_;
    const Workload &workload_;
    std::map<std::string, std::string> golden_;
    std::map<std::size_t, std::string> first_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Sum a per-core stat over the cores ("core", "committed_uops"). */
double
perCore(const StatSet &stats, int cores, const char *prefix,
        const char *stat)
{
    double total = 0.0;
    for (int c = 0; c < cores; ++c)
        total += stats.get(prefix + std::to_string(c) + "." + stat);
    return total;
}

/** Uops a job advanced: committed detailed uops plus warmed/skipped. */
double
uopsAdvanced(const SystemConfig &cfg, const StatSet &stats)
{
    if (cfg.sample.enabled())
        return stats.get("sample.skipped_uops") +
               stats.get("sample.detailed_uops");
    return perCore(stats, cfg.threads, "core", "committed_uops");
}

// ---------------------------------------------------------------- passes

/** Timings of one untraced pass through the experiment engine. */
struct EnginePass
{
    double wall = 0.0; //!< runJobs wall: setup, run, stats, JSONL
    std::vector<double> jobSeconds; //!< JobOutcome::wallSeconds per job
    double uops = 0.0; //!< uops advanced by all jobs
};

void
removeIfExists(const std::string &path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

EnginePass
runEnginePass(const Options &o, const Workload &w, Ledger &ledger)
{
    if (w.sampled)
        removeIfExists(w.checkpoint); // the first job must warm live
    const std::string sink = (fs::path(o.dir) / "results.jsonl").string();
    removeIfExists(sink);

    std::vector<exp::Job> jobs;
    for (const BenchJob &j : w.jobs)
        jobs.push_back({exp::configKey(j.config), j.config});
    exp::EngineOptions eo;
    eo.hostThreads = 1;
    eo.jsonlPath = sink;

    const auto start = Clock::now();
    const exp::ExperimentReport report = exp::runJobs(jobs, eo);
    EnginePass pass;
    pass.wall = secondsSince(start);

    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        const exp::JobOutcome &out = report.outcomes[j];
        pass.jobSeconds.push_back(out.wallSeconds);
        const bool done = out.status == exp::JobStatus::Completed;
        const StatSet st = done ? digestedStats(out.result) : StatSet{};
        ledger.record(j, done ? "" : "engine: " + out.error,
                      done ? &st : nullptr, "engine");
        if (done)
            pass.uops += uopsAdvanced(w.jobs[j].config, st);
    }
    removeIfExists(sink);
    return pass;
}

/**
 * System construction time of every job, as the engine pass just saw
 * it: the live-warming job against an absent checkpoint, the replaying
 * job against the checkpoint the engine pass wrote.
 */
std::vector<double>
runSetupPass(const Options &o, const Workload &w, Ledger &ledger)
{
    std::vector<double> seconds(w.jobs.size(), 0.0);
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        SystemConfig cfg = w.jobs[j].config;
        const bool replays = w.sampled && j > 0;
        if (w.sampled && !replays)
            cfg.sample.checkpointPath =
                (fs::path(o.dir) / "absent.ckpt").string();
        FatalThrowGuard guard;
        try {
            const auto start = Clock::now();
            System sys(cfg);
            seconds[j] = secondsSince(start);
            if (replays && !sys.sampleInfo()->fromCheckpoint)
                ledger.record(j, "setup did not load the checkpoint",
                              nullptr, "setup");
        } catch (const std::exception &e) {
            ledger.record(j, std::string("setup: ") + e.what(), nullptr,
                          "setup");
        }
    }
    return seconds;
}

/** Host time per layer and work counts of one traced pass. */
struct Layers
{
    double jobs = 0.0; //!< whole jobs: construction to destruction
    double loop = 0.0; //!< wall time of the run loops
    double cpu = 0.0;  //!< Core::tick
    double mem = 0.0;  //!< SimClock::tick (event dispatch)
    double ff = 0.0;   //!< quiescence test + skip
    double gen = 0.0;  //!< profile stream construction
    double decode = 0.0;
    double warm = 0.0;
    double ckptLoad = 0.0;
    double ckptBytes = 0.0;
    double ticks = 0.0, cycles = 0.0, ffCycles = 0.0, ffSkips = 0.0;
    double events = 0.0;
    double committed = 0.0, squashed = 0.0, sbStalls = 0.0;
    double l1dLoadMisses = 0.0, storeOwnMisses = 0.0, dram = 0.0;
    double dirInvalidations = 0.0;
    double pfIssued = 0.0, pfUseful = 0.0;
    double spbBursts = 0.0, spbBlocks = 0.0, spbDiscarded = 0.0;
    double windows = 0.0, detailedUops = 0.0;
};

/**
 * System::run's detailed loop, re-driven from public calls with one
 * timer per layer. Must stay step-for-step identical to System::run:
 * the traced stats are checked byte-for-byte against the engine's.
 */
void
runTracedLoop(System &sys, Layers &l)
{
    const SystemConfig &cfg = sys.config();
    const int cores = cfg.threads;
    const std::uint64_t target = cfg.maxUopsPerCore;
    const std::uint64_t cycle_limit =
        target * cfg.cyclesPerUopLimit + 100'000;
    SimClock &clock = sys.clock();

    auto all_done = [&] {
        for (int c = 0; c < cores; ++c)
            if (sys.core(c).committed() < target)
                return false;
        return true;
    };
    auto all_quiescent = [&] {
        for (int c = 0; c < cores; ++c)
            if (!sys.core(c).quiescent())
                return false;
        return true;
    };

    Clock::duration cpu{}, mem{}, ff{};
    std::uint64_t ticks = 0, skips = 0, skipped = 0;
    const auto loop_start = Clock::now();
    while (!all_done()) {
        const auto t0 = Clock::now();
        if (cfg.fastForward) {
            const Cycle next = clock.events.nextEventCycle();
            if (next > clock.now + 1 && all_quiescent()) {
                if (next == kNeverCycle)
                    throw std::runtime_error("traced loop deadlocked");
                const Cycle n = next - clock.now - 1;
                for (int c = 0; c < cores; ++c)
                    sys.core(c).skipQuiescentCycles(n);
                clock.now += n;
                ++skips;
                skipped += n;
            }
        }
        const auto t1 = Clock::now();
        clock.tick();
        const auto t2 = Clock::now();
        for (int c = 0; c < cores; ++c)
            sys.core(c).tick();
        const auto t3 = Clock::now();
        ff += t1 - t0;
        mem += t2 - t1;
        cpu += t3 - t2;
        ++ticks;
        if (clock.now > cycle_limit)
            throw std::runtime_error("traced loop exceeded the cycle limit");
    }
    l.loop += secondsSince(loop_start);
    l.cpu += seconds(cpu);
    l.mem += seconds(mem);
    l.ff += seconds(ff);
    l.ticks += static_cast<double>(ticks);
    l.ffSkips += static_cast<double>(skips);
    l.ffCycles += static_cast<double>(skipped);
}

/**
 * Combine two traced passes (same counts): the loop timers of the pass
 * whose loop ran fastest, and the fastest of each isolated time.
 */
Layers
fastestOf(const Layers &a, const Layers &b)
{
    Layers f = a.loop <= b.loop ? a : b;
    f.jobs = std::min(a.jobs, b.jobs);
    f.gen = std::min(a.gen, b.gen);
    f.decode = std::min(a.decode, b.decode);
    f.warm = std::min(a.warm, b.warm);
    f.ckptLoad = std::min(a.ckptLoad, b.ckptLoad);
    return f;
}

/** Counters every traced job contributes, from its result. */
void
countResult(const System &sys, const SimResult &r, const StatSet &st,
            Layers &l)
{
    const int cores = sys.config().threads;
    l.cycles += static_cast<double>(r.cycles);
    l.committed += perCore(st, cores, "core", "committed_uops");
    l.squashed += perCore(st, cores, "core", "squashed_uops");
    l.sbStalls += perCore(st, cores, "core", "stall_sb");
    l.l1dLoadMisses += perCore(st, cores, "l1d", "load_misses");
    l.storeOwnMisses += perCore(st, cores, "l1d", "store_own_misses");
    l.spbDiscarded += perCore(st, cores, "l1d", "spb_discarded");
    l.dram += static_cast<double>(r.dramReads + r.dramWrites);
    l.dirInvalidations += static_cast<double>(r.directory.invalidations);
    for (const auto &[name, value] : r.pf.entries()) {
        const auto dot = name.rfind('.');
        const std::string leaf = name.substr(dot + 1);
        if (leaf == "issued")
            l.pfIssued += value;
        else if (leaf == "useful")
            l.pfUseful += value;
    }
    for (const SpbStats &s : r.spbs) {
        l.spbBursts += static_cast<double>(s.bursts);
        l.spbBlocks += static_cast<double>(s.blocksRequested);
    }
}

/** Pull @p n uops through @p src; returns the host seconds taken. */
double
pullUops(TraceSource &src, std::uint64_t n)
{
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        (void)src.next();
    return secondsSince(start);
}

/**
 * One traced pass. Detailed workloads re-drive the run loop per job;
 * trace-sampled runs its jobs through System::run (the sampled loop is
 * private) and, unless @p jobs_only, times isolated decode and warming
 * passes over the same extent. Every job's stats go to the ledger,
 * which holds them to the untraced run's digests.
 */
Layers
runTracedPass(const Workload &w, Ledger &ledger, bool jobs_only)
{
    Layers l;
    if (w.sampled) {
        removeIfExists(w.checkpoint);
        if (!jobs_only) {
            const SystemConfig &cfg = w.jobs[0].config;
            const champsim::TraceSpec spec =
                champsim::parseTraceWorkload(cfg.workload);
            champsim::TraceReplaySource decode_only(spec);
            l.decode = pullUops(decode_only, cfg.maxUopsPerCore);
            champsim::TraceReplaySource inner(spec);
            sample::WarmImage image(cfg.mem, cfg.coreParams.tlb, cfg.spb);
            sample::WarmingSource warming(&inner, &image);
            l.warm = pullUops(warming, cfg.maxUopsPerCore) - l.decode;
        }
    }
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        const SystemConfig &cfg = w.jobs[j].config;
        if (!w.sampled && !jobs_only) {
            const ProfileParams &profile = findProfile(cfg.workload);
            for (int t = 0; t < cfg.threads; ++t) {
                const auto start = Clock::now();
                auto src =
                    buildWorkload(profile, cfg.seed, t, cfg.threads);
                l.gen += secondsSince(start);
            }
        }
        FatalThrowGuard guard;
        const auto job_start = Clock::now();
        try {
            System sys(cfg);
            const double setup = secondsSince(job_start);
            SimResult r;
            if (w.sampled) {
                const auto run_start = Clock::now();
                r = sys.run();
                l.loop += secondsSince(run_start);
            } else {
                runTracedLoop(sys, l);
                sys.memory().finalizeStats();
                r = sys.snapshot();
            }
            const StatSet st = digestedStats(r);
            countResult(sys, r, st, l);
            l.events += static_cast<double>(
                sys.clock().events.executedEvents());
            if (w.sampled) {
                l.ffCycles += static_cast<double>(sys.fastForwardedCycles());
                const sample::SampleRunInfo &info = *sys.sampleInfo();
                l.windows += static_cast<double>(info.windowsMeasured);
                l.detailedUops += static_cast<double>(info.detailedUops);
                std::string why;
                if (j == 0) {
                    if (!info.wroteCheckpoint || info.fromCheckpoint)
                        why = "live job did not write the checkpoint";
                    std::error_code ec;
                    l.ckptBytes =
                        static_cast<double>(fs::file_size(w.checkpoint, ec));
                } else {
                    l.ckptLoad += setup;
                    if (!info.fromCheckpoint || info.warmedUops != 0)
                        why = "job did not replay the checkpoint";
                }
                ledger.record(j, why, &st, "traced");
            } else {
                ledger.record(j, "", &st, "traced");
            }
        } catch (const std::exception &e) {
            ledger.record(j, std::string("traced: ") + e.what(), nullptr,
                          "traced");
        }
        l.jobs += secondsSince(job_start);
    }
    if (w.sampled)
        removeIfExists(w.checkpoint);
    return l;
}

// --------------------------------------------------------------- output

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

void
printResult(const Ledger &ledger, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ledger.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

/** The host CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    }
    return cpus;
}

/** Move this (single-threaded) process onto @p cpu; best effort. */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Hash of each generated profile stream's first uops (input identity). */
void
printInputs(const Workload &w)
{
    if (w.sampled)
        return; // run.py hashes the generated trace file itself
    std::printf("{\"inputs\": {");
    const char *sep = "";
    std::set<std::string> seen;
    for (const BenchJob &j : w.jobs) {
        const SystemConfig &cfg = j.config;
        for (int t = 0; t < cfg.threads; ++t) {
            const std::string id = cfg.workload + ".t" + std::to_string(t);
            if (!seen.insert(id).second)
                continue;
            auto src = buildWorkload(findProfile(cfg.workload), cfg.seed,
                                     t, cfg.threads);
            std::printf("%s\"%s\": \"%s\"", sep, id.c_str(),
                        streamDigest(*src, 1 << 16).c_str());
            sep = ", ";
        }
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (const char *why = refusal()) {
        std::fprintf(stderr, "simbench: refusing to report from a %s\n",
                     why);
        return 3;
    }
    check::setLevel(check::Level::Off);
    champsim::setTraceCacheDir(""); // every run decodes its own input

    std::printf("{\"build\": {\"compiler\": \"%s %s\", \"build_type\": "
                "\"%s\", \"flags\": \"%s\", \"checks_compiled_in\": %s}}\n",
                kCompiler, __VERSION__, SIMBENCH_BUILD_TYPE,
                SIMBENCH_CXX_FLAGS,
                checksCompiledIn() ? "true" : "false");

    const Workload w = makeWorkload(o);
    printInputs(w);
    Ledger ledger(o, w);

    // Interference on a shared host only ever slows a repetition down,
    // and comes in bursts of seconds; the fastest repetition of each job
    // is the steadiest estimate of what the code costs (README.md). The
    // bursts hit one CPU at a time and can pin a CPU slow for minutes,
    // so successive passes run on each allowed CPU in turn.
    std::vector<double> job_s, setup_s;
    double overhead = 0.0, uops = 0.0;
    Layers fast;
    const std::vector<int> cpus = allowedCpus();
    const auto start = Clock::now();
    for (int pass_no = 1;; ++pass_no) {
        if (!cpus.empty())
            pinTo(cpus[static_cast<std::size_t>(pass_no - 1) % cpus.size()]);
        const EnginePass pass = runEnginePass(o, w, ledger);
        const double job_sum = sum(pass.jobSeconds);
        keepFastest(job_s, pass.jobSeconds);
        overhead = pass_no == 1 ? pass.wall - job_sum
                                : std::min(overhead, pass.wall - job_sum);
        uops = pass.uops;
        if (!o.traced) {
            const std::vector<double> setup = runSetupPass(o, w, ledger);
            keepFastest(setup_s, setup);
            std::fprintf(stderr,
                         "simbench: pass %d: wall %.4fs, jobs %.4fs, "
                         "setup %.4fs\n",
                         pass_no, pass.wall, job_sum, sum(setup));
        } else {
            const Layers l = runTracedPass(w, ledger, false);
            fast = pass_no == 1 ? l : fastestOf(fast, l);
        }
        if (w.sampled)
            removeIfExists(w.checkpoint);
        if (secondsSince(start) >= o.seconds)
            break;
    }

    // The untraced run must equal the traced one byte-for-byte on every
    // seed; the traced mode above already ran both.
    if (!o.traced)
        runTracedPass(w, ledger, true);
    ledger.printDigests();

    if (!o.traced) {
        printResult(
            ledger,
            {{"sim_uops_per_s", divOrZero(uops, sum(job_s)), "uops/s"},
             {"wall_s", sum(job_s) + overhead, "s"},
             {"setup_s", sum(setup_s), "s"},
             {"peak_rss_mb", peakRssMb(), "MB"},
             {"job_success_ratio",
              1.0 - divOrZero(static_cast<double>(ledger.failed()),
                              static_cast<double>(ledger.attempted())),
              "ratio"}});
        return 0;
    }

    const double loop = fast.loop, cpu = fast.cpu, mem = fast.mem,
                 ff = fast.ff;
    const double extent =
        w.sampled ? static_cast<double>(w.jobs[0].config.maxUopsPerCore)
                  : 0.0;
    printResult(
        ledger,
        {{"cpu.tick_s", cpu, "s"},
         {"cpu.ns_per_tick", 1e9 * divOrZero(cpu, fast.ticks), "ns"},
         {"cpu.committed_uops", fast.committed, "count"},
         {"cpu.squashed_uops", fast.squashed, "count"},
         {"cpu.sb_full_stall_cycles", fast.sbStalls, "cycles"},
         {"sim.loop_s", loop, "s"},
         {"sim.ff_s", ff, "s"},
         {"sim.timer_coverage", divOrZero(cpu + mem + ff, loop), "ratio"},
         {"sim.ticks", fast.ticks, "count"},
         {"sim.cycles", fast.cycles, "cycles"},
         {"sim.ff_cycles", fast.ffCycles, "cycles"},
         {"sim.ff_skips", fast.ffSkips, "count"},
         {"mem.event_s", mem, "s"},
         {"mem.events", fast.events, "count"},
         {"mem.ns_per_event", 1e9 * divOrZero(mem, fast.events), "ns"},
         {"mem.l1d_load_misses", fast.l1dLoadMisses, "count"},
         {"mem.store_own_misses", fast.storeOwnMisses, "count"},
         {"mem.dram_accesses", fast.dram, "count"},
         {"mem.dir_invalidations", fast.dirInvalidations, "count"},
         {"pf.useful_ratio", divOrZero(fast.pfUseful, fast.pfIssued), "ratio"},
         {"spb.bursts", fast.spbBursts, "count"},
         {"spb.blocks_requested", fast.spbBlocks, "count"},
         {"spb.discard_ratio", divOrZero(fast.spbDiscarded, fast.spbBlocks),
          "ratio"},
         {"trace.gen_s", w.sampled ? o.genSeconds : fast.gen, "s"},
         {"trace.decode_s", fast.decode, "s"},
         {"trace.decode_uops_per_s", divOrZero(extent, fast.decode),
          "uops/s"},
         {"sample.warm_s", fast.warm, "s"},
         {"sample.warm_uops_per_s", divOrZero(extent, fast.warm), "uops/s"},
         {"sample.windows", fast.windows, "count"},
         {"sample.detailed_uops", fast.detailedUops, "count"},
         {"sample.ckpt_bytes", fast.ckptBytes, "B"},
         {"sample.ckpt_load_s", fast.ckptLoad, "s"},
         {"exp.jobs", static_cast<double>(w.jobs.size()), "count"},
         {"exp.engine_overhead_s", overhead, "s"},
         {"trace_overhead_s", fast.jobs - sum(job_s), "s"}});
    return 0;
}
