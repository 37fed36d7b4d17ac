#include "trace/champsim/source.hh"

#include <charconv>

#include "common/logging.hh"
#include "common/types.hh"

namespace spburst::champsim
{

namespace
{

constexpr const char *kPrefix = "trace:";
constexpr std::size_t kPrefixLen = 6;

/** Parse a non-negative decimal count; fatal on garbage. */
std::uint64_t
parseCount(const std::string &key, const std::string &text)
{
    if (text.empty())
        SPB_FATAL("trace spec: empty value for '%s'", key.c_str());
    std::uint64_t v = 0;
    const char *end = text.c_str() + text.size();
    const auto [ptr, ec] = std::from_chars(text.c_str(), end, v);
    if (ec != std::errc() || ptr != end)
        SPB_FATAL("trace spec: bad count '%s' for '%s'", text.c_str(),
                  key.c_str());
    return v;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace

TraceSpec
TraceSpec::parse(const std::string &text)
{
    TraceSpec spec;
    std::size_t pos = 0;
    int field = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        if (field == 0) {
            spec.path = item;
        } else {
            const std::size_t eq = item.find('=');
            const std::string key =
                eq == std::string::npos ? item : item.substr(0, eq);
            const std::string value =
                eq == std::string::npos ? "" : item.substr(eq + 1);
            if (key == "skip")
                spec.skipInstrs = parseCount(key, value);
            else if (key == "warmup")
                spec.warmupInstrs = parseCount(key, value);
            else if (key == "roi")
                spec.roiInstrs = parseCount(key, value);
            else
                SPB_FATAL("trace spec: unknown option '%s' (expected "
                          "skip=, warmup= or roi=)",
                          key.c_str());
        }
        ++field;
        pos = comma + 1;
    }
    if (spec.path.empty())
        SPB_FATAL("trace spec: missing file path");
    return spec;
}

std::string
TraceSpec::toString() const
{
    std::string out = kPrefix + path;
    if (skipInstrs != 0)
        out += ",skip=" + std::to_string(skipInstrs);
    if (warmupInstrs != 0)
        out += ",warmup=" + std::to_string(warmupInstrs);
    if (roiInstrs != 0)
        out += ",roi=" + std::to_string(roiInstrs);
    return out;
}

bool
isTraceWorkload(const std::string &workload)
{
    return workload.compare(0, kPrefixLen, kPrefix) == 0;
}

TraceSpec
parseTraceWorkload(const std::string &workload)
{
    if (!isTraceWorkload(workload))
        SPB_FATAL("'%s' is not a trace workload (no 'trace:' prefix)",
                  workload.c_str());
    return TraceSpec::parse(workload.substr(kPrefixLen));
}

StatSet
TraceSourceStats::toStatSet() const
{
    StatSet s;
    s.set("instrs", static_cast<double>(instrsReplayed));
    s.set("instrs_skipped", static_cast<double>(instrsSkipped));
    s.set("passes", static_cast<double>(passes));
    s.set("uops", static_cast<double>(crack.uops));
    s.set("loads", static_cast<double>(crack.loads));
    s.set("stores", static_cast<double>(crack.stores));
    s.set("alu_ops", static_cast<double>(crack.aluOps));
    s.set("branches", static_cast<double>(crack.branches));
    s.set("branch_mispredicts",
          static_cast<double>(crack.predictedMispredicts));
    for (int k = 1; k < kNumBranchKinds; ++k) {
        s.set(std::string("branch_") +
                  branchKindName(static_cast<BranchKind>(k)),
              static_cast<double>(crack.branchKind[k]));
    }
    s.set("deps_truncated", static_cast<double>(crack.depsTruncated));
    s.set("mem_clamped", static_cast<double>(crack.memClamped));
    s.set("uops_per_instr",
          instrsReplayed == 0
              ? 0.0
              : static_cast<double>(crack.uops) /
                    static_cast<double>(instrsReplayed));
    return s;
}

TraceReplaySource::TraceReplaySource(const TraceSpec &spec, int thread_id)
    : spec_(spec),
      name_(kPrefix + basenameOf(spec.path)),
      // Each simulated thread replays into its own 16-TiB slice of the
      // address space: a homogeneous multi-programmed mix, no sharing.
      addrOffset_(static_cast<Addr>(thread_id) << 44),
      decoder_(spec.path)
{
}

void
TraceReplaySource::startPass()
{
    // First pass: discard `skip`, replay warmup + ROI. Later passes:
    // discard skip + warmup, replay exactly the ROI.
    const bool first = stats_.passes == 0;
    const std::uint64_t discard =
        first ? spec_.skipInstrs
              : spec_.skipInstrs + spec_.warmupInstrs;
    stats_.instrsSkipped += decoder_.skip(discard);
    havePending_ = decoder_.next(pending_);
    if (spec_.roiInstrs != 0) {
        passBudget_ = spec_.roiInstrs +
                      (first ? spec_.warmupInstrs : 0);
    } else {
        passBudget_ = ~0ULL; // to end of trace
    }
    passReplayed_ = 0;
    passPrimed_ = true;
    ++stats_.passes;
}

void
TraceReplaySource::refill()
{
    scratch_.clear();
    scratchPos_ = 0;
    while (scratch_.empty()) {
        if (!passPrimed_)
            startPass();
        if (!havePending_ || passBudget_ == 0) {
            // End of pass: loop back to the start of the ROI.
            if (passReplayed_ == 0)
                SPB_FATAL("trace '%s' has no instructions to replay "
                          "(skip/warmup beyond the end of the %llu-"
                          "record file?)",
                          spec_.path.c_str(),
                          static_cast<unsigned long long>(
                              decoder_.position()));
            decoder_.reopen();
            passPrimed_ = false;
            continue;
        }
        const Record current = pending_;
        havePending_ = decoder_.next(pending_);
        // A taken branch's actual target is the next record's ip; at
        // the end of a pass fall back to the sequential fiction.
        const std::uint64_t next_ip =
            havePending_ ? pending_.ip : current.ip + 4;
        cracker_.crack(current, next_ip, scratch_);
        for (MicroOp &op : scratch_) {
            if (isMemOp(op.cls))
                op.addr += addrOffset_;
        }
        ++stats_.instrsReplayed;
        ++passReplayed_;
        --passBudget_;
    }
}

MicroOp
TraceReplaySource::next()
{
    if (scratchPos_ == scratch_.size())
        refill();
    return scratch_[scratchPos_++];
}

} // namespace spburst::champsim
