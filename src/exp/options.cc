#include "exp/options.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <tuple>

#include "check/check.hh"
#include "common/logging.hh"
#include "trace/champsim/source.hh"
#include "trace/workloads.hh"

namespace spburst::exp
{

namespace
{

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** The spellings of a row's values, each with what it selects. */
template <typename T>
using Names = std::vector<std::pair<std::string, T>>;

template <typename T>
Names<T>
namesOf(std::initializer_list<T> values, const char *(*name)(T))
{
    Names<T> out;
    out.reserve(values.size());
    for (T v : values)
        out.emplace_back(name(v), v);
    return out;
}

template <typename T>
std::string
syntaxOf(const Names<T> &names)
{
    std::string out;
    for (const auto &entry : names)
        out += (out.empty() ? "" : "|") + entry.first;
    return out;
}

template <typename T>
T
pick(std::string_view text, const Names<T> &names)
{
    for (const auto &[name, value] : names)
        if (text == name)
            return value;
    SPB_FATAL("unknown value '%.*s' (expected %s)",
              static_cast<int>(text.size()), text.data(),
              syntaxOf(names).c_str());
}

const Names<StorePrefetchPolicy> kPolicies = namesOf(
    {StorePrefetchPolicy::None, StorePrefetchPolicy::AtExecute,
     StorePrefetchPolicy::AtCommit},
    storePrefetchPolicyName);

/** --strategy: (policy, useSpb, idealSb) of a policy alone, or of
 *  at-commit with SPB or with the ideal SB. */
const Names<std::tuple<StorePrefetchPolicy, bool, bool>> kStrategies = [] {
    Names<std::tuple<StorePrefetchPolicy, bool, bool>> out;
    out.reserve(kPolicies.size() + 2);
    for (const auto &[name, policy] : kPolicies)
        out.push_back({name, {policy, false, false}});
    out.push_back({"spb", {StorePrefetchPolicy::AtCommit, true, false}});
    out.push_back({"ideal", {StorePrefetchPolicy::AtCommit, false, true}});
    return out;
}();

const Names<L1PrefetcherKind> kPrefetchers = [] {
    Names<L1PrefetcherKind> out = namesOf(
        {L1PrefetcherKind::None, L1PrefetcherKind::Stream,
         L1PrefetcherKind::Aggressive, L1PrefetcherKind::Adaptive,
         L1PrefetcherKind::BestOffset, L1PrefetcherKind::DSPatch},
        l1PrefetcherKindName);
    out.emplace_back("bop", L1PrefetcherKind::BestOffset);
    return out;
}();

/** The Table I core, then the Table II presets. */
const Names<CoreParams> kCores = [] {
    Names<CoreParams> out{{skylakeParams().name, skylakeParams()}};
    for (const CoreParams &p : tableIIPresets())
        out.emplace_back(p.name, p);
    return out;
}();

const Names<check::Level> kCheckLevels = namesOf(
    {check::Level::Off, check::Level::Fast, check::Level::Full},
    check::levelName);

std::vector<std::string>
splitList(std::string_view text)
{
    std::vector<std::string> out;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = text.find(',', pos);
        out.emplace_back(text.substr(pos, comma - pos));
        if (comma == std::string_view::npos)
            return out;
        pos = comma + 1;
    }
}

/** A --workload value: a suite (all, sb-bound, parsec) or a comma
 *  list of profile names. */
std::vector<std::string>
expandWorkloads(std::string_view spec)
{
    if (spec == "all")
        return allSpecNames();
    if (spec == "sb-bound")
        return sbBoundSpecNames();
    if (spec == "parsec")
        return allParsecNames();
    return splitList(spec);
}

} // namespace

const std::vector<ConfigOption> &
configOptions()
{
    using V = std::string_view;
    static const std::vector<ConfigOption> table = {
        {"workload", "NAME[,NAME...]|all|sb-bound|parsec",
         "synthetic workload profiles, by name or by suite", Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.workload = findProfile(std::string(v)).name;
         }},
        {"trace", "FILE[,skip=N][,warmup=N][,roi=N]",
         "replay a ChampSim trace (.champsim, .gz or .xz;\nrepeatable)",
         Scope::Key,
         [](SystemConfig &cfg, V v) {
             (void)champsim::TraceSpec::parse(std::string(v));
             cfg.workload = std::string("trace:").append(v);
         }},
        {"sb", "N", "store-buffer entries, at most 1024 (0: the core\n"
                    "preset's SQ size)",
         Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.sbSize = static_cast<unsigned>(parseCount(v, 0, 1024));
         }},
        {"policy", syntaxOf(kPolicies),
         "store-prefetch policy (default at-commit)", Scope::Key,
         [](SystemConfig &cfg, V v) { cfg.policy = pick(v, kPolicies); }},
        {"strategy", syntaxOf(kStrategies),
         "store-prefetch policy, or at-commit with SPB\nor the ideal SB",
         Scope::Key,
         [](SystemConfig &cfg, V v) {
             std::tie(cfg.policy, cfg.useSpb, cfg.idealSb) =
                 pick(v, kStrategies);
         }},
        {"spb", "", "enable Store-Prefetch Bursts", Scope::Key,
         [](SystemConfig &cfg, V) { cfg.useSpb = true; }},
        {"spb-n", "N", "SPB window length, at least 2 (default 48)",
         Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.spb.checkInterval = static_cast<unsigned>(
                 parseCount(v, 2, std::numeric_limits<unsigned>::max()));
         }},
        {"spb-dynamic", "", "dynamic-threshold SPB variant", Scope::Key,
         [](SystemConfig &cfg, V) { cfg.spb.dynamicThreshold = true; }},
        {"spb-backward", "", "backward-burst SPB extension", Scope::Key,
         [](SystemConfig &cfg, V) { cfg.spb.backwardBursts = true; }},
        {"ideal", "", "ideal (1024-entry) SB upper bound", Scope::Key,
         [](SystemConfig &cfg, V) { cfg.idealSb = true; }},
        {"l1pf", syntaxOf(kPrefetchers),
         "cache prefetchers (default stream; bop is\nbest-offset)",
         Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.l1Prefetcher = pick(v, kPrefetchers);
         }},
        {"core", syntaxOf(kCores), "core preset (default skylake, Table I)",
         Scope::Key,
         [](SystemConfig &cfg, V v) { cfg.coreParams = pick(v, kCores); }},
        {"threads", "N", "simulated cores, 1..64 (default 1)", Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.threads = static_cast<int>(parseCount(v, 1, 64));
         }},
        {"uops", "N", "committed uops per core", Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.maxUopsPerCore = parseCount(v, 1, kMax);
         }},
        {"seed", "N", "workload seed (default 1)", Scope::Key,
         [](SystemConfig &cfg, V v) { cfg.seed = parseCount(v, 0, kMax); }},
        {"sample",
         "interval=N,window=M[,warmup=K][,ci=P][,min=W][,ckpt=FILE]",
         "SMARTS-style interval sampling: warm functionally,\n"
         "measure M-uop detailed windows, report mean +/- 95%\n"
         "CI; ckpt= reuses warm state across a policy sweep",
         Scope::Key,
         [](SystemConfig &cfg, V v) {
             cfg.sample = sample::SampleSpec::parse(std::string(v));
         }},
        {"check", syntaxOf(kCheckLevels),
         "invariant checking level (default fast)", Scope::Host,
         [](SystemConfig &, V v) { check::setLevel(pick(v, kCheckLevels)); }},
        {"no-fast-forward", "",
         "tick every cycle even when all cores are quiescent", Scope::Host,
         [](SystemConfig &cfg, V) { cfg.fastForward = false; }},
    };
    return table;
}

const ConfigOption &
configOption(std::string_view name)
{
    for (const ConfigOption &row : configOptions())
        if (row.name == name)
            return row;
    SPB_PANIC("no option '%.*s' in the option table",
              static_cast<int>(name.size()), name.data());
}

std::uint64_t
parseCount(std::string_view text, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() || v < lo ||
        v > hi)
        SPB_FATAL("'%.*s' is not a whole number in [%llu, %s]",
                  static_cast<int>(text.size()), text.data(),
                  static_cast<unsigned long long>(lo),
                  hi == kMax ? "2^64-1" : std::to_string(hi).c_str());
    return v;
}

double
parseReal(std::string_view text)
{
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() ||
        !std::isfinite(v) || v < 0.0)
        SPB_FATAL("'%.*s' is not a finite, non-negative number",
                  static_cast<int>(text.size()), text.data());
    return v;
}

void
CommandLine::config(std::string_view name, SystemConfig &cfg)
{
    const ConfigOption &row = configOption(name);
    option(row.name, row.syntax, row.help,
           [&row, &cfg](std::string_view v) { row.parse(cfg, v); });
}

void
CommandLine::axis(std::string_view name, std::vector<std::string> &values)
{
    const ConfigOption &row = configOption(name);
    option(row.name, row.syntax + ",...", row.help,
           [&row, &values](std::string_view v) {
               values = splitList(v);
               SystemConfig probe;
               for (const std::string &value : values)
                   row.parse(probe, value);
           });
}

void
CommandLine::workloads(std::string_view name, std::vector<std::string> &names)
{
    const ConfigOption &row = configOption(name);
    const bool list = name == "workload";
    option(row.name, row.syntax, row.help,
           [&row, &names, list](std::string_view v) {
               if (list)
                   names.clear();
               for (const std::string &item :
                    list ? expandWorkloads(v)
                         : std::vector<std::string>{std::string(v)}) {
                   SystemConfig probe;
                   row.parse(probe, item);
                   names.push_back(probe.workload);
               }
           });
}

void
CommandLine::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help().c_str(), stdout);
            std::exit(0);
        }
        const std::size_t eq = arg.find('=');
        const Row *row = nullptr;
        for (const Row &r : rows_)
            if (arg.starts_with("--") && arg.substr(2, eq - 2) == r.name)
                row = &r;
        if (row == nullptr)
            SPB_FATAL("unknown %s option '%s' (see --help)", tool_.c_str(),
                      argv[i]);
        if (row->syntax.empty() != (eq == std::string_view::npos))
            SPB_FATAL("--%s %s", row->name.c_str(),
                      row->syntax.empty() ? "takes no value"
                                          : "needs a value (see --help)");
        // Name the option in every value error, whichever layer (number
        // parser, sample or trace spec, workload registry) raised it.
        try {
            FatalThrowGuard guard;
            row->parse(eq == std::string_view::npos ? "" : arg.substr(eq + 1));
        } catch (const FatalError &e) {
            SPB_FATAL("--%s: %s", row->name.c_str(), e.what());
        }
    }
}

std::string
CommandLine::help() const
{
    // Help text starts in column 25; a longer option gets its own line.
    const std::string indent(25, ' ');
    std::string out = synopsis_ + "\n";
    for (const Row &row : rows_) {
        std::string left = "  --" + row.name;
        if (!row.syntax.empty())
            left += "=" + row.syntax;
        left += left.size() + 2 > indent.size()
                    ? "\n" + indent
                    : std::string(indent.size() - left.size(), ' ');
        std::string text = row.help;
        for (std::size_t nl = 0;
             (nl = text.find('\n', nl)) != std::string::npos; ++nl)
            text.insert(nl + 1, indent);
        out += left + text + "\n";
    }
    return out;
}

} // namespace spburst::exp
