#include "check/check.hh"

namespace spburst::check
{

namespace detail
{

std::atomic<Level> gLevel{Level::Fast};
thread_local constinit Counters tCounters;
thread_local constinit int tThrowDepth = 0;

void
failImpl(Domain d, const char *expr, const char *file, int line,
         const std::string &msg)
{
    ++tCounters.violations[static_cast<int>(d)];
    const std::string what = spburst::detail::format(
        "check violation [%s] %s: %s", domainName(d), expr, msg.c_str());
    if (tThrowDepth > 0)
        throw CheckViolation(d, what);
    spburst::detail::panicImpl(file, line, what);
}

} // namespace detail

const char *
domainName(Domain d)
{
    switch (d) {
      case Domain::StoreBuffer: return "sb";
      case Domain::Pipeline: return "pipeline";
      case Domain::Forwarding: return "forward";
      case Domain::Coherence: return "coherence";
      case Domain::Mshr: return "mshr";
      case Domain::Spb: return "spb";
    }
    return "?";
}

ThrowGuard::ThrowGuard() { ++detail::tThrowDepth; }
ThrowGuard::~ThrowGuard() { --detail::tThrowDepth; }

std::uint64_t
Counters::totalViolations() const
{
    std::uint64_t sum = 0;
    for (int d = 0; d < kNumDomains; ++d)
        sum += violations[d];
    return sum;
}

std::uint64_t
Counters::totalEvaluated() const
{
    std::uint64_t sum = 0;
    for (int d = 0; d < kNumDomains; ++d)
        sum += evaluated[d];
    return sum;
}

StatSet
Counters::toStatSet() const
{
    StatSet s;
    s.set("violations", static_cast<double>(totalViolations()));
    s.set("evaluated", static_cast<double>(totalEvaluated()));
    for (int d = 0; d < kNumDomains; ++d) {
        const auto *name = domainName(static_cast<Domain>(d));
        s.set(std::string("violations.") + name,
              static_cast<double>(violations[d]));
    }
    return s;
}

Counters
Counters::delta(const Counters &since) const
{
    Counters out;
    for (int d = 0; d < kNumDomains; ++d) {
        out.evaluated[d] = evaluated[d] - since.evaluated[d];
        out.violations[d] = violations[d] - since.violations[d];
    }
    return out;
}

void
setLevel(Level l)
{
    detail::gLevel.store(l, std::memory_order_relaxed);
}

const char *
levelName(Level l)
{
    switch (l) {
      case Level::Off: return "off";
      case Level::Fast: return "fast";
      case Level::Full: return "full";
    }
    return "?";
}

void
resetCounters()
{
    detail::tCounters = Counters{};
}

} // namespace spburst::check
