#include "sample/spec.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace spburst::sample
{

namespace
{

std::uint64_t
parseCount(const std::string &key, const std::string &text)
{
    if (text.empty())
        SPB_FATAL("sample spec: empty value for '%s'", key.c_str());
    std::uint64_t v = 0;
    const char *end = text.c_str() + text.size();
    const auto [ptr, ec] = std::from_chars(text.c_str(), end, v);
    if (ec != std::errc() || ptr != end)
        SPB_FATAL("sample spec: bad count '%s' for '%s'", text.c_str(),
                  key.c_str());
    return v;
}

double
parseReal(const std::string &key, const std::string &text)
{
    if (text.empty())
        SPB_FATAL("sample spec: empty value for '%s'", key.c_str());
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || v < 0.0)
        SPB_FATAL("sample spec: bad value '%s' for '%s'", text.c_str(),
                  key.c_str());
    return v;
}

} // namespace

void
SampleSpec::validate() const
{
    if (!enabled())
        return;
    if (windowUops == 0)
        SPB_FATAL("sample spec: window=N is required (got 0)");
    if (warmupUops > intervalUops ||
        windowUops > intervalUops - warmupUops)
        SPB_FATAL("sample spec: warmup (%llu) + window (%llu) exceed "
                  "the interval (%llu)",
                  static_cast<unsigned long long>(warmupUops),
                  static_cast<unsigned long long>(windowUops),
                  static_cast<unsigned long long>(intervalUops));
    if (!std::isfinite(ciTargetPct) || ciTargetPct < 0.0)
        SPB_FATAL("sample spec: ci= must be a finite percentage (got %g)",
                  ciTargetPct);
    if (ciTargetPct > 0.0 && minWindows < 2)
        SPB_FATAL("sample spec: adaptive ci= needs min>=2 windows");
}

SampleSpec
SampleSpec::parse(const std::string &text)
{
    SampleSpec spec;
    bool warmup_given = false;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        const std::string key =
            eq == std::string::npos ? item : item.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : item.substr(eq + 1);
        if (key == "interval") {
            spec.intervalUops = parseCount(key, value);
        } else if (key == "window") {
            spec.windowUops = parseCount(key, value);
        } else if (key == "warmup") {
            spec.warmupUops = parseCount(key, value);
            warmup_given = true;
        } else if (key == "ci") {
            spec.ciTargetPct = parseReal(key, value);
        } else if (key == "min") {
            spec.minWindows = parseCount(key, value);
        } else if (key == "ckpt") {
            if (value.empty())
                SPB_FATAL("sample spec: empty value for 'ckpt'");
            spec.checkpointPath = value;
        } else {
            SPB_FATAL("sample spec: unknown option '%s' (expected "
                      "interval=, window=, warmup=, ci=, min= or ckpt=)",
                      key.c_str());
        }
        pos = comma + 1;
    }
    if (spec.intervalUops == 0)
        SPB_FATAL("sample spec: interval=N is required");
    if (!warmup_given)
        spec.warmupUops = spec.windowUops;
    spec.validate();
    return spec;
}

std::string
SampleSpec::canonical() const
{
    if (!enabled())
        return "";
    std::string out = "interval=" + std::to_string(intervalUops) +
                      ",window=" + std::to_string(windowUops) +
                      ",warmup=" + std::to_string(warmupUops);
    if (ciTargetPct > 0.0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ",ci=%g,min=%llu", ciTargetPct,
                      static_cast<unsigned long long>(minWindows));
        out += buf;
    }
    return out;
}

} // namespace spburst::sample
