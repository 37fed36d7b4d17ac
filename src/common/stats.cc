#include "common/stats.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace spburst
{

void
StatSet::set(std::string_view name, double value)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        entries_[it->second].second = value;
        return;
    }
    if (entries_.capacity() == entries_.size())
        entries_.reserve(entries_.empty() ? 64 : entries_.size() * 2);
    index_.emplace(std::string(name), entries_.size());
    entries_.emplace_back(std::string(name), value);
}

double
StatSet::get(std::string_view name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        SPB_FATAL("unknown statistic '%.*s'", static_cast<int>(name.size()),
                  name.data());
    return entries_[it->second].second;
}

bool
StatSet::has(std::string_view name) const
{
    return index_.find(name) != index_.end();
}

void
StatSet::add(std::string_view name, double delta)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        entries_[it->second].second += delta;
        return;
    }
    set(name, delta);
}

void
StatSet::merge(const std::string &prefix, const StatSet &other)
{
    std::string scratch;
    scratch.reserve(prefix.size() + 32);
    for (const auto &[name, value] : other.entries()) {
        scratch.assign(prefix);
        scratch.append(name);
        set(scratch, value);
    }
}

std::string
StatSet::toString() const
{
    std::ostringstream os;
    for (const auto &[name, value] : entries_) {
        os << name << " = " << value << "\n";
    }
    return os.str();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double logSum = 0.0;
    for (double v : values) {
        SPB_ASSERT(v > 0.0, "geomean requires positive values, got %f", v);
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
ratio(double num, double den, double ifZero)
{
    return den == 0.0 ? ifZero : num / den;
}

} // namespace spburst
