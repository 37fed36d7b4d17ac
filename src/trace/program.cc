#include "trace/program.hh"

#include <type_traits>

#include "common/logging.hh"

namespace spburst
{

WorkloadProgram::WorkloadProgram(std::string name, std::uint64_t seed)
    : name_(std::move(name)), rng_(seed)
{
}

void
WorkloadProgram::addPhase(Factory factory, double weight)
{
    SPB_ASSERT(weight > 0.0, "phase weight must be positive");
    phases_.emplace_back(std::move(factory), weight);
    totalWeight_ += weight;
}

void
WorkloadProgram::pickSegment()
{
    SPB_ASSERT(!phases_.empty(), "workload '%s' has no phases",
               name_.c_str());
    double x = rng_.uniform() * totalWeight_;
    for (auto &[factory, weight] : phases_) {
        x -= weight;
        if (x <= 0.0) {
            current_ = factory(rng_);
            return;
        }
    }
    current_ = phases_.back().first(rng_);
}

MicroOp
WorkloadProgram::next()
{
    MicroOp op;
    const auto produce = [&op](auto &segment) {
        if constexpr (std::is_same_v<decltype(segment), std::monostate &>)
            return false;
        else
            return segment.produce(op);
    };
    for (int guard = 0; guard < 1000; ++guard) {
        if (std::visit(produce, current_))
            return op;
        pickSegment();
    }
    SPB_PANIC("workload '%s': segments keep coming up empty",
              name_.c_str());
}

} // namespace spburst
