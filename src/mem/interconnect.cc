#include "mem/interconnect.hh"

#include "common/logging.hh"

namespace spburst
{

Interconnect::Interconnect(MemLevel *below, Cycle one_way, SimClock *clock)
    : below_(below), oneWay_(one_way), clock_(clock)
{
    SPB_ASSERT(below != nullptr && clock != nullptr,
               "interconnect needs a far side and a clock");
}

std::uint32_t
Interconnect::park(FillCallback done)
{
    if (freeSlots_.empty()) {
        parked_.push_back(std::move(done));
        return static_cast<std::uint32_t>(parked_.size() - 1);
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    parked_[slot] = std::move(done);
    return slot;
}

FillCallback
Interconnect::unpark(std::uint32_t slot)
{
    FillCallback done = std::move(parked_[slot]);
    freeSlots_.push_back(slot);
    return done;
}

void
Interconnect::request(const MemRequest &req, FillCallback done)
{
    const std::uint32_t slot = park(std::move(done));
    clock_->events.schedule(clock_->now + oneWay_, [this, req, slot] {
        below_->request(req, [this, slot](bool ownership) {
            clock_->events.schedule(
                clock_->now + oneWay_,
                [done = unpark(slot), ownership]() mutable {
                    done(ownership);
                });
        });
    });
}

void
Interconnect::writeback(Addr block_addr, int core)
{
    clock_->events.schedule(clock_->now + oneWay_, [this, block_addr, core] {
        below_->writeback(block_addr, core);
    });
}

} // namespace spburst
