/**
 * @file
 * Point-to-point interconnect hop between cache levels: a fixed
 * one-way latency in each direction.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.hh"
#include "mem/level.hh"

namespace spburst
{

/** Latency wrapper around the level below. */
class Interconnect : public MemLevel
{
  public:
    /**
     * @param below    The level on the far side.
     * @param one_way  Cycles per direction.
     * @param clock    Shared clock.
     */
    Interconnect(MemLevel *below, Cycle one_way, SimClock *clock);

    void request(const MemRequest &req, FillCallback done) override;
    void writeback(Addr block_addr, int core) override;

  private:
    /** Store @p done in a free slot and return the slot's index. */
    std::uint32_t park(FillCallback done);

    /** Take the callback out of @p slot and free the slot. */
    FillCallback unpark(std::uint32_t slot);

    MemLevel *below_;
    Cycle oneWay_;
    SimClock *clock_;
    /** Completions of requests still on the far side. A FillCallback
     *  cannot capture another one, so the wrapper handed below captures
     *  a slot index instead. The level above bounds the requests in
     *  flight (its MSHRs), so the vector stops growing at that size. */
    std::vector<FillCallback> parked_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace spburst
