/**
 * @file
 * The shared simulation clock: the current cycle plus the event queue
 * every timed component schedules into. One SimClock exists per System.
 */

#pragma once

#include "common/event_queue.hh"
#include "common/types.hh"

namespace spburst
{

/** Global cycle counter + event queue for one simulated system. */
struct SimClock
{
    Cycle now = 0;        //!< current cycle
    EventQueue events;    //!< pending timed callbacks

    /** Advance to the next cycle and run everything due. */
    void
    tick()
    {
        ++now;
        events.runUntil(now);
    }
};

} // namespace spburst
