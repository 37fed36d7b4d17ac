/**
 * @file
 * Architectural checkpoints for interval sampling.
 *
 * A checkpoint stores, for every sampling period of a run, what the
 * warm image (warm.hh) needs to reach that period's window start from
 * the previous one: the cache frames that changed at each level
 * (invalidated frames included), the whole TLB and SPB detector
 * registers, and the recorded uop stream the window executes. Because
 * that state is policy-independent by construction, one checkpoint
 * warms an entire SB-policy sweep: the first run warms live and writes
 * the file, every later run replays it by applying the deltas in order
 * to a fresh warm image, without touching the trace decoder at all.
 * The writer records every period, also those after an adaptive stop,
 * so each delta is relative to the previous recorded window.
 *
 * Format `SPBSMP02`, little-endian throughout:
 *
 *     "SPBSMP02"  u32 identity length, identity bytes
 *     u64 warmed uops  u32 window count
 *     per window:
 *       u64 start uop
 *       L1, L2, L3: u64 LRU clock, u32 n,
 *                   n x {u32 frame, u64 tag, u8 state, u64 LRU stamp}
 *       TLB: u64 use clock, u32 n, n x {u32 entry, u64 page, u64 use}
 *       detector: u64 last block, u64 last addr, u32 sat, u32 back,
 *                 u32 stores, u64 window bytes
 *       u32 n, n x uop {u64 addr, u64 pc, u8 class, u8 region, u8 size,
 *                       u8 src1, u8 src2, u8 mispredicted, u8 dest}
 *
 * The file is keyed by an identity string (workload, seed, run budget,
 * sample spec, cache/TLB/SPB geometry — everything warm state depends
 * on, and nothing it does not, such as the SB policy). A mismatched,
 * truncated or unreadable file is treated as absent: the run falls
 * back to live warming and rewrites it. So is a file with an index
 * outside the run's geometry, a count larger than the bytes behind it,
 * or another magic — an `SPBSMP01` file of full per-window images is a
 * stale entry like any other. Writes go to a temporary file followed
 * by an atomic rename, so concurrent sweep jobs racing on the same
 * path each produce a complete, identical file.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sample/warm.hh"

namespace spburst::sample
{

/** On-disk warm-state checkpoint: identity + one delta per period. */
struct Checkpoint
{
    std::string identity;
    std::vector<WindowDelta> windows;
    /** Uops functionally warmed by the writing run (throughput info). */
    std::uint64_t warmedUops = 0;

    /** Serialize to @p path via temp file + atomic rename; fatal on
     *  I/O errors, a failed flush included (a broken checkpoint path
     *  is a config error). */
    void save(const std::string &path) const;

    /**
     * Load @p path into @p out if it exists, parses, its identity
     * equals @p identity, and every frame and TLB index fits @p image,
     * the warm image the windows will be applied to.
     * @return True on success; false (out untouched or partially
     *         filled, caller must discard) when absent or invalid.
     */
    static bool load(const std::string &path,
                     const std::string &identity, const WarmImage &image,
                     Checkpoint &out);
};

} // namespace spburst::sample
