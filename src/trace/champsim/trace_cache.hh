/**
 * @file
 * Shared decoded-trace cache for compressed ChampSim traces.
 *
 * Decompressing a multi-GB `.xz` trace through a subprocess pipe is by
 * far the slowest part of opening a trace workload, and a sweep pays it
 * once per job per replay pass (the ROI loop reopens the file). This
 * cache decompresses each compressed trace ONCE into a cache file of
 * raw 64-byte records and serves every later open from a read-only
 * `mmap` of that file — concurrent jobs and repeated sweeps all share
 * it through the filesystem.
 *
 *  - Keying: the cache entry is named by the FNV-1a 64-bit hash of the
 *    compressed file's bytes, so a replaced or re-downloaded trace
 *    never aliases a stale entry (the old entry just goes cold).
 *  - Format: a 64-byte versioned header (magic, version, record size,
 *    record count, source hash + size) followed by the decompressed
 *    records verbatim. The payload is byte-identical to what the live
 *    decompressor streams, so cached and fresh replays decode the same
 *    records.
 *  - Publication: builders write a private `*.tmp.<pid>.<n>` file and
 *    `rename(2)` it into place, so readers only ever see complete
 *    entries and racing builders (parallel jobs, separate processes)
 *    are benign — last rename wins with identical content.
 *  - Validation: every open re-checks magic, version, record size,
 *    source hash/size and the payload length. A corrupt or
 *    version-mismatched entry is rebuilt from the source; if that
 *    fails too, the caller falls back to live decode.
 *  - A trace whose decompressed size is not a multiple of the record
 *    size is never cached: live decode must keep reporting the
 *    truncated-download error.
 *
 * The cache is opt-in: it is enabled by pointing `$SPBURST_TRACE_CACHE`
 * (or setTraceCacheDir()) at a directory, conventionally
 * `.spburst-trace-cache/` in the working tree (gitignored). Unset or
 * empty means every open decodes live, exactly as before.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/champsim/reader.hh"

namespace spburst::champsim
{

/**
 * Set the cache directory; an empty string disables the cache. The
 * initial value comes from `$SPBURST_TRACE_CACHE`. Call before opening
 * traces — concurrent readers do not expect the directory to move.
 */
void setTraceCacheDir(std::string dir);

/** The active cache directory; empty = caching disabled. */
const std::string &traceCacheDir();

/**
 * The cache-entry path a trace at @p path keys to (hash of its current
 * content), or "" when the cache is disabled or the file is unreadable.
 * Exposed for tests and tooling; does not create or validate anything.
 */
std::string traceCachePathFor(const std::string &path);

/**
 * Open the decoded-record cache entry for the compressed trace at
 * @p path, building it (decompress once, atomic rename) on a miss.
 * @return A read-only mmap-backed ByteSource positioned at the first
 *         record, or nullptr when the cache is disabled or unusable
 *         (unwritable directory, truncated source, ...) — the caller
 *         then falls back to live decode.
 */
std::unique_ptr<ByteSource> openCachedTrace(const std::string &path);

} // namespace spburst::champsim
