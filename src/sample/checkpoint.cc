#include "sample/checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/logging.hh"

namespace spburst::sample
{

namespace
{

constexpr char kMagic[8] = {'S', 'P', 'B', 'S', 'M', 'P', '0', '2'};

// Encoded sizes (see the format in checkpoint.hh). The loader checks
// every count against the bytes left before it allocates.
constexpr std::size_t kFrameBytes = 4 + 8 + 1 + 8;
constexpr std::size_t kTlbEntryBytes = 4 + 8 + 8;
constexpr std::size_t kUopBytes = 8 + 8 + 7;
/** A window with empty deltas, no TLB entries and no uops. */
constexpr std::size_t kMinWindowBytes =
    8 + 3 * (8 + 4) + (8 + 4) + (8 + 8 + 4 + 4 + 4 + 8) + 4;

/** Little-endian encoder into a byte buffer. */
class Encoder
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }

    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        bytes_.insert(bytes_.end(), b, b + n);
    }

    /** Write the buffered bytes to @p f and empty the buffer.
     *  @return False if fwrite wrote fewer bytes. */
    bool
    flush(std::FILE *f)
    {
        const bool ok =
            std::fwrite(bytes_.data(), 1, bytes_.size(), f) ==
            bytes_.size();
        bytes_.clear();
        return ok;
    }

  private:
    void
    put(std::uint64_t v, int n)
    {
        unsigned char b[8];
        for (int i = 0; i < n; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes_.insert(bytes_.end(), b, b + n);
    }

    std::vector<unsigned char> bytes_;
};

/** Bounds-checked little-endian decoder over a file read into memory:
 *  a read past the end fails instead of reading it. */
class Decoder
{
  public:
    explicit Decoder(const std::vector<unsigned char> &bytes)
        : p_(bytes.data()), left_(bytes.size())
    {
    }

    bool u8(std::uint8_t &v) { return get(v, 1); }
    bool u32(std::uint32_t &v) { return get(v, 4); }
    bool u64(std::uint64_t &v) { return get(v, 8); }

    bool
    raw(void *dst, std::size_t n)
    {
        if (n > left_)
            return false;
        std::memcpy(dst, p_, n);
        p_ += n;
        left_ -= n;
        return true;
    }

    /** True if @p count records of @p size bytes fit in what is left. */
    bool
    fits(std::uint64_t count, std::size_t size) const
    {
        return count <= left_ / size;
    }

    std::size_t left() const { return left_; }

  private:
    template <typename T>
    bool
    get(T &v, std::size_t n)
    {
        if (n > left_)
            return false;
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < n; ++i)
            x |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
        v = static_cast<T>(x);
        p_ += n;
        left_ -= n;
        return true;
    }

    const unsigned char *p_;
    std::size_t left_;
};

// ---- windows ---------------------------------------------------------

void
putCache(Encoder &out, const CacheTagDelta &c)
{
    out.u64(c.lruClock);
    out.u32(static_cast<std::uint32_t>(c.frames.size()));
    for (const CacheTagDelta::Frame &fr : c.frames) {
        out.u32(fr.index);
        out.u64(fr.tag);
        out.u8(static_cast<std::uint8_t>(fr.state));
        out.u64(fr.lastTouch);
    }
}

/** Decode one level's delta; every frame index must be < @p frames. */
bool
getCache(Decoder &in, std::size_t frames, CacheTagDelta &c)
{
    std::uint32_t n = 0;
    if (!in.u64(c.lruClock) || !in.u32(n) || !in.fits(n, kFrameBytes))
        return false;
    c.frames.resize(n);
    for (CacheTagDelta::Frame &fr : c.frames) {
        std::uint8_t state = 0;
        if (!in.u32(fr.index) || !in.u64(fr.tag) || !in.u8(state) ||
            !in.u64(fr.lastTouch))
            return false;
        if (fr.index >= frames ||
            state > static_cast<std::uint8_t>(CohState::Modified))
            return false;
        fr.state = static_cast<CohState>(state);
    }
    return true;
}

void
putWindow(Encoder &out, const WindowDelta &w)
{
    out.u64(w.startUop);
    putCache(out, w.l1);
    putCache(out, w.l2);
    putCache(out, w.l3);
    out.u64(w.tlb.useClock);
    out.u32(static_cast<std::uint32_t>(w.tlb.entries.size()));
    for (const TlbSnapshot::Entry &e : w.tlb.entries) {
        out.u32(e.index);
        out.u64(e.page);
        out.u64(e.lastUse);
    }
    out.u64(w.detector.lastBlock);
    out.u64(w.detector.lastAddr);
    out.u32(w.detector.satCounter);
    out.u32(w.detector.backwardCounter);
    out.u32(w.detector.storeCount);
    out.u64(w.detector.windowBytes);
    out.u32(static_cast<std::uint32_t>(w.uops.size()));
    for (const MicroOp &op : w.uops) {
        out.u64(op.addr);
        out.u64(op.pc);
        out.u8(static_cast<std::uint8_t>(op.cls));
        out.u8(static_cast<std::uint8_t>(op.region));
        out.u8(op.size);
        out.u8(op.srcDist1);
        out.u8(op.srcDist2);
        out.u8(op.mispredicted ? 1 : 0);
        out.u8(op.hasDest ? 1 : 0);
    }
}

/** Decode one window; every index must fit @p image's arrays. */
bool
getWindow(Decoder &in, const WarmImage &image, WindowDelta &w)
{
    if (!in.u64(w.startUop) ||
        !getCache(in, image.l1().frames().size(), w.l1) ||
        !getCache(in, image.l2().frames().size(), w.l2) ||
        !getCache(in, image.l3().frames().size(), w.l3))
        return false;
    std::uint32_t n = 0;
    if (!in.u64(w.tlb.useClock) || !in.u32(n) ||
        !in.fits(n, kTlbEntryBytes))
        return false;
    w.tlb.entries.resize(n);
    for (TlbSnapshot::Entry &e : w.tlb.entries) {
        if (!in.u32(e.index) || !in.u64(e.page) || !in.u64(e.lastUse) ||
            e.index >= image.tlb().params().entries)
            return false;
    }
    std::uint32_t sat = 0, back = 0, count = 0;
    if (!in.u64(w.detector.lastBlock) || !in.u64(w.detector.lastAddr) ||
        !in.u32(sat) || !in.u32(back) || !in.u32(count) ||
        !in.u64(w.detector.windowBytes))
        return false;
    w.detector.satCounter = sat;
    w.detector.backwardCounter = back;
    w.detector.storeCount = count;
    if (!in.u32(n) || !in.fits(n, kUopBytes))
        return false;
    w.uops.resize(n);
    for (MicroOp &op : w.uops) {
        std::uint8_t cls = 0, region = 0, mispred = 0, has_dest = 0;
        if (!in.u64(op.addr) || !in.u64(op.pc) || !in.u8(cls) ||
            !in.u8(region) || !in.u8(op.size) || !in.u8(op.srcDist1) ||
            !in.u8(op.srcDist2) || !in.u8(mispred) || !in.u8(has_dest))
            return false;
        if (cls >= kNumOpClasses || region >= kNumRegions)
            return false;
        op.cls = static_cast<OpClass>(cls);
        op.region = static_cast<Region>(region);
        op.mispredicted = mispred != 0;
        op.hasDest = has_dest != 0;
    }
    return true;
}

/** Read all of regular file @p path into @p bytes with one fread. */
bool
readFile(const std::string &path, std::vector<unsigned char> &bytes)
{
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        return false;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        return false;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    bytes.resize(size);
    const bool ok = std::fread(bytes.data(), 1, bytes.size(), f) ==
                        bytes.size() &&
                    std::fgetc(f) == EOF;
    std::fclose(f);
    return ok;
}

} // namespace

void
Checkpoint::save(const std::string &path) const
{
    // Unique-per-writer temp name: concurrent sweep jobs racing on one
    // checkpoint path each write a private file, then atomically
    // rename. Every racer writes identical bytes (the state is
    // policy-independent), so whichever rename lands last is fine.
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%p",
                  static_cast<const void *>(&suffix[0]));
    const std::string tmp = path + suffix;
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        SPB_FATAL("cannot write checkpoint temp file '%s'", tmp.c_str());
    Encoder out;
    out.raw(kMagic, sizeof(kMagic));
    out.u32(static_cast<std::uint32_t>(identity.size()));
    out.raw(identity.data(), identity.size());
    out.u64(warmedUops);
    out.u32(static_cast<std::uint32_t>(windows.size()));
    bool ok = out.flush(f);
    for (const WindowDelta &w : windows) {
        putWindow(out, w);
        ok = ok && out.flush(f);
    }
    // A failed flush on close is as fatal as a short write: neither
    // may leave a truncated file to be renamed into place.
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        SPB_FATAL("I/O error writing checkpoint '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        SPB_FATAL("cannot rename checkpoint into place at '%s'",
                  path.c_str());
    }
}

bool
Checkpoint::load(const std::string &path, const std::string &identity,
                 const WarmImage &image, Checkpoint &out)
{
    std::vector<unsigned char> bytes;
    if (!readFile(path, bytes))
        return false;
    Decoder in(bytes);
    char magic[8];
    if (!in.raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return false;
    std::uint32_t id_len = 0;
    if (!in.u32(id_len) || id_len > 4096 || !in.fits(id_len, 1))
        return false;
    std::string id(id_len, '\0');
    if (!in.raw(id.data(), id_len) || id != identity)
        return false;
    std::uint32_t window_count = 0;
    if (!in.u64(out.warmedUops) || !in.u32(window_count) ||
        !in.fits(window_count, kMinWindowBytes))
        return false;
    out.identity = id;
    out.windows.resize(window_count);
    for (WindowDelta &w : out.windows)
        if (!getWindow(in, image, w))
            return false;
    return in.left() == 0;
}

} // namespace spburst::sample
