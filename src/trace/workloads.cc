#include "trace/workloads.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/segments.hh"

namespace spburst
{

namespace
{

// Address-space layout (virtual == physical in this simulator).
constexpr Addr kPrivateSpan = 0x10'0000'0000ULL; //!< per-thread slice
constexpr Addr kStoreArenaOff = 0x0000'0000ULL;
constexpr Addr kCopySrcOff = 0x4000'0000ULL;
constexpr Addr kLoadWsOff = 0x8000'0000ULL;
constexpr Addr kSharedBase = 0x7000'0000'0000ULL;
constexpr std::uint64_t kSharedBytes = 8ULL << 20;

// Static PC bases so region labels map to stable "functions".
constexpr std::uint64_t kPcApp = 0x400000;
constexpr std::uint64_t kPcStrided = 0x410000;
constexpr std::uint64_t kPcChase = 0x420000;
constexpr std::uint64_t kPcAlu = 0x430000;
constexpr std::uint64_t kPcBranchy = 0x440000;
constexpr std::uint64_t kPcScatter = 0x450000;
constexpr std::uint64_t kPcSharedChase = 0x460000;
constexpr std::uint64_t kPcSharedStore = 0x470000;

std::uint64_t
burstPcBase(Region region)
{
    switch (region) {
      case Region::Memcpy: return 0x7f0000;
      case Region::Memset: return 0x7e0000;
      case Region::Calloc: return 0x7d0000;
      case Region::ClearPage: return 0xffff0000;
      case Region::OtherLib: return 0x7c0000;
      case Region::App: return kPcApp;
    }
    return kPcApp;
}

/** Short-hand builder for the profile tables below. */
struct P : ProfileParams
{
    P(std::string n, bool bound)
    {
        name = std::move(n);
        sbBound = bound;
    }
    P &burst(double w, double copy_share, Region r, std::uint64_t bytes,
             bool shuffled = false)
    {
        burstWeight = w;
        memcpyShare = copy_share;
        burstRegion = r;
        burstBytes = bytes;
        shuffledStores = shuffled;
        return *this;
    }
    P &loads(double chase, double strided, std::uint64_t ws)
    {
        chaseWeight = chase;
        stridedWeight = strided;
        loadWsBytes = ws;
        return *this;
    }
    P &compute(double alu, double fp)
    {
        aluWeight = alu;
        fpFraction = fp;
        return *this;
    }
    P &branches(double w, double mispredict)
    {
        branchyWeight = w;
        mispredictRate = mispredict;
        return *this;
    }
    P &scatter(double w)
    {
        scatterWeight = w;
        return *this;
    }
    P &storeArena(std::uint64_t bytes)
    {
        storeArenaBytes = bytes;
        return *this;
    }
    P &loadStoreOverlap()
    {
        loadsFromStoreArena = true;
        return *this;
    }
    P &shared(double f)
    {
        sharedFraction = f;
        return *this;
    }
};

std::vector<ProfileParams>
makeSpecProfiles()
{
    std::vector<ProfileParams> v;

    // ----- SB-bound applications (paper Figs. 1, 3, 6, 9, 15) -----
    // bwaves: Fortran array sweeps writing large blocks from app code.
    v.push_back(P("bwaves", true)
                    .burst(0.15, 0.25, Region::App, 8 << 10)
                    .loads(0.00, 0.37, 8 << 20)
                    .compute(0.40, 0.80)
                    .branches(0.10, 0.005));
    // cactuBSSN: grid (re)initialisation via memset plus stencil loads.
    v.push_back(P("cactuBSSN", true)
                    .burst(0.10, 0.15, Region::Memset, 8 << 10)
                    .loads(0.05, 0.40, 4 << 20)
                    .compute(0.40, 0.85)
                    .branches(0.10, 0.01));
    // x264: frame copies through libc memcpy dominate SB pressure.
    v.push_back(P("x264", true)
                    .burst(0.15, 0.80, Region::Memcpy, 12 << 10)
                    .loads(0.05, 0.21, 2 << 20)
                    .compute(0.40, 0.30)
                    .branches(0.20, 0.03));
    // blender: scene buffers allocated/zeroed via calloc + memset.
    v.push_back(P("blender", true)
                    .burst(0.09, 0.30, Region::Calloc, 8 << 10)
                    .loads(0.12, 0.20, 8 << 20)
                    .compute(0.42, 0.60)
                    .branches(0.18, 0.02));
    // cam4: OS page clearing (clear_page) plus physics kernels.
    v.push_back(P("cam4", true)
                    .burst(0.07, 0.40, Region::ClearPage, 4 << 10)
                    .loads(0.06, 0.33, 8 << 20)
                    .compute(0.40, 0.75)
                    .branches(0.15, 0.02));
    // deepsjeng: manual data movement between app data structures.
    v.push_back(P("deepsjeng", true)
                    .burst(0.12, 0.50, Region::App, 4 << 10)
                    .loads(0.18, 0.00, 4 << 20)
                    .compute(0.37, 0.00)
                    .branches(0.40, 0.06));
    // fotonik3d: field arrays zeroed then read back by the solver —
    // SPB's ownership prefetches also feed later loads (super-linear).
    v.push_back(P("fotonik3d", true)
                    .burst(0.11, 0.10, Region::Memset, 8 << 10)
                    .loads(0.12, 0.30, 4 << 20)
                    .compute(0.35, 0.85)
                    .branches(0.15, 0.02)
                    .storeArena(4 << 20)
                    .loadStoreOverlap());
    // roms: compiler-shuffled unrolled store loops; bursts evict a hot
    // L1-resident read set (the paper's conflict-miss pathology).
    v.push_back(P("roms", true)
                    .burst(0.13, 0.20, Region::App, 8 << 10, true)
                    .loads(0.13, 0.20, 16 << 10)
                    .compute(0.40, 0.80)
                    .branches(0.15, 0.015));

    // ----- Not SB-bound -----
    v.push_back(P("perlbench", false)
                    .burst(0.015, 0.70, Region::Memcpy, 1 << 10)
                    .loads(0.25, 0.05, 2 << 20)
                    .compute(0.25, 0.00)
                    .branches(0.35, 0.04));
    v.push_back(P("gcc", false)
                    .burst(0.02, 0.50, Region::App, 2 << 10)
                    .loads(0.30, 0.05, 4 << 20)
                    .compute(0.25, 0.00)
                    .branches(0.30, 0.05));
    v.push_back(P("mcf", false)
                    .loads(0.55, 0.05, 64 << 20)
                    .compute(0.10, 0.00)
                    .branches(0.30, 0.08)
                    .scatter(0.015)
                    .storeArena(4 << 20));
    v.push_back(P("omnetpp", false)
                    .loads(0.45, 0.05, 32 << 20)
                    .compute(0.20, 0.00)
                    .branches(0.25, 0.05)
                    .scatter(0.015)
                    .storeArena(4 << 20));
    v.push_back(P("xalancbmk", false)
                    .loads(0.40, 0.10, 8 << 20)
                    .compute(0.20, 0.00)
                    .branches(0.30, 0.04));
    v.push_back(P("leela", false)
                    .loads(0.15, 0.05, 512 << 10)
                    .compute(0.35, 0.00)
                    .branches(0.45, 0.08));
    v.push_back(P("exchange2", false)
                    .loads(0.05, 0.05, 64 << 10)
                    .compute(0.50, 0.00)
                    .branches(0.40, 0.05));
    v.push_back(P("xz", false)
                    .burst(0.015, 0.80, Region::Memcpy, 4 << 10)
                    .loads(0.35, 0.10, 32 << 20)
                    .compute(0.25, 0.00)
                    .branches(0.25, 0.04));
    v.push_back(P("namd", false)
                    .loads(0.05, 0.30, 1 << 20)
                    .compute(0.55, 0.90)
                    .branches(0.10, 0.01));
    v.push_back(P("parest", false)
                    .loads(0.10, 0.35, 16 << 20)
                    .compute(0.40, 0.90)
                    .branches(0.10, 0.01));
    v.push_back(P("povray", false)
                    .loads(0.10, 0.10, 512 << 10)
                    .compute(0.50, 0.80)
                    .branches(0.25, 0.03));
    v.push_back(P("lbm", false)
                    .burst(0.01, 0.00, Region::App, 4 << 10)
                    .loads(0.00, 0.55, 64 << 20)
                    .compute(0.25, 0.90)
                    .branches(0.05, 0.005)
                    .scatter(0.02)
                    .storeArena(4 << 20));
    v.push_back(P("wrf", false)
                    .burst(0.02, 0.30, Region::ClearPage, 4 << 10)
                    .loads(0.05, 0.35, 8 << 20)
                    .compute(0.40, 0.85)
                    .branches(0.10, 0.01));
    v.push_back(P("imagick", false)
                    .loads(0.05, 0.25, 2 << 20)
                    .compute(0.55, 0.70)
                    .branches(0.15, 0.01));
    v.push_back(P("nab", false)
                    .loads(0.20, 0.10, 1 << 20)
                    .compute(0.50, 0.80)
                    .branches(0.15, 0.02));

    return v;
}

std::vector<ProfileParams>
makeParsecProfiles()
{
    std::vector<ProfileParams> v;

    // ----- SB-bound (paper Sec. V: bodytrack, dedup, ferret, x264) ----
    v.push_back(P("bodytrack", true)
                    .burst(0.08, 0.30, Region::Memset, 4 << 10)
                    .loads(0.10, 0.20, 2 << 20)
                    .compute(0.20, 0.60)
                    .branches(0.10, 0.03)
                    .shared(0.10));
    v.push_back(P("dedup", true)
                    .burst(0.12, 0.85, Region::Memcpy, 8 << 10)
                    .loads(0.20, 0.05, 16 << 20)
                    .compute(0.15, 0.00)
                    .branches(0.10, 0.03)
                    .shared(0.15));
    v.push_back(P("ferret", true)
                    .burst(0.09, 0.75, Region::Memcpy, 8 << 10)
                    .loads(0.25, 0.05, 8 << 20)
                    .compute(0.20, 0.40)
                    .branches(0.10, 0.03)
                    .shared(0.15));
    v.push_back(P("x264_parsec", true)
                    .burst(0.13, 0.80, Region::Memcpy, 12 << 10)
                    .loads(0.05, 0.15, 2 << 20)
                    .compute(0.15, 0.30)
                    .branches(0.15, 0.03)
                    .shared(0.05));

    // ----- Not SB-bound -----
    v.push_back(P("blackscholes", false)
                    .loads(0.00, 0.25, 1 << 20)
                    .compute(0.60, 0.90)
                    .branches(0.10, 0.01)
                    .shared(0.02));
    v.push_back(P("canneal", false)
                    .loads(0.55, 0.00, 64 << 20)
                    .compute(0.15, 0.00)
                    .branches(0.20, 0.05)
                    .scatter(0.03)
                    .storeArena(4 << 20)
                    .shared(0.25));
    v.push_back(P("facesim", false)
                    .burst(0.02, 0.20, Region::App, 4 << 10)
                    .loads(0.05, 0.35, 8 << 20)
                    .compute(0.40, 0.90)
                    .branches(0.10, 0.01)
                    .shared(0.05));
    v.push_back(P("fluidanimate", false)
                    .loads(0.10, 0.35, 4 << 20)
                    .compute(0.35, 0.85)
                    .branches(0.10, 0.02)
                    .scatter(0.03)
                    .storeArena(4 << 20)
                    .shared(0.15));
    v.push_back(P("streamcluster", false)
                    .loads(0.05, 0.55, 16 << 20)
                    .compute(0.25, 0.80)
                    .branches(0.10, 0.01)
                    .shared(0.30));
    v.push_back(P("swaptions", false)
                    .loads(0.05, 0.15, 512 << 10)
                    .compute(0.60, 0.90)
                    .branches(0.15, 0.02)
                    .shared(0.02));
    v.push_back(P("vips", false)
                    .burst(0.025, 0.60, Region::Memcpy, 8 << 10)
                    .loads(0.05, 0.35, 4 << 20)
                    .compute(0.30, 0.60)
                    .branches(0.15, 0.02)
                    .shared(0.05));

    return v;
}

} // namespace

const std::vector<ProfileParams> &
specProfiles()
{
    static const std::vector<ProfileParams> profiles = makeSpecProfiles();
    return profiles;
}

const std::vector<ProfileParams> &
parsecProfiles()
{
    static const std::vector<ProfileParams> profiles = makeParsecProfiles();
    return profiles;
}

const ProfileParams &
findProfile(const std::string &name)
{
    for (const auto &p : specProfiles())
        if (p.name == name)
            return p;
    for (const auto &p : parsecProfiles())
        if (p.name == name)
            return p;
    SPB_FATAL("unknown workload profile '%s'", name.c_str());
}

namespace
{

std::vector<std::string>
names(const std::vector<ProfileParams> &profiles, bool only_sb_bound)
{
    std::vector<std::string> out;
    for (const auto &p : profiles)
        if (!only_sb_bound || p.sbBound)
            out.push_back(p.name);
    return out;
}

} // namespace

std::vector<std::string>
allSpecNames()
{
    return names(specProfiles(), false);
}

std::vector<std::string>
sbBoundSpecNames()
{
    return names(specProfiles(), true);
}

std::vector<std::string>
allParsecNames()
{
    return names(parsecProfiles(), false);
}

std::vector<std::string>
sbBoundParsecNames()
{
    return names(parsecProfiles(), true);
}

namespace
{

/** Estimated uops one activation of a phase emits; profile weights are
 *  uop shares, so selection weights are share / activation length. */
double
burstActivationUops(const ProfileParams &p)
{
    const double stores = static_cast<double>(p.burstBytes) / 8.0;
    const double set_uops = stores * 1.25;  // 8 stores + alu + branch
    const double copy_uops = stores * 2.25; // + one load per store
    return p.memcpyShare * copy_uops + (1.0 - p.memcpyShare) * set_uops;
}

} // namespace

std::unique_ptr<TraceSource>
buildWorkload(const ProfileParams &params, std::uint64_t seed,
              int thread_id, int num_threads)
{
    SPB_ASSERT(thread_id >= 0 && thread_id < 256, "bad thread id %d",
               thread_id);
    const Addr priv = kPrivateSpan * static_cast<Addr>(thread_id + 1);
    const Addr store_arena = priv + kStoreArenaOff;
    const Addr copy_src = priv + kCopySrcOff;
    const Addr load_ws =
        params.loadsFromStoreArena ? store_arena : priv + kLoadWsOff;
    const std::uint64_t load_ws_bytes = params.loadsFromStoreArena
                                            ? params.storeArenaBytes
                                            : params.loadWsBytes;

    auto program = std::make_unique<WorkloadProgram>(
        params.name, seed * 0x9e3779b97f4a7c15ULL + thread_id + 1);

    const ProfileParams p = params; // captured by value in factories

    if (p.burstWeight > 0.0) {
        const std::uint64_t arena = p.storeArenaBytes;
        const std::uint64_t pc = burstPcBase(p.burstRegion);
        program->addPhase(
            [p, store_arena, copy_src, arena, pc](Rng &rng) -> AnySegment {
                const std::uint64_t bytes =
                    rng.range(p.burstBytes / 2, p.burstBytes * 3 / 2);
                const Addr start =
                    store_arena + pageAlign(rng.below(arena));
                if (rng.chance(p.memcpyShare)) {
                    const std::uint64_t src_window =
                        std::min<std::uint64_t>(arena, 8ULL << 20);
                    const Addr src =
                        copy_src + pageAlign(rng.below(src_window));
                    return CopyBurstSegment(
                        src, start, bytes, 8, p.burstRegion, pc + 0x1000);
                }
                return StoreBurstSegment(
                    start, bytes, 8, p.burstRegion, pc, p.shuffledStores);
            },
            p.burstWeight / burstActivationUops(p));
    }

    if (p.chaseWeight > 0.0) {
        program->addPhase(
            [load_ws, load_ws_bytes](Rng &rng) -> AnySegment {
                return PointerChaseSegment(
                    load_ws, load_ws_bytes, 128, kPcChase, &rng);
            },
            p.chaseWeight / 256.0);
    }

    if (p.stridedWeight > 0.0) {
        const bool fp = p.fpFraction > 0.5;
        program->addPhase(
            [load_ws, load_ws_bytes, fp](Rng &rng) -> AnySegment {
                const Addr start =
                    load_ws + blockAlign(rng.below(load_ws_bytes));
                return StridedLoadSegment(start, 8, 256, fp, kPcStrided);
            },
            p.stridedWeight / 576.0);
    }

    if (p.aluWeight > 0.0) {
        program->addPhase(
            [p](Rng &rng) -> AnySegment {
                return AluChainSegment(
                    256, p.fpFraction, 0.10, 0.02, kPcAlu, &rng);
            },
            p.aluWeight / 256.0);
    }

    if (p.branchyWeight > 0.0) {
        program->addPhase(
            [p, load_ws, load_ws_bytes](Rng &rng) -> AnySegment {
                return BranchyLoadSegment(
                    load_ws, load_ws_bytes, 96, p.mispredictRate,
                    kPcBranchy, &rng);
            },
            p.branchyWeight / 288.0);
    }

    if (p.scatterWeight > 0.0) {
        program->addPhase(
            [store_arena, p](Rng &rng) -> AnySegment {
                return ScatterStoreSegment(
                    store_arena, p.storeArenaBytes, 96, kPcScatter, &rng);
            },
            p.scatterWeight / 144.0);
    }

    // Multi-threaded runs add communication phases on a shared region.
    if (num_threads > 1 && p.sharedFraction > 0.0) {
        program->addPhase(
            [](Rng &rng) -> AnySegment {
                return PointerChaseSegment(
                    kSharedBase, kSharedBytes, 96, kPcSharedChase, &rng);
            },
            p.sharedFraction / 192.0);
        program->addPhase(
            [](Rng &rng) -> AnySegment {
                return ScatterStoreSegment(
                    kSharedBase, kSharedBytes, 32, kPcSharedStore, &rng);
            },
            p.sharedFraction * 0.2 / 48.0);
    }

    return program;
}

std::unique_ptr<TraceSource>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    return buildWorkload(findProfile(name), seed);
}

} // namespace spburst
