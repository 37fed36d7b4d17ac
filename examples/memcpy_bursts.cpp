/**
 * @file
 * Data-movement scenario (paper Sec. III-B): the workloads that hurt
 * most are dominated by memcpy/memset-style store bursts — frame
 * copies in x264, buffer zeroing in blender, kernel page clearing.
 *
 * This example builds a custom workload directly from the public
 * segment API (not a canned profile): a video-pipeline-like mix of
 * frame copies (memcpy), buffer zeroing (memset) and motion-search
 * loads, then dissects where SPB's benefit comes from using the
 * store-prefetch outcome classification.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/system.hh"
#include "trace/program.hh"
#include "trace/segments.hh"

using namespace spburst;

namespace
{

/** A hand-built "video pipeline" program using the segment API. */
std::unique_ptr<TraceSource>
makeVideoPipeline(std::uint64_t seed)
{
    auto program = std::make_unique<WorkloadProgram>("video", seed);
    const Addr frame_src = 0x1'0000'0000ULL;
    const Addr frame_dst = 0x2'0000'0000ULL;
    const Addr scratch = 0x3'0000'0000ULL;

    // Frame copies: 16 KiB memcpy bursts (the SB killer).
    program->addPhase(
        [=](Rng &rng) -> AnySegment {
            const Addr off = pageAlign(rng.below(32 << 20));
            return CopyBurstSegment(
                frame_src + pageAlign(rng.below(4 << 20)),
                frame_dst + off, 16 << 10, 8, Region::Memcpy, 0x7f0000);
        },
        0.10 / 4608.0); // ~10% of uops
    // Buffer zeroing: 8 KiB memsets.
    program->addPhase(
        [=](Rng &rng) -> AnySegment {
            const Addr off = pageAlign(rng.below(32 << 20));
            return StoreBurstSegment(
                scratch + off, 8 << 10, 8, Region::Memset, 0x7e0000);
        },
        0.04 / 1280.0);
    // Motion search: strided reads over the reference frame.
    program->addPhase(
        [=](Rng &rng) -> AnySegment {
            return StridedLoadSegment(
                frame_src + blockAlign(rng.below(4 << 20)), 8, 256,
                false, 0x410000);
        },
        0.45 / 576.0);
    // Decision logic: data-dependent branches.
    program->addPhase(
        [=](Rng &rng) -> AnySegment {
            return BranchyLoadSegment(frame_src, 2 << 20, 96, 0.03,
                                      0x440000, &rng);
        },
        0.2 / 288.0);
    // Arithmetic (DCT-ish).
    program->addPhase(
        [](Rng &rng) -> AnySegment {
            return AluChainSegment(256, 0.3, 0.1, 0.01, 0x430000, &rng);
        },
        0.21 / 256.0);
    return program;
}

SimResult
runPipeline(StorePrefetchPolicy policy, bool spb, bool ideal,
            unsigned sb)
{
    // Drive the System through its public per-cycle API with a custom
    // trace: build the system pieces manually.
    SimClock clock;
    MemorySystem mem(MemSystemParams::tableI(1), &clock);
    auto trace = makeVideoPipeline(7);

    CoreConfig cc;
    cc.params.sqSize = sb;
    cc.policy = policy;
    cc.useSpb = spb;
    cc.idealSb = ideal;
    Core core(cc, 0, &clock, &mem.l1d(0), trace.get());

    while (core.committed() < 200'000) {
        clock.tick();
        core.tick();
    }
    mem.finalizeStats();

    SimResult r;
    r.workload = "video-pipeline";
    r.cycles = clock.now;
    r.cores.push_back(core.stats());
    r.sbs.push_back(core.storeBuffer().stats());
    if (core.spbEngine())
        r.spbs.push_back(core.spbEngine()->stats());
    r.l1d.push_back(mem.l1d(0).stats());
    return r;
}

} // namespace

int
main()
{
    std::puts("Custom video-pipeline workload built from the segment "
              "API (frame copies + zeroing + motion search)\n");

    for (unsigned sb : {56u, 14u}) {
        TextTable table("SB" + std::to_string(sb),
                        {"strategy", "cycles", "IPC", "SB-stall%",
                         "PF successful", "PF late", "bursts"});
        struct V
        {
            const char *label;
            StorePrefetchPolicy policy;
            bool spb, ideal;
        };
        for (const V &v : {V{"at-commit", StorePrefetchPolicy::AtCommit,
                             false, false},
                           V{"SPB", StorePrefetchPolicy::AtCommit, true,
                             false},
                           V{"ideal", StorePrefetchPolicy::AtCommit,
                             false, true}}) {
            const SimResult r =
                runPipeline(v.policy, v.spb, v.ideal, sb);
            table.addRow(
                {v.label, std::to_string(r.cycles),
                 formatDouble(r.ipc(), 3),
                 formatPercent(r.sbStallRatio()),
                 std::to_string(r.l1d[0].pfSuccessful),
                 std::to_string(r.l1d[0].pfLate),
                 std::to_string(r.spbs.empty() ? 0 : r.spbs[0].bursts)});
        }
        table.print();
        std::puts("");
    }

    std::puts("Reading: at-commit's prefetches are almost all LATE (the"
              " request fires at the end of the store's life); SPB"
              " converts them into successful prefetches by predicting"
              " the rest of each page, and the win grows as the SB"
              " shrinks.");
    return 0;
}
