/**
 * @file
 * Tests for the ChampSim trace frontend: the binary codec, the
 * (compressed) file readers, the instruction cracker, the replay
 * TraceSource with its skip/warmup/roi semantics, the `trace:`
 * workload wiring through System and the experiment engine, and the
 * determinism of replaying the checked-in fixture trace
 * (tests/data/fixture.champsim) across host-side configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "exp/engine.hh"
#include "sim/system.hh"
#include "trace/champsim/crack.hh"
#include "trace/champsim/format.hh"
#include "trace/champsim/reader.hh"
#include "trace/champsim/source.hh"
#include "trace/champsim/trace_cache.hh"

namespace spburst
{
namespace
{

using champsim::BranchKind;
using champsim::Cracker;
using champsim::Decoder;
using champsim::Record;
using champsim::TraceReplaySource;
using champsim::TraceSpec;
using champsim::Writer;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "spburst_" + name;
}

std::string
fixturePath(const char *name)
{
    return std::string(SPBURST_CHAMPSIM_FIXTURES) + "/" + name;
}

/** A minimal well-formed record: one ALU op reading/writing reg 1. */
Record
aluRecord(std::uint64_t ip)
{
    Record r;
    r.ip = ip;
    r.srcRegs[0] = 1;
    r.destRegs[0] = 1;
    return r;
}

std::string
writeRecords(const std::string &name, const std::vector<Record> &recs)
{
    const std::string path = tmpPath(name);
    Writer w(path);
    for (const Record &r : recs)
        w.append(r);
    w.close();
    return path;
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

TEST(ChampsimFormat, EncodeDecodeRoundTrip)
{
    Record r;
    r.ip = 0x123456789abcdef0ULL;
    r.isBranch = 1;
    r.branchTaken = 1;
    r.destRegs[0] = 26;
    r.destRegs[1] = 6;
    r.srcRegs[0] = 25;
    r.srcRegs[1] = 6;
    r.srcRegs[2] = 26;
    r.srcRegs[3] = 7;
    r.destMem[0] = 0x1000;
    r.destMem[1] = 0x2000;
    r.srcMem[0] = 0x3000;
    r.srcMem[3] = 0x6000;

    unsigned char buf[champsim::kRecordBytes];
    champsim::encodeRecord(r, buf);
    Record out;
    champsim::decodeRecord(buf, out);

    EXPECT_EQ(out.ip, r.ip);
    EXPECT_EQ(out.isBranch, r.isBranch);
    EXPECT_EQ(out.branchTaken, r.branchTaken);
    for (int i = 0; i < champsim::kNumDestRegs; ++i)
        EXPECT_EQ(out.destRegs[i], r.destRegs[i]);
    for (int i = 0; i < champsim::kNumSrcRegs; ++i)
        EXPECT_EQ(out.srcRegs[i], r.srcRegs[i]);
    for (int i = 0; i < champsim::kNumDestMem; ++i)
        EXPECT_EQ(out.destMem[i], r.destMem[i]);
    for (int i = 0; i < champsim::kNumSrcMem; ++i)
        EXPECT_EQ(out.srcMem[i], r.srcMem[i]);
}

TEST(ChampsimFormat, LayoutMatchesChampsimOnDiskOffsets)
{
    // Pin the wire format byte-for-byte: the struct offsets of
    // ChampSim's input_instr, little-endian.
    Record r;
    r.ip = 0x0807060504030201ULL;
    r.isBranch = 0xaa;
    r.branchTaken = 0xbb;
    r.destRegs[0] = 0xc0;
    r.destRegs[1] = 0xc1;
    r.srcRegs[0] = 0xd0;
    r.srcRegs[3] = 0xd3;
    r.destMem[1] = 0x1122334455667788ULL;
    r.srcMem[2] = 0x99;

    unsigned char buf[champsim::kRecordBytes];
    champsim::encodeRecord(r, buf);
    EXPECT_EQ(buf[0], 0x01); // ip, little-endian
    EXPECT_EQ(buf[7], 0x08);
    EXPECT_EQ(buf[8], 0xaa);  // is_branch
    EXPECT_EQ(buf[9], 0xbb);  // branch_taken
    EXPECT_EQ(buf[10], 0xc0); // destination_registers
    EXPECT_EQ(buf[11], 0xc1);
    EXPECT_EQ(buf[12], 0xd0); // source_registers
    EXPECT_EQ(buf[15], 0xd3);
    EXPECT_EQ(buf[24], 0x88); // destination_memory[1]
    EXPECT_EQ(buf[31], 0x11);
    EXPECT_EQ(buf[48], 0x99); // source_memory[2]
}

// ---------------------------------------------------------------------
// Decoder and byte sources
// ---------------------------------------------------------------------

TEST(ChampsimDecoder, ReadsBackWrittenRecords)
{
    std::vector<Record> recs;
    for (int i = 0; i < 700; ++i) // larger than the decode buffer
        recs.push_back(aluRecord(0x1000 + i * 4u));
    const std::string path = writeRecords("decode.champsim", recs);

    Decoder dec(path);
    Record r;
    std::uint64_t n = 0;
    while (dec.next(r)) {
        EXPECT_EQ(r.ip, 0x1000 + n * 4);
        ++n;
    }
    EXPECT_EQ(n, recs.size());
    EXPECT_EQ(dec.position(), recs.size());
    std::remove(path.c_str());
}

TEST(ChampsimDecoder, SkipAndReopen)
{
    std::vector<Record> recs;
    for (int i = 0; i < 100; ++i)
        recs.push_back(aluRecord(0x1000 + i * 4u));
    const std::string path = writeRecords("skip.champsim", recs);

    Decoder dec(path);
    EXPECT_EQ(dec.skip(40), 40u);
    Record r;
    ASSERT_TRUE(dec.next(r));
    EXPECT_EQ(r.ip, 0x1000 + 40 * 4u);

    // Skipping past the end reports the true count.
    EXPECT_EQ(dec.skip(1000), 59u);
    EXPECT_FALSE(dec.next(r));

    dec.reopen();
    EXPECT_EQ(dec.position(), 0u);
    ASSERT_TRUE(dec.next(r));
    EXPECT_EQ(r.ip, 0x1000u);
    std::remove(path.c_str());
}

TEST(ChampsimDecoder, PartialTrailingRecordIsFatal)
{
    const std::string path =
        writeRecords("partial.champsim", {aluRecord(0x1000)});
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("xyz", f); // 3 trailing bytes
    std::fclose(f);

    Decoder dec(path);
    Record r;
    ASSERT_TRUE(dec.next(r));
    FatalThrowGuard guard;
    EXPECT_THROW(dec.next(r), FatalError);
    std::remove(path.c_str());
}

TEST(ChampsimDecoder, MissingFileIsFatal)
{
    FatalThrowGuard guard;
    EXPECT_THROW(Decoder("/nonexistent/no-such-trace.champsim"),
                 FatalError);
}

TEST(ChampsimDecoder, GzipFixtureMatchesPlainFixture)
{
    Decoder plain(fixturePath("fixture.champsim"));
    Decoder gz(fixturePath("fixture.champsim.gz"));
    Record a, b;
    std::uint64_t n = 0;
    while (plain.next(a)) {
        ASSERT_TRUE(gz.next(b)) << "gz stream shorter at record " << n;
        ASSERT_EQ(a.ip, b.ip) << "divergence at record " << n;
        ASSERT_EQ(a.destMem[0], b.destMem[0]);
        ++n;
    }
    EXPECT_FALSE(gz.next(b)) << "gz stream longer than plain";
    EXPECT_GT(n, 2000u);
}

TEST(ChampsimDecoder, XzFixtureMatchesPlainFixture)
{
    Decoder plain(fixturePath("fixture.champsim"));
    Decoder xz(fixturePath("fixture.champsim.xz"));
    Record a, b;
    std::uint64_t n = 0;
    while (plain.next(a)) {
        ASSERT_TRUE(xz.next(b)) << "xz stream shorter at record " << n;
        ASSERT_EQ(a.ip, b.ip) << "divergence at record " << n;
        ++n;
    }
    EXPECT_FALSE(xz.next(b)) << "xz stream longer than plain";
}

// ---------------------------------------------------------------------
// Decoded-trace cache
// ---------------------------------------------------------------------

std::vector<std::uint64_t>
decodeAllIps(const std::string &path)
{
    Decoder dec(path);
    Record r;
    std::vector<std::uint64_t> ips;
    while (dec.next(r))
        ips.push_back(r.ip);
    return ips;
}

std::string
readAllBytes(champsim::ByteSource &src)
{
    std::string all;
    char buf[1 << 16];
    std::size_t n;
    while ((n = src.read(buf, sizeof(buf))) > 0)
        all.append(buf, n);
    return all;
}

/**
 * Each test gets a private cache directory over the .xz fixture, with
 * the live-decoded record stream captured first as ground truth.
 * Caching is switched off again (and the entry removed) afterwards so
 * the other tests keep exercising the live readers.
 */
class ChampsimTraceCache : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = tmpPath(std::string("trace_cache_") +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        xz_ = fixturePath("fixture.champsim.xz");
        champsim::setTraceCacheDir("");
        truth_ = decodeAllIps(xz_);
        champsim::setTraceCacheDir(dir_);
        entry_ = champsim::traceCachePathFor(xz_);
        ASSERT_FALSE(entry_.empty());
    }

    void
    TearDown() override
    {
        champsim::setTraceCacheDir("");
        std::remove(entry_.c_str());
        rmdir(dir_.c_str());
    }

    std::string dir_, xz_, entry_;
    std::vector<std::uint64_t> truth_;
};

TEST_F(ChampsimTraceCache, CachedReplayIsByteIdenticalToFreshDecode)
{
    EXPECT_GT(truth_.size(), 2000u);
    // The first open decompresses into the cache and serves from it...
    EXPECT_EQ(decodeAllIps(xz_), truth_);
    std::FILE *f = std::fopen(entry_.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "first open must publish " << entry_;
    std::fclose(f);
    // ...and a pure hit replays identically, byte for byte.
    EXPECT_EQ(decodeAllIps(xz_), truth_);
    const auto cached = champsim::openByteSource(xz_);
    const auto live = champsim::openLiveByteSource(xz_);
    EXPECT_EQ(readAllBytes(*cached), readAllBytes(*live));
}

TEST_F(ChampsimTraceCache, ReadsComeFromTheMappedEntry)
{
    ASSERT_EQ(decodeAllIps(xz_), truth_); // builds the entry
    // Flip one payload byte (record 0's ip) without changing the
    // length: validation still passes, so the decoder must see the
    // altered value — proof the bytes come from the cache, not xz.
    std::FILE *f = std::fopen(entry_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    const auto ips = decodeAllIps(xz_);
    ASSERT_EQ(ips.size(), truth_.size());
    EXPECT_NE(ips[0], truth_[0]);
    EXPECT_EQ(ips[1], truth_[1]);
}

TEST_F(ChampsimTraceCache, VersionMismatchNeverCorruptsReplay)
{
    ASSERT_EQ(decodeAllIps(xz_), truth_);
    // Stamp a future format version into the header.
    std::FILE *f = std::fopen(entry_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
    const std::uint32_t bogus = 0xfffffffe;
    std::fwrite(&bogus, sizeof(bogus), 1, f);
    std::fclose(f);

    EXPECT_EQ(decodeAllIps(xz_), truth_)
        << "a version-mismatched entry must be rebuilt or bypassed";
}

TEST_F(ChampsimTraceCache, TruncatedEntryFallsBackToLiveDecode)
{
    ASSERT_EQ(decodeAllIps(xz_), truth_);
    // Chop the entry mid-record: the length check must reject it.
    ASSERT_EQ(truncate(entry_.c_str(), 64 + 32), 0);
    EXPECT_EQ(decodeAllIps(xz_), truth_);
}

TEST_F(ChampsimTraceCache, UnusableCacheDirectoryDecodesLive)
{
    const std::string blocker = tmpPath("trace_cache_blocker");
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    champsim::setTraceCacheDir(blocker); // a file, not a directory
    EXPECT_EQ(decodeAllIps(xz_), truth_);
    std::remove(blocker.c_str());
}

// ---------------------------------------------------------------------
// Branch classification (ChampSim's register heuristic)
// ---------------------------------------------------------------------

TEST(ChampsimCracker, ClassifiesBranchKinds)
{
    Record r;
    r.isBranch = 1;

    r.destRegs[0] = champsim::kRegInstructionPointer;
    EXPECT_EQ(Cracker::classify(r), BranchKind::DirectJump);

    r.srcRegs[0] = 3; // target from a general register
    EXPECT_EQ(Cracker::classify(r), BranchKind::Indirect);

    r.srcRegs[0] = champsim::kRegFlags;
    EXPECT_EQ(Cracker::classify(r), BranchKind::Conditional);

    Record call;
    call.isBranch = 1;
    call.srcRegs[0] = champsim::kRegStackPointer;
    call.srcRegs[1] = champsim::kRegInstructionPointer;
    call.destRegs[0] = champsim::kRegStackPointer;
    call.destRegs[1] = champsim::kRegInstructionPointer;
    EXPECT_EQ(Cracker::classify(call), BranchKind::DirectCall);

    call.srcRegs[2] = 3;
    EXPECT_EQ(Cracker::classify(call), BranchKind::IndirectCall);

    Record ret;
    ret.isBranch = 1;
    ret.srcRegs[0] = champsim::kRegStackPointer;
    ret.destRegs[0] = champsim::kRegStackPointer;
    ret.destRegs[1] = champsim::kRegInstructionPointer;
    EXPECT_EQ(Cracker::classify(ret), BranchKind::Return);

    Record odd;
    odd.isBranch = 1; // branch flag set, no recognised pattern
    EXPECT_EQ(Cracker::classify(odd), BranchKind::Other);

    Record plain;
    EXPECT_EQ(Cracker::classify(plain), BranchKind::NotBranch);
}

// ---------------------------------------------------------------------
// Cracking records into MicroOps
// ---------------------------------------------------------------------

TEST(ChampsimCracker, PureAluInstruction)
{
    Cracker c;
    std::vector<MicroOp> out;
    c.crack(aluRecord(0x1000), 0x1004, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].cls, OpClass::IntAlu);
    EXPECT_EQ(out[0].pc, 0x1000u);
    EXPECT_TRUE(out[0].hasDest);
}

TEST(ChampsimCracker, RegisterDependenceBecomesBackwardDistance)
{
    Cracker c;
    std::vector<MicroOp> out;
    Record def; // writes reg 5
    def.ip = 0x1000;
    def.destRegs[0] = 5;
    c.crack(def, 0x1004, out);
    Record use; // reads reg 5
    use.ip = 0x1004;
    use.srcRegs[0] = 5;
    use.destRegs[0] = 6;
    c.crack(use, 0x1008, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].srcDist1, 1) << "consumer is 1 uop after producer";
}

TEST(ChampsimCracker, PureLoadNeedsNoAluUop)
{
    // mov reg, [mem]: the load uop itself is the register writer.
    Cracker c;
    std::vector<MicroOp> out;
    Record ld;
    ld.ip = 0x1000;
    ld.srcMem[0] = 0x4000;
    ld.destRegs[0] = 7;
    c.crack(ld, 0x1004, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].cls, OpClass::Load);
    EXPECT_TRUE(out[0].hasDest);

    // A consumer of reg 7 depends on the load directly.
    Record use;
    use.ip = 0x1004;
    use.srcRegs[0] = 7;
    use.destRegs[0] = 8;
    c.crack(use, 0x1008, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].srcDist1, 1);
}

TEST(ChampsimCracker, ReadModifyWriteCracksLoadAluStore)
{
    Cracker c;
    std::vector<MicroOp> out;
    Record rmw; // add [mem], reg
    rmw.ip = 0x1000;
    rmw.srcRegs[0] = 3;
    rmw.srcMem[0] = 0x4000;
    rmw.destMem[0] = 0x4000;
    rmw.destRegs[0] = 25; // flags
    c.crack(rmw, 0x1004, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].cls, OpClass::Load);
    EXPECT_EQ(out[1].cls, OpClass::IntAlu);
    EXPECT_EQ(out[2].cls, OpClass::Store);
    EXPECT_EQ(out[1].srcDist1, 1) << "ALU consumes the load";
    EXPECT_EQ(out[2].srcDist1, 1) << "store data comes from the ALU";
}

TEST(ChampsimCracker, StoreWithoutComputePartStillEmits)
{
    // mov [mem], reg: store only.
    Cracker c;
    std::vector<MicroOp> out;
    Record st;
    st.ip = 0x1000;
    st.srcRegs[0] = 3;
    st.destMem[0] = 0x4000;
    c.crack(st, 0x1004, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].cls, OpClass::Store);
    EXPECT_EQ(out[0].addr, 0x4000u);
    EXPECT_EQ(out[0].region, Region::App);
}

TEST(ChampsimCracker, AccessesClampAtBlockBoundary)
{
    Cracker c;
    std::vector<MicroOp> out;
    Record st;
    st.ip = 0x1000;
    st.destMem[0] = 0x403c; // 4 bytes before a block edge
    c.crack(st, 0x1004, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size, 4u) << "access must not cross the block";
    EXPECT_EQ(c.stats().memClamped, 1u);
}

TEST(ChampsimCracker, BranchUopCarriesPredictionOutcome)
{
    // A conditional alternating taken/not-taken defeats the bimodal
    // predictor on some iterations: mispredicts must be nonzero, and
    // a monotone branch must settle to zero mispredicts.
    Cracker c;
    std::vector<MicroOp> out;
    auto cond = [](std::uint64_t ip, bool taken) {
        Record r;
        r.ip = ip;
        r.isBranch = 1;
        r.branchTaken = taken ? 1 : 0;
        r.srcRegs[0] = champsim::kRegFlags;
        r.destRegs[0] = champsim::kRegInstructionPointer;
        return r;
    };
    for (int i = 0; i < 64; ++i)
        c.crack(cond(0x1000, i % 2 == 0), 0x1004, out);
    EXPECT_GT(c.stats().predictedMispredicts, 0u);

    Cracker steady;
    out.clear();
    for (int i = 0; i < 64; ++i)
        steady.crack(cond(0x2000, true), 0x2004, out);
    // Bimodal warms up in <= 2 steps; everything after predicts right.
    EXPECT_LE(steady.stats().predictedMispredicts, 2u);
    EXPECT_EQ(steady.stats().branchKind[static_cast<int>(
                  BranchKind::Conditional)],
              64u);
}

// ---------------------------------------------------------------------
// TraceSpec parsing
// ---------------------------------------------------------------------

TEST(ChampsimSpec, ParsesPathAndOptions)
{
    const TraceSpec s =
        TraceSpec::parse("/traces/x.champsim.xz,skip=5,warmup=10,roi=20");
    EXPECT_EQ(s.path, "/traces/x.champsim.xz");
    EXPECT_EQ(s.skipInstrs, 5u);
    EXPECT_EQ(s.warmupInstrs, 10u);
    EXPECT_EQ(s.roiInstrs, 20u);
    EXPECT_EQ(s.toString(),
              "trace:/traces/x.champsim.xz,skip=5,warmup=10,roi=20");

    const TraceSpec bare = TraceSpec::parse("t.champsim");
    EXPECT_EQ(bare.path, "t.champsim");
    EXPECT_EQ(bare.skipInstrs, 0u);
    EXPECT_EQ(bare.toString(), "trace:t.champsim");
}

TEST(ChampsimSpec, RejectsGarbage)
{
    FatalThrowGuard guard;
    EXPECT_THROW(TraceSpec::parse(""), FatalError);
    EXPECT_THROW(TraceSpec::parse("x,frobnicate=3"), FatalError);
    EXPECT_THROW(TraceSpec::parse("x,skip=abc"), FatalError);
    EXPECT_THROW(TraceSpec::parse("x,skip="), FatalError);
    EXPECT_THROW(champsim::parseTraceWorkload("x264"), FatalError);
}

TEST(ChampsimSpec, WorkloadNameDetection)
{
    EXPECT_TRUE(champsim::isTraceWorkload("trace:/a/b.champsim"));
    EXPECT_FALSE(champsim::isTraceWorkload("x264"));
    EXPECT_FALSE(champsim::isTraceWorkload("traced-thing"));
}

// ---------------------------------------------------------------------
// Replay source: skip / warmup / roi semantics
// ---------------------------------------------------------------------

TEST(ChampsimReplay, SkipWarmupRoiSemantics)
{
    // 100 records at ips 0x1000 + 4i. skip=10, warmup=20, roi=30:
    // pass 0 replays records 10..59 (warmup 10..29, ROI 30..59);
    // later passes replay exactly records 30..59.
    std::vector<Record> recs;
    for (int i = 0; i < 100; ++i)
        recs.push_back(aluRecord(0x1000 + i * 4u));
    const std::string path = writeRecords("roi.champsim", recs);

    TraceSpec spec;
    spec.path = path;
    spec.skipInstrs = 10;
    spec.warmupInstrs = 20;
    spec.roiInstrs = 30;
    TraceReplaySource src(spec);

    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 50 + 2 * 30; ++i)
        pcs.push_back(src.next().pc);

    // Pass 0: warmup + ROI.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(pcs[static_cast<std::size_t>(i)],
                  0x1000 + (10 + i) * 4u);
    // Passes 1 and 2: the ROI only, in a loop.
    for (int p = 0; p < 2; ++p)
        for (int i = 0; i < 30; ++i)
            EXPECT_EQ(pcs[static_cast<std::size_t>(50 + p * 30 + i)],
                      0x1000 + (30 + i) * 4u);

    const auto stats = src.stats();
    EXPECT_EQ(stats.passes, 3u);
    EXPECT_EQ(stats.instrsSkipped, 10u + 2 * 30);
    EXPECT_EQ(stats.instrsReplayed, 50u + 2 * 30);
    std::remove(path.c_str());
}

TEST(ChampsimReplay, RoiToEofLoopsWholeTrace)
{
    std::vector<Record> recs;
    for (int i = 0; i < 10; ++i)
        recs.push_back(aluRecord(0x1000 + i * 4u));
    const std::string path = writeRecords("loop.champsim", recs);

    TraceReplaySource src(TraceSpec{path, 0, 0, 0});
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(src.next().pc, 0x1000 + i * 4u);
    EXPECT_EQ(src.stats().passes, 3u);
    std::remove(path.c_str());
}

TEST(ChampsimReplay, EmptyRoiIsFatal)
{
    const std::string path =
        writeRecords("empty_roi.champsim", {aluRecord(0x1000)});
    TraceSpec spec;
    spec.path = path;
    spec.skipInstrs = 5; // beyond EOF
    TraceReplaySource src(spec);
    FatalThrowGuard guard;
    EXPECT_THROW(src.next(), FatalError);
    std::remove(path.c_str());
}

TEST(ChampsimReplay, ThreadsReplayIntoDisjointAddressSlices)
{
    std::vector<Record> recs;
    for (int i = 0; i < 4; ++i) {
        Record st;
        st.ip = 0x1000 + i * 4u;
        st.destMem[0] = 0x8000 + i * 8u;
        recs.push_back(st);
    }
    const std::string path = writeRecords("threads.champsim", recs);

    TraceReplaySource t0(TraceSpec{path, 0, 0, 0}, 0);
    TraceReplaySource t1(TraceSpec{path, 0, 0, 0}, 1);
    const MicroOp a = t0.next(), b = t1.next();
    EXPECT_EQ(a.pc, b.pc) << "same instruction stream";
    EXPECT_NE(a.addr, b.addr) << "private data slices";
    EXPECT_EQ(b.addr - a.addr, Addr{1} << 44);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fixture replay through the full system
// ---------------------------------------------------------------------

SystemConfig
fixtureConfig(const std::string &strategy)
{
    StorePrefetchPolicy policy = StorePrefetchPolicy::AtCommit;
    bool spb = false, ideal = false;
    if (strategy == "none")
        policy = StorePrefetchPolicy::None;
    else if (strategy == "at-execute")
        policy = StorePrefetchPolicy::AtExecute;
    else if (strategy == "spb")
        spb = true;
    else if (strategy == "ideal")
        ideal = true;
    SystemConfig cfg = makeConfig(
        "trace:" + fixturePath("fixture.champsim"), 56, policy, spb,
        ideal);
    cfg.maxUopsPerCore = 20'000;
    return cfg;
}

TEST(ChampsimFixture, ReplaysUnderAllFivePoliciesWithFullChecks)
{
    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);
    for (const char *strategy :
         {"none", "at-execute", "at-commit", "spb", "ideal"}) {
        const SimResult r = runSystem(fixtureConfig(strategy));
        EXPECT_GT(r.ipc(), 0.0) << strategy;
        EXPECT_EQ(r.checks.totalViolations(), 0u) << strategy;
        ASSERT_EQ(r.trace.size(), 1u) << strategy;
        EXPECT_GT(r.trace[0].get("stores"), 0.0) << strategy;
        EXPECT_GT(r.trace[0].get("branches"), 0.0) << strategy;
    }
    check::setLevel(saved);
}

// The full Fig. 16 orthogonality grid on the real fixture trace: five
// cache prefetchers crossed with the five store-prefetch policies, all
// under full invariant checks, all exporting the unified pf.* block.
TEST(ChampsimFixture, PrefetcherPolicyGridReplaysWithFullChecks)
{
    const check::Level saved = check::level();
    check::setLevel(check::Level::Full);
    const std::pair<L1PrefetcherKind, const char *> prefetchers[] = {
        {L1PrefetcherKind::None, nullptr},
        {L1PrefetcherKind::Stream, "pf.stride.issued"},
        {L1PrefetcherKind::Adaptive, "pf.fdp.issued"},
        {L1PrefetcherKind::BestOffset, "pf.bop.issued"},
        {L1PrefetcherKind::DSPatch, "pf.dspatch.issued"},
    };
    for (const auto &[kind, statKey] : prefetchers) {
        for (const char *strategy :
             {"none", "at-execute", "at-commit", "spb", "ideal"}) {
            SystemConfig cfg = fixtureConfig(strategy);
            cfg.l1Prefetcher = kind;
            cfg.maxUopsPerCore = 8'000;
            const SimResult r = runSystem(cfg);
            const std::string cell =
                std::string(l1PrefetcherKindName(kind)) + " x " +
                strategy;
            EXPECT_GT(r.ipc(), 0.0) << cell;
            EXPECT_EQ(r.checks.totalViolations(), 0u) << cell;
            const StatSet s = r.toStatSet();
            if (statKey) {
                EXPECT_TRUE(s.has(statKey)) << cell;
                EXPECT_TRUE(s.has("pf.stride.accuracy")) << cell;
                EXPECT_TRUE(s.has("pf.stride.coverage")) << cell;
            } else {
                EXPECT_TRUE(r.pf.entries().empty()) << cell;
            }
        }
    }
    check::setLevel(saved);
}

TEST(ChampsimFixture, SpbFiresOnFixtureStoreBursts)
{
    const SimResult r = runSystem(fixtureConfig("spb"));
    ASSERT_EQ(r.spbs.size(), 1u);
    EXPECT_GT(r.spbs[0].bursts, 0u)
        << "the fixture's memset phase must trigger SPB";
}

TEST(ChampsimFixture, TraceStatsAppearInStatSet)
{
    const SimResult r = runSystem(fixtureConfig("at-commit"));
    const StatSet s = r.toStatSet();
    EXPECT_TRUE(s.has("trace0.instrs"));
    EXPECT_GT(s.get("trace0.uops"), 0.0);
    EXPECT_GT(s.get("trace0.branch_conditional"), 0.0);
    EXPECT_GT(s.get("trace0.branch_return"), 0.0);
}

// ---------------------------------------------------------------------
// Determinism: byte-identical sorted stats across host configurations
// ---------------------------------------------------------------------

/** Sorted key=value rendering of every stat of every outcome. */
std::string
statFingerprint(const exp::ExperimentReport &report)
{
    std::map<std::string, std::string> lines;
    for (const auto &out : report.outcomes) {
        std::string text;
        for (const auto &[k, v] : out.stats.entries()) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            text += k + "=" + buf + "\n";
        }
        lines[out.key] = text;
    }
    std::string all;
    for (const auto &[k, v] : lines)
        all += k + "\n" + v;
    return all;
}

exp::ExperimentReport
runFixtureJobs(unsigned host_threads, bool ff)
{
    std::vector<exp::Job> jobs;
    for (const char *strategy : {"none", "at-commit", "spb"}) {
        SystemConfig cfg = fixtureConfig(strategy);
        cfg.maxUopsPerCore = 10'000;
        cfg.fastForward = ff;
        jobs.push_back(exp::Job{exp::configKey(cfg), std::move(cfg)});
    }
    exp::EngineOptions opts;
    opts.hostThreads = host_threads;
    return exp::runJobs(jobs, opts);
}

TEST(ChampsimDeterminism, IdenticalStatsAcrossJobsSchedulerFastForward)
{
    const std::string base = statFingerprint(runFixtureJobs(1, true));
    EXPECT_FALSE(base.empty());
    EXPECT_EQ(base, statFingerprint(runFixtureJobs(8, true)))
        << "--jobs=8 must not change simulated results";
    EXPECT_EQ(base, statFingerprint(runFixtureJobs(1, false)))
        << "fast-forward must not change simulated results";
}

TEST(ChampsimDeterminism, TraceCacheDoesNotChangeStats)
{
    const std::string xz = fixturePath("fixture.champsim.xz");
    auto run = [&] {
        std::vector<exp::Job> jobs;
        for (const char *strategy : {"at-commit", "spb"}) {
            SystemConfig cfg = fixtureConfig(strategy);
            cfg.workload = "trace:" + xz;
            cfg.maxUopsPerCore = 10'000;
            jobs.push_back(exp::Job{exp::configKey(cfg), std::move(cfg)});
        }
        exp::EngineOptions opts;
        opts.hostThreads = 2;
        return statFingerprint(exp::runJobs(jobs, opts));
    };

    champsim::setTraceCacheDir("");
    const std::string live = run();
    EXPECT_FALSE(live.empty());

    const std::string dir = tmpPath("trace_cache_engine");
    champsim::setTraceCacheDir(dir);
    const std::string building = run(); // first run fills the cache
    const std::string hitting = run();  // second run is pure hits
    const std::string entry = champsim::traceCachePathFor(xz);
    champsim::setTraceCacheDir("");

    EXPECT_EQ(building, live)
        << "cache-building replay must match live decode";
    EXPECT_EQ(hitting, live) << "cache-hit replay must match live decode";
    std::remove(entry.c_str());
    rmdir(dir.c_str());
}

TEST(ChampsimDeterminism, ConfigKeyKeepsFullTracePath)
{
    // Long trace paths must never truncate out of the key: truncation
    // would alias distinct traces in sweep checkpoints.
    SystemConfig cfg = fixtureConfig("at-commit");
    cfg.workload = "trace:/" + std::string(400, 'p') + "/t.champsim";
    const std::string key = exp::configKey(cfg);
    EXPECT_NE(key.find(std::string(400, 'p')), std::string::npos);
    EXPECT_NE(key.find("|sb56|"), std::string::npos);
}

} // namespace
} // namespace spburst
