/**
 * @file
 * TraceSource::nextRecord() identity: for every source, expanding the
 * records gives the instruction stream next() gives, draw for draw.
 *
 * TraceGen is checked over every pool profile plus the memPerInstr
 * extremes 0 and 1; FileTraceSource must return the file's own records
 * (text and binary, looping and "?once"), and next() and nextRecord()
 * must share one stream when a caller mixes them.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "common/rng.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/file_trace.hh"

using namespace hira;

namespace {

constexpr Addr kSlice = Addr(1) << 26;
constexpr std::uint64_t kInstructions = 1000000;

void
expectSameInst(const TraceInst &a, const TraceInst &b, std::uint64_t i)
{
    ASSERT_EQ(a.isMem, b.isMem) << "instruction " << i;
    ASSERT_EQ(a.isWrite, b.isWrite) << "instruction " << i;
    ASSERT_EQ(a.addr, b.addr) << "instruction " << i;
}

/**
 * Expand @p recs' records until @p n instructions, checking each
 * against @p ref's next().
 */
void
expectRecordsExpandTo(TraceSource &recs, TraceSource &ref, std::uint64_t n)
{
    std::uint64_t i = 0;
    while (i < n) {
        TraceRecord r = recs.nextRecord();
        ASSERT_TRUE(r.nonMem > 0 || r.access.isMem) << "empty record";
        for (std::uint64_t k = 0; k < r.nonMem && i < n; ++k, ++i)
            expectSameInst(TraceInst{}, ref.next(), i);
        if (r.access.isMem && i < n) {
            expectSameInst(r.access, ref.next(), i);
            ++i;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

void
expectGenIdentity(const BenchmarkProfile &prof, std::uint64_t seed)
{
    SCOPED_TRACE(prof.name);
    TraceGen recs(prof, seed, kSlice, kSlice);
    TraceGen ref(prof, seed, kSlice, kSlice);
    expectRecordsExpandTo(recs, ref, kInstructions);
}

} // namespace

TEST(TraceRecords, GeneratorMatchesNextOverThePool)
{
    for (const BenchmarkProfile &prof : benchmarkPool())
        expectGenIdentity(prof, hashString(prof.name));
}

TEST(TraceRecords, GeneratorMatchesNextAtIntensityExtremes)
{
    BenchmarkProfile none = benchmarkByName("mcf-like");
    none.name = "memPerInstr 0";
    none.memPerInstr = 0.0;
    expectGenIdentity(none, 3);
    BenchmarkProfile all = benchmarkByName("mcf-like");
    all.name = "memPerInstr 1";
    all.memPerInstr = 1.0;
    expectGenIdentity(all, 4);

    // With no accesses every record is one capped run.
    TraceGen gen(none, 3, 0, kSlice);
    for (int i = 0; i < 3; ++i) {
        TraceRecord r = gen.nextRecord();
        EXPECT_EQ(r.nonMem, TraceGen::kMaxRun);
        EXPECT_FALSE(r.access.isMem);
    }
}

TEST(TraceRecords, DefaultRecordIsOneInstruction)
{
    // TraceRecorder keeps the default: one next() per record.
    const BenchmarkProfile &prof = benchmarkByName("gcc-like");
    TraceGen inner(prof, 8, 0, kSlice);
    TraceGen ref(prof, 8, 0, kSlice);
    char templ[] = "/tmp/hira_records.XXXXXX";
    ASSERT_NE(mkdtemp(templ), nullptr);
    std::string path = std::string(templ) + "/rec.trace";
    {
        TraceRecorder rec(inner, path, TraceFormat::Text);
        for (int i = 0; i < 20000; ++i) {
            TraceRecord r = rec.nextRecord();
            TraceInst want = ref.next();
            ASSERT_EQ(r.nonMem + (r.access.isMem ? 1u : 0u), 1u);
            expectSameInst(r.access.isMem ? r.access : TraceInst{}, want,
                           static_cast<std::uint64_t>(i));
        }
        EXPECT_EQ(rec.instructionsRecorded(), 20000u);
    }
    ::unlink(path.c_str());
    ::rmdir(templ);
}

namespace {

/** One record as a file holds it: kind 0 = R, 1 = W, 2 = N. */
struct FileRecord
{
    std::uint64_t nonMem;
    int kind;
    Addr addr;
};

/** Records with empty "0 N 0" entries, long runs and every kind. */
std::vector<FileRecord>
fileRecords()
{
    Rng rng(0xf11e);
    std::vector<FileRecord> recs;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t nonmem = rng.chance(0.1) ? rng.below(100000)
                                               : rng.below(8);
        int kind = static_cast<int>(rng.below(3));
        Addr addr = kind == 2 ? 0 : rng.below(Addr(1) << 40) & ~Addr(63);
        recs.push_back({nonmem, kind, addr});
        if (i % 50 == 7)
            recs.push_back({0, 2, 0});
    }
    recs.push_back({5, 0, 0x1000}); // end on a record that counts
    return recs;
}

class FileRecordTest : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        char templ[] = "/tmp/hira_file_records.XXXXXX";
        ASSERT_NE(mkdtemp(templ), nullptr);
        dir = templ;
    }

    void
    TearDown() override
    {
        for (const std::string &f : files)
            ::unlink(f.c_str());
        ::rmdir(dir.c_str());
    }

    /** Write @p recs to a file in the format GetParam() selects. */
    std::string
    write(const std::vector<FileRecord> &recs)
    {
        const bool binary = GetParam();
        files.push_back(dir + (binary ? "/t.bin" : "/t.trace"));
        std::ofstream out(files.back(), std::ios::binary);
        if (binary)
            out.write("HIRATRC1", 8);
        for (const FileRecord &r : recs) {
            if (binary) {
                unsigned char raw[13];
                for (int b = 0; b < 4; ++b)
                    raw[b] = static_cast<unsigned char>(r.nonMem >> (8 * b));
                raw[4] = static_cast<unsigned char>(r.kind);
                for (int b = 0; b < 8; ++b)
                    raw[5 + b] = static_cast<unsigned char>(r.addr >> (8 * b));
                out.write(reinterpret_cast<const char *>(raw), 13);
            } else {
                out << r.nonMem << ' ' << "RWN"[r.kind] << ' ' << std::hex
                    << r.addr << std::dec << '\n';
            }
        }
        return files.back();
    }

    std::string dir;
    std::vector<std::string> files;
};

/** The record @p r maps to in a slice at @p base (empty when "0 N 0"). */
TraceRecord
expected(const FileRecord &r, Addr base)
{
    TraceRecord want;
    want.nonMem = r.nonMem;
    if (r.kind != 2) {
        want.access.isMem = true;
        want.access.isWrite = r.kind == 1;
        want.access.addr = base + ((r.addr / 64) % (kSlice / 64)) * 64;
    }
    return want;
}

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b, std::size_t i)
{
    ASSERT_EQ(a.nonMem, b.nonMem) << "record " << i;
    expectSameInst(a.access, b.access, i);
}

} // namespace

TEST_P(FileRecordTest, LoopedRecordsAreTheFilesOwn)
{
    std::vector<FileRecord> recs = fileRecords();
    std::string p = write(recs);
    const Addr base = 3 * kSlice;
    FileTraceSource src(p, base, kSlice);
    EXPECT_EQ(src.binary(), GetParam());
    for (int pass = 0; pass < 2; ++pass) {
        std::size_t i = 0;
        for (const FileRecord &r : recs) {
            TraceRecord want = expected(r, base);
            if (want.nonMem == 0 && !want.access.isMem)
                continue; // carries no instruction
            expectSameRecord(src.nextRecord(), want, i++);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_FALSE(src.exhausted());
    }
    EXPECT_EQ(src.recordsRead(), 2 * recs.size());
}

TEST_P(FileRecordTest, OnceRecordsEndInIdleRuns)
{
    std::vector<FileRecord> recs = fileRecords();
    std::string p = write(recs);
    FileTraceOptions once;
    once.loop = false;
    FileTraceSource src(p, 0, kSlice, once);
    std::size_t i = 0;
    for (const FileRecord &r : recs) {
        TraceRecord want = expected(r, 0);
        if (want.nonMem > 0 || want.access.isMem)
            expectSameRecord(src.nextRecord(), want, i++);
    }
    EXPECT_FALSE(src.exhausted());
    for (int k = 0; k < 3; ++k) {
        TraceRecord idle = src.nextRecord();
        EXPECT_TRUE(src.exhausted());
        EXPECT_GT(idle.nonMem, 0u);
        EXPECT_FALSE(idle.access.isMem);
    }
}

TEST_P(FileRecordTest, MixedCallsShareOneStream)
{
    std::vector<FileRecord> recs = fileRecords();
    std::string p = write(recs);
    for (bool loop : {true, false}) {
        SCOPED_TRACE(loop ? "looped" : "once");
        FileTraceOptions opts;
        opts.loop = loop;
        FileTraceSource mixed(p, 0, kSlice, opts);
        FileTraceSource ref(p, 0, kSlice, opts);
        // Alternate a few next() calls with a record, so that records
        // also start mid-run and at a staged access.
        Rng rng(loop ? 1 : 2);
        std::uint64_t i = 0;
        while (i < 3000000) {
            for (std::uint64_t k = rng.below(4); k > 0; --k, ++i)
                expectSameInst(mixed.next(), ref.next(), i);
            TraceRecord r = mixed.nextRecord();
            ASSERT_TRUE(r.nonMem > 0 || r.access.isMem);
            for (std::uint64_t k = 0; k < r.nonMem; ++k, ++i)
                expectSameInst(TraceInst{}, ref.next(), i);
            if (r.access.isMem)
                expectSameInst(r.access, ref.next(), i++);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_EQ(mixed.exhausted(), ref.exhausted());
        EXPECT_EQ(mixed.recordsRead(), ref.recordsRead());
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, FileRecordTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &p) {
                             return p.param ? "Binary" : "Text";
                         });
