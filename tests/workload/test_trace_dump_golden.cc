/**
 * @file
 * Golden pins for the bytes the trace writers produce: dumpTrace over
 * every synthetic pool profile, and the per-core files a System writes
 * through SystemConfig::traceDumpDir (synthetic and "?once" file cores,
 * text and binary).
 *
 * The digests were recorded before cores started pulling their
 * instruction stream as (non-memory run, access) records. The bytes
 * depend on when each instruction is pulled through a TraceRecorder,
 * so a mismatch means the record path changed what a recording holds.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/experiment.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/file_trace.hh"

using namespace hira;

namespace {

constexpr Addr kSlice = Addr(1) << 26;

/** Scratch directory with every file in it removed on teardown. */
class TraceDumpGolden : public ::testing::Test
{
  public:
    void
    SetUp() override
    {
        char templ[] = "/tmp/hira_dump_golden.XXXXXX";
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

    std::string
    path(const std::string &name)
    {
        files.push_back(dir + "/" + name);
        return files.back();
    }

    std::string dir;
    std::vector<std::string> files;
};

/** FNV-1a of the file's bytes, chained onto @p h. */
std::uint64_t
fileDigest(std::uint64_t h, const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes.empty()) << p;
    return hashCombine(h, hashString(bytes));
}

/**
 * Digest of a System's per-core dumps: a 4-core Baseline point whose
 * third core replays @p once_file once (it runs dry mid-run), warmed
 * up, reset and measured, then destroyed so the recorders flush.
 */
std::uint64_t
systemDumpDigest(TraceDumpGolden &t, const std::string &tag,
                 const std::string &once_file, TraceFormat fmt)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    WorkloadMix mix = {"mcf-like", "h264-like", "file:" + once_file + "?once",
                       "gcc-like"};
    std::string sub = t.path(tag);
    EXPECT_EQ(::mkdir(sub.c_str(), 0755), 0);
    SystemConfig cfg = makeSystemConfig(GeomSpec{}, base, mix, 11);
    cfg.traceDumpDir = sub;
    cfg.traceDumpFormat = fmt;
    {
        System sys(cfg);
        sys.run(20000);
        sys.resetStats();
        sys.run(30000);
    }
    std::uint64_t h = 0;
    const char *ext = fmt == TraceFormat::Binary ? "bin" : "trace";
    for (std::size_t i = 0; i < mix.size(); ++i) {
        std::string f = strprintf("%s/core%zu.%s", sub.c_str(), i, ext);
        h = fileDigest(h, f);
        ::unlink(f.c_str());
    }
    ::rmdir(sub.c_str());
    t.files.pop_back(); // the directory is gone already
    return h;
}

} // namespace

TEST_F(TraceDumpGolden, DumpTraceOverThePool)
{
    std::uint64_t text = 0, binary = 0;
    for (const BenchmarkProfile &prof : benchmarkPool()) {
        TraceGen a(prof, hashString(prof.name), 0, kSlice);
        std::string pt = path(prof.name + ".trace");
        dumpTrace(a, pt, TraceFormat::Text, 100000);
        text = fileDigest(text, pt);

        TraceGen b(prof, hashString(prof.name), 0, kSlice);
        std::string pb = path(prof.name + ".bin");
        dumpTrace(b, pb, TraceFormat::Binary, 100000);
        binary = fileDigest(binary, pb);
    }
    EXPECT_EQ(text, 0x2cc4b943335ee5e0ull);
    EXPECT_EQ(binary, 0x44df5ccdac93d28aull);
}

TEST_F(TraceDumpGolden, SystemTraceDumpDir)
{
    // A short file trace the third core runs through once.
    std::string once = path("once.trace");
    {
        TraceGen gen(benchmarkByName("lbm-like"), 5, 0, kSlice);
        dumpTrace(gen, once, TraceFormat::Text, 3000);
    }
    EXPECT_EQ(systemDumpDigest(*this, "text", once, TraceFormat::Text),
              0x35a1f70d41572323ull);
    EXPECT_EQ(systemDumpDigest(*this, "bin", once, TraceFormat::Binary),
              0xc5c2aa1e312c40d2ull);
}
