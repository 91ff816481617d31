/**
 * @file
 * Unit tests for the trace-corpus manifest layer
 * (src/workload/corpus.hh): manifest parsing with diagnostics,
 * validation (missing files, duplicates, the retired six-column
 * format), "corpus:" spec resolution, and intensity-binned mix
 * building.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/corpus.hh"
#include "workload/file_trace.hh"
#include "workload/registry.hh"

using namespace hira;

namespace {

constexpr Addr kSlice = 1 << 26;

/** Scratch corpus directory, cleaned up (and deactivated) on teardown. */
class CorpusTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The active corpus and HIRA_CORPUS must not leak between
        // tests (or in from the environment).
        ::unsetenv("HIRA_CORPUS");
        Corpus::setActive(nullptr);
        std::string templ = "/tmp/hira_corpus.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        Corpus::setActive(nullptr);
        for (const std::string &f : files)
            ::unlink(f.c_str());
        ::rmdir(dir.c_str());
    }

    std::string
    path(const std::string &name)
    {
        std::string p = dir + "/" + name;
        files.push_back(p);
        return p;
    }

    std::string
    writeFile(const std::string &name, const std::string &content)
    {
        std::string p = path(name);
        std::ofstream out(p, std::ios::binary);
        out << content;
        return p;
    }

    /** Record a short synthetic trace as corpus file @p name. */
    void
    writeTrace(const std::string &name, TraceFormat fmt,
               const std::string &profile = "gcc-like",
               std::uint64_t seed = 42)
    {
        TraceGen gen(benchmarkByName(profile), seed, 0, kSlice);
        dumpTrace(gen, path(name), fmt, 2000);
    }

    std::string dir;
    std::vector<std::string> files;
};

} // namespace

TEST_F(CorpusTest, TsvManifestRoundTrips)
{
    writeTrace("a.trace", TraceFormat::Text);
    writeTrace("b.bin", TraceFormat::Binary);
    std::vector<CorpusEntry> entries(2);
    entries[0].name = "alpha";
    entries[0].file = "a.trace";
    entries[0].mpki = MpkiClass::High;
    entries[1].name = "beta";
    entries[1].file = "b.bin";
    entries[1].mpki = MpkiClass::Low;
    writeManifest(dir, entries);
    path("manifest.tsv");

    Corpus c = Corpus::load(dir);
    ASSERT_EQ(c.size(), 2u);
    const CorpusEntry &a = c.at("alpha");
    EXPECT_EQ(a.file, "a.trace");
    EXPECT_EQ(a.path, dir + "/a.trace");
    EXPECT_EQ(a.mpki, MpkiClass::High);
    const CorpusEntry &b = c.at("beta");
    EXPECT_EQ(b.file, "b.bin");
    EXPECT_EQ(b.mpki, MpkiClass::Low);
    EXPECT_EQ(b.spec(), "corpus:beta");

    // The writer emits exactly the three-column record format.
    std::ifstream in(dir + "/manifest.tsv");
    std::string line, records;
    while (std::getline(in, line)) {
        if (line[0] != '#')
            records += line + "\n";
    }
    EXPECT_EQ(records, "alpha\ta.trace\tH\nbeta\tb.bin\tL\n");
}

TEST_F(CorpusTest, HandWrittenManifestsParse)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv",
              "# comment line\n"
              "\n"
              "mcf t.trace H\n"
              "gcc\tt.trace\tm\r\n");
    Corpus c = Corpus::load(dir);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c.at("mcf").mpki, MpkiClass::High);
    EXPECT_EQ(c.at("gcc").file, "t.trace");
    EXPECT_EQ(c.at("gcc").mpki, MpkiClass::Medium);
}

TEST_F(CorpusTest, MissingManifestIsFatal)
{
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "has no manifest.tsv");
    // A manifest.json alone is not a manifest.
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.json",
              "{\"traces\": [{\"name\": \"x\", \"file\": "
              "\"t.trace\", \"class\": \"H\"}]}");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "has no manifest.tsv");
}

TEST_F(CorpusTest, MalformedTsvDiagnosesFileAndLine)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv", "ok t.trace H\nbad t.trace\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "manifest.tsv:2: expected 3 columns \\(name file class\\), "
                "got 2");
}

TEST_F(CorpusTest, BadTsvFieldsAreFatal)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv", "x t.trace X\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "manifest.tsv:1: unknown intensity class 'X'");
    // The format column is gone: a record that still carries it is
    // misaligned, never silently read.
    writeFile("manifest.tsv", "x t.trace text H\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "expected 3 columns \\(name file class\\), got 4");
    writeFile("manifest.tsv", "x t.trace H extra\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "expected 3 columns \\(name file class\\), got 4");
    writeFile("manifest.tsv", "x t.trace text 1000 H - extra\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "expected 3 columns \\(name file class\\), got 7");
}

TEST_F(CorpusTest, MissingTraceFileIsFatal)
{
    writeFile("manifest.tsv", "ghost nope.trace H\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "trace file .*nope.trace.*does not exist");
}

TEST_F(CorpusTest, NonRoundTrippableFieldsAreFatal)
{
    // Names/files with whitespace, '#', '"', or '\' would produce a
    // manifest the readers mis-parse: both the writer and the loader
    // must reject them up front.
    writeTrace("t.trace", TraceFormat::Text);
    std::vector<CorpusEntry> entries(1);
    entries[0].name = "my trace";
    entries[0].file = "t.trace";
    EXPECT_EXIT(writeManifest(dir, entries),
                ::testing::ExitedWithCode(1), "cannot round-trip");
    entries[0].name = "ok";
    entries[0].file = "weird\"name.trace";
    EXPECT_EXIT(writeManifest(dir, entries),
                ::testing::ExitedWithCode(1), "cannot round-trip");
    // A hand-written manifest can hold such a name; loading must
    // reject it.
    writeFile("manifest.tsv", "a#b t.trace H\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "cannot round-trip");
}

TEST_F(CorpusTest, DuplicateNamesAreFatal)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv",
              "dup t.trace H\ndup t.trace L\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "duplicate trace name 'dup'");
}

TEST_F(CorpusTest, UnknownEntryListsTheCorpus)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv",
              "one t.trace H\ntwo t.trace L\n");
    Corpus c = Corpus::load(dir);
    EXPECT_EQ(c.find("three"), nullptr);
    EXPECT_EXIT(c.at("three"), ::testing::ExitedWithCode(1),
                "no trace 'three'; it has: one, two");
}

TEST_F(CorpusTest, CorpusSpecResolvesThroughTheRegistry)
{
    writeTrace("gcc.trace", TraceFormat::Text, "gcc-like", 7);
    writeFile("manifest.tsv", "gcc gcc.trace M\n");
    Corpus::setActive(std::make_shared<const Corpus>(Corpus::load(dir)));

    auto src = WorkloadRegistry::global().makeSource("corpus:gcc", 0, 0,
                                                     kSlice);
    TraceGen ref(benchmarkByName("gcc-like"), 7, 0, kSlice);
    for (int i = 0; i < 2000; ++i) {
        TraceInst a = ref.next(), b = src->next();
        ASSERT_EQ(a.isMem, b.isMem) << "instruction " << i;
        ASSERT_EQ(a.addr, b.addr) << "instruction " << i;
    }

    // ?once runs dry instead of looping.
    auto once = WorkloadRegistry::global().makeSource("corpus:gcc?once",
                                                      0, 0, kSlice);
    for (int i = 0; i < 3000; ++i)
        once->next();
    EXPECT_TRUE(once->exhausted());
}

TEST_F(CorpusTest, CorpusSpecWithoutActiveCorpusIsFatal)
{
    EXPECT_EXIT(WorkloadRegistry::global().makeSource("corpus:x", 0, 0,
                                                      kSlice),
                ::testing::ExitedWithCode(1),
                "corpus:x.*needs an active trace corpus.*HIRA_CORPUS");
}

TEST_F(CorpusTest, UnknownCorpusEntryInSpecIsFatal)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv", "one t.trace H\n");
    Corpus::setActive(std::make_shared<const Corpus>(Corpus::load(dir)));
    EXPECT_EXIT(WorkloadRegistry::global().makeSource("corpus:nope", 0, 0,
                                                      kSlice),
                ::testing::ExitedWithCode(1), "no trace 'nope'");
}

TEST_F(CorpusTest, ActiveCorpusLoadsLazilyFromEnvironment)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv", "envy t.trace H\n");
    ::setenv("HIRA_CORPUS", dir.c_str(), 1);
    auto active = Corpus::active();
    ASSERT_NE(active, nullptr);
    EXPECT_EQ(active->at("envy").mpki, MpkiClass::High);
    ::unsetenv("HIRA_CORPUS");
}

TEST_F(CorpusTest, RetiredSixColumnManifestIsRejected)
{
    // A manifest of the retired format (format, instruction count and
    // alone-IPC columns) fails closed, naming the line, the retired
    // columns and both ways to fix the file.
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv",
              "# hira corpus manifest v1\n"
              "# name file format instructions class alone-ipc\n"
              "primed t.trace text 1000 H 0.75\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "manifest.tsv:3: six-column manifest of the retired "
                "format .*format, instructions and alone-ipc columns "
                "are gone.*Regenerate the corpus with hira_tracegen, or "
                "keep columns 1, 2 and 5 \\(name file class\\)");
    // An unmeasured ('-') prior is the same retired format.
    writeFile("manifest.tsv", "bare t.trace binary 1000 L -\n");
    EXPECT_EXIT(Corpus::load(dir), ::testing::ExitedWithCode(1),
                "manifest.tsv:1: six-column manifest of the retired");
}

TEST_F(CorpusTest, ClassifyApkiThresholds)
{
    EXPECT_EQ(classifyApki(0.0), MpkiClass::Low);
    EXPECT_EQ(classifyApki(79.9), MpkiClass::Low);
    EXPECT_EQ(classifyApki(80.0), MpkiClass::Medium);
    EXPECT_EQ(classifyApki(199.9), MpkiClass::Medium);
    EXPECT_EQ(classifyApki(200.0), MpkiClass::High);
    EXPECT_EQ(mpkiClassLetter(MpkiClass::High), 'H');
    EXPECT_EQ(mpkiClassLetter(MpkiClass::Medium), 'M');
    EXPECT_EQ(mpkiClassLetter(MpkiClass::Low), 'L');
}

TEST_F(CorpusTest, CorpusMixesAreBinnedAndDeterministic)
{
    writeTrace("t.trace", TraceFormat::Text);
    std::string manifest;
    // 3 High, 2 Medium, 2 Low traces, all sharing one trace file.
    for (const char *n : {"h1", "h2", "h3"})
        manifest += std::string(n) + " t.trace H\n";
    for (const char *n : {"m1", "m2"})
        manifest += std::string(n) + " t.trace M\n";
    for (const char *n : {"l1", "l2"})
        manifest += std::string(n) + " t.trace L\n";
    writeFile("manifest.tsv", manifest);
    Corpus c = Corpus::load(dir);

    std::vector<WorkloadMix> mixes = makeCorpusMixes(8, 4, c);
    ASSERT_EQ(mixes.size(), 8u);
    std::set<std::string> h = {"corpus:h1", "corpus:h2", "corpus:h3"};
    std::set<std::string> m = {"corpus:m1", "corpus:m2"};
    std::set<std::string> l = {"corpus:l1", "corpus:l2"};
    for (const WorkloadMix &mix : mixes)
        ASSERT_EQ(mix.size(), 4u);
    // Categories rotate H, M, L, mixed, H, M, L, mixed.
    for (int i : {0, 4})
        for (const std::string &s : mixes[static_cast<std::size_t>(i)])
            EXPECT_EQ(h.count(s), 1u) << s;
    for (int i : {1, 5})
        for (const std::string &s : mixes[static_cast<std::size_t>(i)])
            EXPECT_EQ(m.count(s), 1u) << s;
    for (int i : {2, 6})
        for (const std::string &s : mixes[static_cast<std::size_t>(i)])
            EXPECT_EQ(l.count(s), 1u) << s;

    // Deterministic in the seed; different seeds decorrelate.
    EXPECT_EQ(makeCorpusMixes(8, 4, c), mixes);
    EXPECT_NE(makeCorpusMixes(8, 4, c, 0xd1ff), mixes);
}

TEST_F(CorpusTest, SingleClassCorpusStillBuildsMixes)
{
    writeTrace("t.trace", TraceFormat::Text);
    writeFile("manifest.tsv", "only t.trace H\n");
    Corpus c = Corpus::load(dir);
    std::vector<WorkloadMix> mixes = makeCorpusMixes(3, 2, c);
    ASSERT_EQ(mixes.size(), 3u);
    for (const WorkloadMix &mix : mixes)
        for (const std::string &s : mix)
            EXPECT_EQ(s, "corpus:only");
}
