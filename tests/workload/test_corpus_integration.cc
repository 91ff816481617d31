/**
 * @file
 * Integration tests for corpus-backed sweeps: "corpus:" mixes run
 * bitwise-deterministically under SweepRunner::runPoints regardless of
 * thread count, and their alone IPC is measured once per (trace,
 * geometry) and shared across runners through the result cache.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "result_expect.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/corpus.hh"
#include "workload/file_trace.hh"

using namespace hira;

namespace {

class CorpusIntegrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("HIRA_CORPUS");
        Corpus::setActive(nullptr);
        std::string templ = "/tmp/hira_corpus_integ.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();

        // A 4-trace corpus spanning the intensity bins, both formats.
        const std::vector<std::pair<std::string, TraceFormat>> traces = {
            {"mcf-like", TraceFormat::Text},
            {"libquantum-like", TraceFormat::Binary},
            {"gcc-like", TraceFormat::Text},
            {"h264-like", TraceFormat::Binary},
        };
        for (const auto &t : traces) {
            CorpusEntry e;
            e.name = t.first;
            e.file = e.name + (t.second == TraceFormat::Binary
                                   ? ".bin"
                                   : ".trace");
            const BenchmarkProfile &prof = benchmarkByName(e.name);
            TraceGen gen(prof, hashString(e.name), 0, 1 << 26);
            dumpTrace(gen, dir + "/" + e.file, t.second, 4000);
            e.mpki = classifyApki(1000.0 * prof.memPerInstr);
            entries.push_back(std::move(e));
        }
        writeManifest(dir, entries);
    }

    void
    TearDown() override
    {
        Corpus::setActive(nullptr);
        std::filesystem::remove_all(dir);
    }

    void
    activate()
    {
        Corpus::setActive(
            std::make_shared<const Corpus>(Corpus::load(dir)));
    }

    static BenchKnobs
    tinyKnobs(int threads)
    {
        BenchKnobs k;
        k.mixes = 4;
        k.cycles = 10000;
        k.warmup = 2000;
        k.rows = 64;
        k.threads = threads;
        k.cores = 4;
        return k;
    }

    static std::vector<SweepPoint>
    smallPlan()
    {
        std::vector<SweepPoint> plan;
        for (int ch : {1, 2}) {
            SweepPoint base;
            base.geom.channels = ch;
            base.scheme.kind = SchemeKind::Baseline;
            plan.push_back(base);
            SweepPoint hira;
            hira.geom.channels = ch;
            hira.scheme.kind = SchemeKind::HiraMc;
            hira.scheme.slackN = 2;
            plan.push_back(hira);
        }
        return plan;
    }

    std::string dir;
    std::vector<CorpusEntry> entries;
};

} // namespace

TEST_F(CorpusIntegrationTest, RunPointsBitwiseIdenticalOneVsFourThreads)
{
    activate();
    auto corpus = Corpus::active();
    ASSERT_NE(corpus, nullptr);
    std::vector<WorkloadMix> mixes = makeCorpusMixes(4, 4, *corpus);

    SweepRunner serial(tinyKnobs(1), mixes);
    SweepRunner pooled(tinyKnobs(4), mixes);
    std::vector<SweepPoint> plan = smallPlan();
    std::vector<PointResult> a = serial.runPoints(plan);
    // Exact, not NEAR: corpus replay and the reduction order must both
    // be exact, so any divergence is a real leak.
    expectSamePoints(a, pooled.runPoints(plan));
    EXPECT_GT(a[0].meanWs, 0.0);
}

TEST_F(CorpusIntegrationTest, AloneIpcIsMeasuredPerGeometryAndCached)
{
    activate();
    auto corpus = Corpus::active();
    std::vector<WorkloadMix> mixes = makeCorpusMixes(4, 4, *corpus);
    std::vector<SweepPoint> plan = smallPlan();
    std::set<std::string> specs, geoms;
    for (const WorkloadMix &mix : mixes)
        specs.insert(mix.begin(), mix.end());
    for (const SweepPoint &p : plan)
        geoms.insert(p.geom.key());
    ASSERT_EQ(geoms.size(), 2u);
    std::string cacheDir = dir + "/cache";

    // Pass 1: a corpus spec gets its alone IPC like any other spec,
    // one simulation per (distinct trace, distinct geometry).
    SweepRunner first(tinyKnobs(2), mixes);
    first.setResultCache(std::make_unique<ResultCache>(cacheDir));
    std::vector<PointResult> a = first.runPoints(plan);
    EXPECT_EQ(first.aloneRunCount(), specs.size() * geoms.size());

    // Pass 2: a fresh runner on the same directory, with the point
    // entries gone, re-simulates every point but takes every alone IPC
    // from pass 1's entries, and so reproduces pass 1 bitwise.
    for (const auto &f : std::filesystem::directory_iterator(cacheDir)) {
        if (f.path().extension() == ".point")
            std::filesystem::remove(f.path());
    }
    SweepRunner second(tinyKnobs(2), mixes);
    second.setResultCache(std::make_unique<ResultCache>(cacheDir));
    std::vector<PointResult> b = second.runPoints(plan);
    EXPECT_EQ(second.pointsSimulated(), plan.size());
    EXPECT_EQ(second.aloneRunCount(), 0u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(b[i].meanWs, a[i].meanWs) << "point " << i;
        EXPECT_GT(b[i].meanWs, 0.0);
    }
}

TEST_F(CorpusIntegrationTest, MixedCorpusAndSyntheticMixesWork)
{
    // Corpus specs, file specs, and pool names can share a mix.
    activate();
    std::vector<WorkloadMix> mixes = {
        {"corpus:mcf-like", "gcc-like", "corpus:h264-like",
         "file:" + dir + "/gcc-like.trace"},
    };
    SweepRunner runner(tinyKnobs(2), mixes);
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    double ws = runner.meanWs(g, s);
    EXPECT_GT(ws, 0.0);
    EXPECT_EQ(runner.aloneRunCount(), 4u);
}
