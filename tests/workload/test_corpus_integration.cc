/**
 * @file
 * Integration tests for corpus-backed sweeps: "corpus:" mixes run
 * bitwise-deterministically under SweepRunner::runPoints regardless of
 * thread count, and manifest alone-IPC priors reproduce the
 * measured-alone sweep bitwise while suppressing every IPC-alone
 * reference run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "result_expect.hh"
#include "sim/experiment.hh"
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
            e.format = t.second;
            e.file = e.name + (t.second == TraceFormat::Binary
                                   ? ".bin"
                                   : ".trace");
            e.instructions = 4000;
            const BenchmarkProfile &prof = benchmarkByName(e.name);
            TraceGen gen(prof, hashString(e.name), 0, 1 << 26);
            dumpTrace(gen, dir + "/" + e.file, e.format, e.instructions);
            files.push_back(dir + "/" + e.file);
            e.mpki = classifyApki(1000.0 * prof.memPerInstr);
            entries.push_back(std::move(e));
        }
        writeManifest(dir, entries);
        files.push_back(dir + "/manifest.tsv");
    }

    void
    TearDown() override
    {
        Corpus::setActive(nullptr);
        for (const std::string &f : files)
            ::unlink(f.c_str());
        ::rmdir(dir.c_str());
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
    std::vector<std::string> files;
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

TEST_F(CorpusIntegrationTest, PriorsReproduceMeasuredSweepWithoutAloneRuns)
{
    // Pass 1: manifest without priors — the runner measures every
    // (trace, geometry) reference by simulation.
    activate();
    auto corpus = Corpus::active();
    std::vector<WorkloadMix> mixes = makeCorpusMixes(4, 4, *corpus);
    std::vector<SweepPoint> plan = smallPlan();

    SweepRunner measured(tinyKnobs(2), mixes);
    std::vector<PointResult> res_measured = measured.runPoints(plan);
    std::set<std::string> used;
    for (const WorkloadMix &mix : mixes)
        for (const std::string &spec : mix)
            used.insert(spec);
    // One alone run per (distinct trace, distinct geometry).
    EXPECT_EQ(measured.aloneRunCount(), 2 * used.size());

    // Pass 2: the measured alone IPCs become manifest priors. The
    // prior is the reference (default-geometry) measurement and is
    // applied to every geometry of the sweep.
    GeomSpec ref;
    for (CorpusEntry &e : entries) {
        if (used.count(e.spec()) != 0)
            e.aloneIpc = measured.aloneIpc(e.spec(), ref);
    }
    writeManifest(dir, entries);
    activate();

    SweepRunner primed(tinyKnobs(2), mixes);
    std::vector<PointResult> res_primed = primed.runPoints(plan);
    EXPECT_EQ(primed.aloneRunCount(), 0u);
    ASSERT_EQ(res_primed.size(), res_measured.size());
    // The 1-channel points use the reference geometry, so the prior
    // equals the measurement bitwise and so do the results.
    for (std::size_t i = 0; i < res_primed.size(); ++i) {
        if (plan[i].geom.key() == ref.key()) {
            EXPECT_EQ(res_primed[i].meanWs, res_measured[i].meanWs)
                << "point " << i;
        } else {
            // Non-reference geometries substitute the reference prior
            // for a per-geometry measurement: close, not identical.
            EXPECT_NEAR(res_primed[i].meanWs, res_measured[i].meanWs,
                        0.35 * res_measured[i].meanWs)
                << "point " << i;
        }
        EXPECT_GT(res_primed[i].meanWs, 0.0);
    }

    // meanWs on the reference geometry also rides on the priors.
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SweepRunner fresh(tinyKnobs(2), mixes);
    EXPECT_EQ(fresh.meanWs(ref, base), res_primed[0].meanWs);
    EXPECT_EQ(fresh.aloneRunCount(), 0u);
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
