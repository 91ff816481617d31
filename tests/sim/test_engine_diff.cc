/**
 * @file
 * Differential suite for the two simulation-loop engines: the
 * event-driven skip-ahead kernel must reproduce the legacy dense
 * cycle loop bitwise at the SystemResult level — every IPC double,
 * every command/refresh counter — across refresh schemes (Baseline,
 * NoRefresh, PARA, HiRA-MC in all its modes),
 * geometries, and workload kinds (synthetic, file-backed, corpus,
 * exhausted ?once traces). Also guards the skip-ahead path itself:
 * on an idle-heavy config the event loop must execute strictly fewer
 * iterations than it simulates cycles, so a regression to dense
 * ticking fails loudly.
 */

#include <gtest/gtest.h>

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

constexpr Cycle kWarm = 3000;
constexpr Cycle kRun = 20000;

WorkloadMix
memHeavyMix()
{
    return {"mcf-like", "libquantum-like", "lbm-like", "gems-like"};
}

WorkloadMix
lowIntensityMix()
{
    return {"h264-like", "namd-like", "perlbench-like", "hmmer-like"};
}

SystemResult
runEngine(SystemConfig cfg, SimEngine engine, Cycle warm, Cycle run,
          SimLoopStats *stats = nullptr)
{
    cfg.engine = engine;
    System sys(cfg);
    sys.run(warm);
    sys.resetStats();
    sys.run(run);
    if (stats != nullptr)
        *stats = sys.loopStats();
    return sys.result();
}

void
expectEnginesAgree(const SystemConfig &cfg, const std::string &label,
                   Cycle warm = kWarm, Cycle run = kRun)
{
    SystemResult cyc = runEngine(cfg, SimEngine::CycleLoop, warm, run);
    SystemResult evt = runEngine(cfg, SimEngine::EventLoop, warm, run);
    SCOPED_TRACE(label);
    expectSameResult(cyc, evt);
}

SystemConfig
makeConfig(const SchemeSpec &scheme, const WorkloadMix &mix,
           const GeomSpec &geom = GeomSpec{}, std::uint64_t seed = 99)
{
    return makeSystemConfig(geom, scheme, mix, seed);
}

} // namespace

TEST(EngineDiff, BaselineSchemes)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    expectEnginesAgree(makeConfig(base, memHeavyMix()), "baseline");

    SchemeSpec none;
    none.kind = SchemeKind::NoRefresh;
    expectEnginesAgree(makeConfig(none, memHeavyMix()), "norefresh");
}

TEST(EngineDiff, ImmediatePara)
{
    SchemeSpec para;
    para.kind = SchemeKind::Baseline;
    para.paraEnabled = true;
    para.nrh = 256.0;
    expectEnginesAgree(makeConfig(para, memHeavyMix()), "baseline+para");
}

TEST(EngineDiff, HiraMcModes)
{
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    expectEnginesAgree(makeConfig(hira, memHeavyMix()), "hira-2");

    // PreventiveRC at a devastating threshold: deep PR-FIFOs, drops.
    SchemeSpec prc = hira;
    prc.slackN = 4;
    prc.paraEnabled = true;
    prc.preventiveViaHira = true;
    prc.nrh = 64.0;
    expectEnginesAgree(makeConfig(prc, memHeavyMix()),
                       "hira-4+para(hira)");

    // Periodic refresh on conventional REF, only preventive via HiRA
    // (Section 9.2): exercises the internal BaselineRefresh engine.
    SchemeSpec split;
    split.kind = SchemeKind::Baseline;
    split.paraEnabled = true;
    split.preventiveViaHira = true;
    split.slackN = 2;
    split.nrh = 512.0;
    expectEnginesAgree(makeConfig(split, memHeavyMix()),
                       "ref-periodic+hira-preventive");
}

TEST(EngineDiff, MitigationZoo)
{
    // Aggressive knobs so every scheme's trigger path fires within the
    // run; the event loop must reproduce each queue drain and
    // time-triggered TRR/window instant despite skipping idle cycles.
    SchemeSpec rfm;
    rfm.kind = SchemeKind::Rfm;
    rfm.raaimt = 16;
    expectEnginesAgree(makeConfig(rfm, memHeavyMix()), "rfm-16");

    SchemeSpec prac;
    prac.kind = SchemeKind::Prac;
    prac.pracThreshold = 32;
    expectEnginesAgree(makeConfig(prac, memHeavyMix()), "prac-32");

    SchemeSpec graphene;
    graphene.kind = SchemeKind::Graphene;
    graphene.trackerSize = 8;
    graphene.nrh = 64.0; // registry sizes the MG threshold as nrh/4
    expectEnginesAgree(makeConfig(graphene, memHeavyMix()),
                       "graphene-trk8");

    // Low-intensity mix: long idle stretches between triggers, the
    // regime where a too-late nextEventCycle horizon would diverge.
    expectEnginesAgree(makeConfig(rfm, lowIntensityMix()),
                       "rfm-16 low-intensity");
    expectEnginesAgree(makeConfig(graphene, lowIntensityMix()),
                       "graphene-trk8 low-intensity");
}

TEST(EngineDiff, MitigationZooOnDdr5)
{
    GeomSpec ddr5;
    ddr5.standard = "ddr5_4800";
    ddr5.capacityGb = 16.0;

    SchemeSpec rfm;
    rfm.kind = SchemeKind::Rfm;
    rfm.raaimt = 16;
    expectEnginesAgree(makeConfig(rfm, memHeavyMix(), ddr5),
                       "rfm-16 ddr5");

    SchemeSpec prac;
    prac.kind = SchemeKind::Prac;
    prac.pracThreshold = 32;
    expectEnginesAgree(makeConfig(prac, memHeavyMix(), ddr5),
                       "prac-32 ddr5");

    SchemeSpec graphene;
    graphene.kind = SchemeKind::Graphene;
    graphene.trackerSize = 8;
    graphene.nrh = 64.0;
    expectEnginesAgree(makeConfig(graphene, memHeavyMix(), ddr5),
                       "graphene-trk8 ddr5");
}

TEST(EngineDiff, GeometriesAndMixes)
{
    GeomSpec wide;
    wide.channels = 2;
    wide.ranks = 2;
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    expectEnginesAgree(makeConfig(base, memHeavyMix(), wide),
                       "baseline 2ch2rk");

    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    expectEnginesAgree(makeConfig(hira, memHeavyMix(), wide),
                       "hira-2 2ch2rk");

    // Immediate PARA and PARA via HiRA across channels and ranks, the
    // geometries of Figs. 15 and 16.
    SchemeSpec para = base;
    para.paraEnabled = true;
    para.nrh = 256.0;
    expectEnginesAgree(makeConfig(para, memHeavyMix(), wide),
                       "baseline+para 2ch2rk");
    SchemeSpec prc = hira;
    prc.slackN = 4;
    prc.paraEnabled = true;
    prc.preventiveViaHira = true;
    prc.nrh = 64.0;
    expectEnginesAgree(makeConfig(prc, memHeavyMix(), wide),
                       "hira-4+para(hira) 2ch2rk");

    // Eight channels, the widest geometry the figure drivers sweep:
    // LLC writebacks drained from one channel land in any of the others.
    GeomSpec eight;
    eight.channels = 8;
    WorkloadMix heavy8 = memHeavyMix();
    for (const char *w : {"milc-like", "soplex-like", "omnetpp-like",
                          "leslie3d-like"})
        heavy8.push_back(w);
    expectEnginesAgree(makeConfig(base, heavy8, eight), "baseline 8ch");
    expectEnginesAgree(makeConfig(hira, heavy8, eight), "hira-2 8ch");

    // Low-intensity mix: mostly LLC-resident cores, the regime the
    // skip-ahead kernel targets for controller sleeping.
    expectEnginesAgree(makeConfig(base, lowIntensityMix()),
                       "baseline low-intensity");
    expectEnginesAgree(makeConfig(hira, lowIntensityMix()),
                       "hira-2 low-intensity");

    GeomSpec big;
    big.capacityGb = 64.0;
    expectEnginesAgree(makeConfig(base, memHeavyMix(), big),
                       "baseline 64Gb");
}

namespace {

/** Temp-dir fixture providing recorded trace files and a corpus. */
class EngineDiffFiles : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("HIRA_CORPUS");
        Corpus::setActive(nullptr);
        std::string templ = "/tmp/hira_engine_diff.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();

        const std::vector<std::pair<std::string, TraceFormat>> traces = {
            {"mcf-like", TraceFormat::Text},
            {"libquantum-like", TraceFormat::Binary},
            {"gcc-like", TraceFormat::Text},
            {"h264-like", TraceFormat::Binary},
        };
        std::vector<CorpusEntry> entries;
        for (const auto &t : traces) {
            CorpusEntry e;
            e.name = t.first;
            e.file = e.name + (t.second == TraceFormat::Binary
                                   ? ".bin"
                                   : ".trace");
            const BenchmarkProfile &prof = benchmarkByName(e.name);
            TraceGen gen(prof, hashString(e.name), 0, 1 << 26);
            dumpTrace(gen, dir + "/" + e.file, t.second, 6000);
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

    std::string dir;
    std::vector<std::string> files;
};

} // namespace

TEST_F(EngineDiffFiles, FileBackedMixes)
{
    WorkloadMix mix = {"file:" + dir + "/mcf-like.trace",
                       "file:" + dir + "/libquantum-like.bin",
                       "gcc-like", "h264-like"};
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    expectEnginesAgree(makeConfig(base, mix), "file mix baseline");

    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    expectEnginesAgree(makeConfig(hira, mix), "file mix hira-2");
}

TEST_F(EngineDiffFiles, CorpusMixes)
{
    Corpus::setActive(std::make_shared<const Corpus>(Corpus::load(dir)));
    WorkloadMix mix = {"corpus:mcf-like", "corpus:libquantum-like",
                       "corpus:gcc-like", "corpus:h264-like"};
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    expectEnginesAgree(makeConfig(base, mix), "corpus mix baseline");

    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    expectEnginesAgree(makeConfig(hira, mix), "corpus mix hira-2");
}

TEST_F(EngineDiffFiles, ExhaustedOnceTraces)
{
    // ?once traces run dry early; the cores then retire non-memory
    // instructions forever — the exhausted-run fast-forward regime.
    WorkloadMix mix = {"file:" + dir + "/mcf-like.trace?once",
                       "file:" + dir + "/gcc-like.trace?once"};
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    expectEnginesAgree(makeConfig(base, mix), "exhausted once traces",
                       /*warm=*/1000, /*run=*/60000);
}

TEST_F(EngineDiffFiles, ExhaustedFastForwardSurvivesStatsReset)
{
    // Regression: the exhausted-run fast-forward must stamp window
    // slots with the exact per-tick readyAt values the dense loop
    // writes. The stamps look interchangeable while cpuCycle grows,
    // but resetStats() rewinds cpuCycle to zero, turning them into
    // future times that gate retirement — approximate stamps then
    // stall the head for a different number of ticks than the cycle
    // engine. A single-core ?once trace that runs dry during warmup
    // (exactly the sweep runner's IPC-alone configuration) hits this.
    WorkloadMix solo = {"file:" + dir + "/h264-like.bin?once"};
    SchemeSpec none;
    none.kind = SchemeKind::NoRefresh;
    expectEnginesAgree(makeConfig(none, solo),
                       "single-core exhausted alone run",
                       /*warm=*/2000, /*run=*/20000);
}

TEST_F(EngineDiffFiles, OddRingSizes)
{
    // The instruction window is a ring whose head and tail wrap by
    // compare, and fastForward() advances them in closed form. Window
    // sizes that are not powers of two, an odd issue width, and a
    // window smaller than the width must all keep both engines bitwise
    // equal: on a memory-heavy synthetic mix (dense ticks and stall
    // skips), on ?once traces that run dry (the exhausted steady run),
    // and on a single exhausted core across a stats reset.
    struct Ring
    {
        int window;
        int width;
    };
    const Ring rings[] = {{5, 4}, {130, 4}, {128, 3}, {3, 4}};
    const WorkloadMix once = {"file:" + dir + "/mcf-like.trace?once",
                              "file:" + dir + "/gcc-like.trace?once"};
    const WorkloadMix solo = {"file:" + dir + "/h264-like.bin?once"};
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    for (const Ring &r : rings) {
        std::string ring = "window " + std::to_string(r.window) +
                           " width " + std::to_string(r.width);
        auto shaped = [&](const WorkloadMix &mix) {
            SystemConfig cfg = makeConfig(base, mix);
            cfg.windowEntries = r.window;
            cfg.coreWidth = r.width;
            return cfg;
        };
        expectEnginesAgree(shaped(memHeavyMix()), ring + " mem-heavy");
        expectEnginesAgree(shaped(once), ring + " exhausted once traces",
                           /*warm=*/1000, /*run=*/60000);
        expectEnginesAgree(shaped(solo), ring + " exhausted alone run",
                           /*warm=*/2000, /*run=*/20000);
    }
}

TEST_F(EngineDiffFiles, SkipAheadEngagesOnIdleHeavyConfig)
{
    // Regression guard for the skip-ahead path itself: once the ?once
    // traces run dry the whole system is quiescent between refresh
    // deadlines, so the event loop must execute strictly fewer
    // iterations than it simulates cycles — by a wide margin here.
    WorkloadMix mix = {"file:" + dir + "/mcf-like.trace?once",
                       "file:" + dir + "/gcc-like.trace?once"};
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeConfig(base, mix);

    SimLoopStats evt;
    runEngine(cfg, SimEngine::EventLoop, 1000, 60000, &evt);
    EXPECT_EQ(evt.simulatedCycles, 61000u);
    EXPECT_EQ(evt.executedCycles + evt.skippedCycles, evt.simulatedCycles);
    EXPECT_LT(evt.executedCycles, evt.simulatedCycles);
    EXPECT_LT(evt.executedCycles, evt.simulatedCycles / 4)
        << "skip-ahead barely engaged on an idle-heavy config";

    // The dense loop by definition executes every cycle.
    SimLoopStats cyc;
    runEngine(cfg, SimEngine::CycleLoop, 1000, 60000, &cyc);
    EXPECT_EQ(cyc.executedCycles, cyc.simulatedCycles);
    EXPECT_EQ(cyc.skippedCycles, 0u);
}

TEST(EngineDiff, MemoryStallSkipsEngageOnLatencyBoundConfig)
{
    // A single pointer-chasing core is latency-bound: the bus idles
    // between serialized misses while the core stalls on a full
    // window, exactly the "low-intensity phase" the ISSUE targets.
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeConfig(base, {"mcf-like"});

    SimLoopStats evt;
    SystemResult e = runEngine(cfg, SimEngine::EventLoop, kWarm, kRun, &evt);
    EXPECT_LT(evt.executedCycles, evt.simulatedCycles);

    SystemResult c = runEngine(cfg, SimEngine::CycleLoop, kWarm, kRun);
    expectSameResult(c, e);
}

TEST(EngineDiff, RepeatedRunsInterleaveWithResetStats)
{
    // run/resetStats/run sequences (the warmup protocol) must agree
    // even when the skip-ahead crosses the reset boundary state.
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 4;
    SystemConfig cfg = makeConfig(hira, memHeavyMix());

    auto sequence = [&cfg](SimEngine engine) {
        SystemConfig c = cfg;
        c.engine = engine;
        System sys(c);
        sys.run(2000);
        sys.resetStats();
        sys.run(8000);
        sys.resetStats();
        sys.run(8000);
        return sys.result();
    };
    expectSameResult(sequence(SimEngine::CycleLoop),
                     sequence(SimEngine::EventLoop));
}
