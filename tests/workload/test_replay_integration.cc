/**
 * @file
 * Integration tests for trace-driven workloads: a synthetic run
 * recorded to disk and replayed through FileTraceSource must drive the
 * full system to bitwise-identical IPC in both formats, and SweepRunner
 * must evaluate mixes combining synthetic and "file:" workloads end to
 * end. Recording a trace that runs dry mid-run must keep its tail.
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
#include "workload/file_trace.hh"

using namespace hira;

namespace {

class ReplayIntegrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string templ = "/tmp/hira_replay.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        for (const std::string &f : files)
            ::unlink(f.c_str());
        ::rmdir(dir.c_str());
    }

    std::string dir;
    std::vector<std::string> files;

    static constexpr Cycle kWarmup = 2000;
    static constexpr Cycle kMeasure = 15000;

    /**
     * Record a live run of @p mix, then replay it from the dumped
     * per-core files; return {live, replay}.
     */
    std::pair<RunResult, RunResult>
    recordAndReplay(const WorkloadMix &mix, TraceFormat fmt)
    {
        GeomSpec geom;
        SchemeSpec scheme;
        scheme.kind = SchemeKind::Baseline;

        SystemConfig cfg = makeSystemConfig(geom, scheme, mix, 21);
        cfg.traceDumpDir = dir;
        cfg.traceDumpFormat = fmt;
        RunResult live = runOne(cfg, kWarmup, kMeasure);

        const char *ext = fmt == TraceFormat::Binary ? "bin" : "trace";
        WorkloadMix replay_mix;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            std::string path =
                dir + "/core" + std::to_string(i) + "." + ext;
            files.push_back(path);
            replay_mix.push_back("file:" + path);
        }
        SystemConfig rcfg = makeSystemConfig(geom, scheme, replay_mix, 21);
        RunResult replay = runOne(rcfg, kWarmup, kMeasure);
        return {live, replay};
    }
};

} // namespace

TEST_F(ReplayIntegrationTest, TextReplayIsBitwiseIdentical)
{
    auto [live, replay] = recordAndReplay(
        {"mcf-like", "gcc-like", "libquantum-like", "h264-like"},
        TraceFormat::Text);
    expectSameResult(live.sys, replay.sys);
}

TEST_F(ReplayIntegrationTest, BinaryReplayIsBitwiseIdentical)
{
    auto [live, replay] = recordAndReplay(
        {"lbm-like", "omnetpp-like"}, TraceFormat::Binary);
    expectSameResult(live.sys, replay.sys);
}

TEST_F(ReplayIntegrationTest, RecordingAnExhaustedTraceKeepsEveryInstruction)
{
    // Core 0 replays a 4000-instruction trace once and runs dry long
    // before the run ends. Recording must still capture every
    // instruction it executes after that (the non-memory tail), so the
    // dumped files replayed in looping mode never wrap around to the
    // trace's memory accesses and reproduce the run exactly.
    std::string mcf = dir + "/mcf4000.trace";
    files.push_back(mcf);
    {
        TraceGen gen(benchmarkByName("mcf-like"), 5, 0, Addr(1) << 26);
        dumpTrace(gen, mcf, TraceFormat::Text, 4000);
    }
    GeomSpec geom;
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeSystemConfig(
        geom, scheme, {"file:" + mcf + "?once", "gcc-like"}, 9);
    cfg.traceDumpDir = dir;
    RunResult live = runOne(cfg, kWarmup, kMeasure);
    ASSERT_GT(live.sys.ipc[0], 0.0);

    WorkloadMix replay_mix;
    for (int i = 0; i < 2; ++i) {
        std::string path = dir + "/core" + std::to_string(i) + ".trace";
        files.push_back(path);
        replay_mix.push_back("file:" + path);
    }
    RunResult replay =
        runOne(makeSystemConfig(geom, scheme, replay_mix, 9), kWarmup,
               kMeasure);
    expectSameResult(live.sys, replay.sys);
}

TEST_F(ReplayIntegrationTest, ShortTraceLoopsThroughLongerRun)
{
    // Record a short run, then replay it through a 4x longer one: the
    // looping FileTraceSource must keep feeding the core (the system
    // keeps making progress well past one trace length).
    GeomSpec geom;
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;
    WorkloadMix mix = {"mcf-like"};

    SystemConfig cfg = makeSystemConfig(geom, scheme, mix, 3);
    cfg.traceDumpDir = dir;
    RunResult shortRun = runOne(cfg, 500, 3000);

    std::string path = dir + "/core0.trace";
    files.push_back(path);
    SystemConfig rcfg =
        makeSystemConfig(geom, scheme, {"file:" + path}, 3);
    RunResult longRun = runOne(rcfg, 500, 12000);

    EXPECT_GT(shortRun.sys.ipc[0], 0.0);
    EXPECT_GT(longRun.sys.ipc[0], 0.0);
    // ~4x the cycles with a looping trace: clearly more cache accesses
    // than one pass of the recorded run contains. (Repeated passes hit
    // in the LLC, so memory traffic is the wrong looping signal.)
    std::uint64_t short_accesses =
        shortRun.sys.llcHits + shortRun.sys.llcMisses;
    std::uint64_t long_accesses =
        longRun.sys.llcHits + longRun.sys.llcMisses;
    EXPECT_GT(long_accesses, short_accesses * 2);
}

TEST_F(ReplayIntegrationTest, SweepRunnerMixesSyntheticAndFileWorkloads)
{
    // Capture one benchmark to disk, then sweep a mix that pairs the
    // file-backed replay with synthetic pool workloads, exercising the
    // alone-IPC cache and the worker pool over "file:" specs.
    GeomSpec geom;
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;

    SystemConfig cfg =
        makeSystemConfig(geom, scheme, {"gcc-like"}, 11);
    cfg.traceDumpDir = dir;
    runOne(cfg, kWarmup, kMeasure);
    std::string path = dir + "/core0.trace";
    files.push_back(path);

    BenchKnobs knobs;
    knobs.mixes = 1;
    knobs.cycles = kMeasure;
    knobs.warmup = kWarmup;
    knobs.threads = 2;
    knobs.cores = 3;

    std::vector<WorkloadMix> mixes = {
        {"mcf-like", "file:" + path, "h264-like"},
    };
    SweepRunner runner(knobs, mixes);
    ASSERT_EQ(runner.mixes().size(), 1u);

    double ws = runner.meanWs(geom, scheme);
    EXPECT_GT(ws, 0.0);
    EXPECT_LE(ws, 3.0 + 1e-9); // weighted speedup bounded by core count

    // Deterministic across runner instances.
    SweepRunner runner2(knobs, mixes);
    EXPECT_EQ(ws, runner2.meanWs(geom, scheme));
}

TEST_F(ReplayIntegrationTest, HiraCoresKnobSizesGeneratedMixes)
{
    BenchKnobs knobs;
    knobs.mixes = 3;
    knobs.cores = 5;
    SweepRunner runner(knobs);
    ASSERT_EQ(runner.mixes().size(), 3u);
    for (const WorkloadMix &mix : runner.mixes())
        EXPECT_EQ(mix.size(), 5u);
}
