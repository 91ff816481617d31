/**
 * @file
 * The observability no-perturbation contract: instrumentation only
 * *reads* simulator state, so SystemResult must be bitwise identical —
 * every IPC double, every command/refresh counter — with HIRA_METRICS
 * off and full, across refresh schemes and both simulation-loop
 * engines, and with trace-event emission enabled. Also sanity-checks
 * the snapshot mirrors against the stats structs they mirror, and the
 * measurement-interval scoping of RunResult::metrics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <stdlib.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/trace_events.hh"
#include "sim/experiment.hh"

using namespace hira;

namespace {

constexpr Cycle kWarm = 2000;
constexpr Cycle kRun = 15000;

WorkloadMix
mix4()
{
    return {"mcf-like", "libquantum-like", "gcc-like", "h264-like"};
}

SystemResult
runAtLevel(SystemConfig cfg, MetricsLevel level, SimEngine engine,
           MetricsSnapshot *snap = nullptr, SimLoopStats *loop = nullptr)
{
    cfg.metricsLevel = level;
    cfg.engine = engine;
    System sys(cfg);
    sys.run(kWarm);
    sys.resetStats();
    sys.run(kRun);
    if (snap != nullptr)
        *snap = sys.metricsSnapshot();
    if (loop != nullptr)
        *loop = sys.loopStats();
    return sys.result();
}

void
expectIdentical(const SystemResult &a, const SystemResult &b,
                const std::string &label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "core " << i;
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.avgReadLatencyCycles, b.avgReadLatencyCycles);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);

    EXPECT_EQ(a.controller.readsServed, b.controller.readsServed);
    EXPECT_EQ(a.controller.writesServed, b.controller.writesServed);
    EXPECT_EQ(a.controller.readLatencySum, b.controller.readLatencySum);
    EXPECT_EQ(a.controller.forwards, b.controller.forwards);
    EXPECT_EQ(a.controller.acts, b.controller.acts);
    EXPECT_EQ(a.controller.pres, b.controller.pres);
    EXPECT_EQ(a.controller.refs, b.controller.refs);
    EXPECT_EQ(a.controller.hiraOps, b.controller.hiraOps);
    EXPECT_EQ(a.controller.rejectedRequests, b.controller.rejectedRequests);

    EXPECT_EQ(a.refresh.refCommands, b.refresh.refCommands);
    EXPECT_EQ(a.refresh.rowRefreshes, b.refresh.rowRefreshes);
    EXPECT_EQ(a.refresh.accessPaired, b.refresh.accessPaired);
    EXPECT_EQ(a.refresh.refreshPaired, b.refresh.refreshPaired);
    EXPECT_EQ(a.refresh.standalone, b.refresh.standalone);
    EXPECT_EQ(a.refresh.deadlineMisses, b.refresh.deadlineMisses);
    EXPECT_EQ(a.refresh.preventiveGenerated, b.refresh.preventiveGenerated);
    EXPECT_EQ(a.refresh.preventiveDropped, b.refresh.preventiveDropped);
}

void
expectLevelsAgree(const SystemConfig &cfg, const std::string &label)
{
    for (SimEngine engine : {SimEngine::CycleLoop, SimEngine::EventLoop}) {
        const char *ename =
            engine == SimEngine::CycleLoop ? "cycle" : "event";
        SystemResult off = runAtLevel(cfg, MetricsLevel::Off, engine);
        SystemResult full = runAtLevel(cfg, MetricsLevel::Full, engine);
        expectIdentical(off, full, label + " off-vs-full " + ename);
        SystemResult ctrs = runAtLevel(cfg, MetricsLevel::Counters, engine);
        expectIdentical(off, ctrs, label + " off-vs-counters " + ename);
    }
}

SystemConfig
makeConfig(const SchemeSpec &scheme, std::uint64_t seed = 99)
{
    return makeSystemConfig(GeomSpec{}, scheme, mix4(), seed);
}

} // namespace

TEST(MetricsEquivalence, BaselineSchemes)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    expectLevelsAgree(makeConfig(base), "baseline");

    SchemeSpec none;
    none.kind = SchemeKind::NoRefresh;
    expectLevelsAgree(makeConfig(none), "norefresh");
}

TEST(MetricsEquivalence, ParaSchemes)
{
    // Preventive refreshes draw from the per-run RNG: the strongest
    // perturbation detector, since any instrumentation that consumed
    // randomness or reordered commands would shift every PARA draw.
    SchemeSpec para;
    para.kind = SchemeKind::Baseline;
    para.paraEnabled = true;
    para.nrh = 256.0;
    expectLevelsAgree(makeConfig(para), "baseline+para");
}

TEST(MetricsEquivalence, HiraMcSchemes)
{
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    expectLevelsAgree(makeConfig(hira), "hira-2");

    // PreventiveRC with drops: exercises the PR-FIFO depth histogram
    // and the preventive_dropped mirror on a config that actually drops.
    SchemeSpec prc = hira;
    prc.slackN = 4;
    prc.paraEnabled = true;
    prc.preventiveViaHira = true;
    prc.nrh = 64.0;
    expectLevelsAgree(makeConfig(prc), "hira-4+para(hira)");
}

TEST(MetricsEquivalence, TracingDoesNotPerturbResults)
{
    std::string path = strprintf("/tmp/hira_trace_equiv_%d.json",
                                 static_cast<int>(::getpid()));
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    SystemConfig cfg = makeConfig(hira);

    SystemResult untraced =
        runAtLevel(cfg, MetricsLevel::Full, SimEngine::EventLoop);

    TraceEventLog &tlog = TraceEventLog::global();
    tlog.resetForTest(path);
    ASSERT_TRUE(tlog.enabled());
    SystemResult traced =
        runAtLevel(cfg, MetricsLevel::Full, SimEngine::EventLoop);
    EXPECT_GT(tlog.bufferedEvents(), 0u)
        << "tracing enabled but the kernel emitted nothing";
    tlog.flush();
    tlog.resetForTest(std::string());

    expectIdentical(untraced, traced, "traced vs untraced");

    // The flushed file is a Trace Event Format envelope.
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "trace file missing: " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    in.close();
    ::remove(path.c_str());
}

TEST(MetricsEquivalence, SnapshotMirrorsMatchStats)
{
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    SystemConfig cfg = makeConfig(hira);

    MetricsSnapshot snap;
    SimLoopStats loop;
    SystemResult res = runAtLevel(cfg, MetricsLevel::Full,
                                  SimEngine::EventLoop, &snap, &loop);
    ASSERT_FALSE(snap.empty());

    auto counterAt = [&snap](const std::string &name) {
        auto it = snap.values.find(name);
        EXPECT_NE(it, snap.values.end()) << "missing metric " << name;
        return it != snap.values.end() ? it->second.count : 0;
    };

    // Kernel mirrors == SimLoopStats.
    EXPECT_EQ(counterAt("kernel.simulated_cycles"), loop.simulatedCycles);
    EXPECT_EQ(counterAt("kernel.executed_cycles"), loop.executedCycles);
    EXPECT_EQ(counterAt("kernel.skipped_cycles"), loop.skippedCycles);
    EXPECT_EQ(counterAt("kernel.ctrl_ticks"), loop.ctrlTicks);

    // Controller + scheme mirrors == the (single-channel) result sums.
    EXPECT_EQ(counterAt("ctrl0.reads_served"), res.controller.readsServed);
    EXPECT_EQ(counterAt("ctrl0.cmd.act"), res.controller.acts);
    EXPECT_EQ(counterAt("ctrl0.cmd.hira"), res.controller.hiraOps);
    EXPECT_EQ(counterAt("ctrl0.scheme.ref_commands"),
              res.refresh.refCommands);
    EXPECT_EQ(counterAt("ctrl0.scheme.preventive_generated"),
              res.refresh.preventiveGenerated);
    EXPECT_EQ(counterAt("ctrl0.scheme.preventive_dropped"),
              res.refresh.preventiveDropped);
    EXPECT_EQ(counterAt("llc.hits"), res.llcHits);
    EXPECT_EQ(counterAt("llc.misses"), res.llcMisses);

    // Live event-kernel metrics exist under Full.
    EXPECT_EQ(snap.values.count("kernel.skip_len"), 1u);
    EXPECT_EQ(snap.values.at("kernel.skip_len").kind,
              MetricValue::Kind::Histogram);
    // PR-FIFO depth histogram is registered under the scheme scope.
    EXPECT_EQ(snap.values.count("ctrl0.scheme.pr_fifo_depth"), 1u);
}

TEST(MetricsEquivalence, OffSnapshotIsEmpty)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    MetricsSnapshot snap;
    runAtLevel(makeConfig(base), MetricsLevel::Off, SimEngine::EventLoop,
               &snap);
    EXPECT_TRUE(snap.empty());
}

TEST(MetricsEquivalence, RunOneScopesMetricsToMeasurement)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeConfig(base);
    cfg.metricsLevel = MetricsLevel::Full;

    RunResult r = runOne(cfg, kWarm, kRun);
    ASSERT_FALSE(r.metrics.empty());
    // The warmup's cycles were diffed away: the simulated-cycle mirror
    // covers exactly the measurement interval.
    EXPECT_EQ(r.metrics.values.at("kernel.simulated_cycles").count, kRun);

    // And the mirrors survive the diff consistently: executed + skipped
    // partition the measured cycles.
    EXPECT_EQ(r.metrics.values.at("kernel.executed_cycles").count +
                  r.metrics.values.at("kernel.skipped_cycles").count,
              kRun);
}

TEST(MetricsEquivalence, RunOneMetricsEmptyWhenOff)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeConfig(base);
    cfg.metricsLevel = MetricsLevel::Off;
    RunResult r = runOne(cfg, kWarm, kRun);
    EXPECT_TRUE(r.metrics.empty());
}
