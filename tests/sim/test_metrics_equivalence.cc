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
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/trace_events.hh"
#include "result_expect.hh"
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
expectLevelsAgree(const SystemConfig &cfg, const std::string &label)
{
    for (SimEngine engine : {SimEngine::CycleLoop, SimEngine::EventLoop}) {
        const char *ename =
            engine == SimEngine::CycleLoop ? "cycle" : "event";
        SystemResult off = runAtLevel(cfg, MetricsLevel::Off, engine);
        for (MetricsLevel level :
             {MetricsLevel::Full, MetricsLevel::Counters}) {
            SCOPED_TRACE(label +
                         (level == MetricsLevel::Full ? " off-vs-full "
                                                      : " off-vs-counters ") +
                         ename);
            expectSameResult(off, runAtLevel(cfg, level, engine));
        }
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

    expectSameResult(untraced, traced);

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
    // Every scheme whose periodic refresh is REF (plain, inherited by a
    // zoo scheme, or HiRA-MC's Section 9.2 mode) plus HiRA-MC proper.
    std::vector<SchemeSpec> specs(6);
    specs[0].kind = SchemeKind::Baseline;
    specs[1].kind = SchemeKind::Rfm;
    specs[2].kind = SchemeKind::Prac;
    specs[3].kind = SchemeKind::Graphene;
    specs[4].kind = SchemeKind::Baseline;
    specs[5].kind = SchemeKind::HiraMc;
    for (std::size_t i = 4; i < specs.size(); ++i) {
        specs[i].paraEnabled = true;
        specs[i].preventiveViaHira = true;
        specs[i].nrh = 256.0;
    }

    for (const SchemeSpec &spec : specs) {
        SCOPED_TRACE(spec.label());
        SystemConfig cfg = makeConfig(spec);

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
        EXPECT_EQ(counterAt("kernel.simulated_cycles"),
                  loop.simulatedCycles);
        EXPECT_EQ(counterAt("kernel.executed_cycles"), loop.executedCycles);
        EXPECT_EQ(counterAt("kernel.skipped_cycles"), loop.skippedCycles);
        EXPECT_EQ(counterAt("kernel.ctrl_ticks"), loop.ctrlTicks);

        // Controller + scheme mirrors == the (single-channel) result sums.
        ControllerStats::forEachField([&](const char *name, auto m) {
            EXPECT_EQ(counterAt(std::string("ctrl0.") + name),
                      res.controller.*m);
        });
        RefreshStats::forEachField([&](const char *name, auto m) {
            EXPECT_EQ(counterAt(std::string("ctrl0.scheme.") + name),
                      res.refresh.*m);
        });
        EXPECT_EQ(counterAt("llc.hits"), res.llcHits);
        EXPECT_EQ(counterAt("llc.misses"), res.llcMisses);

        // Every REF the controller issued is counted by the scheme that
        // issued it.
        EXPECT_EQ(counterAt("ctrl0.scheme.ref_commands"),
                  counterAt("ctrl0.cmd.ref"));
        if (spec.kind != SchemeKind::HiraMc) {
            EXPECT_GT(counterAt("ctrl0.cmd.ref"), 0u);
        }

        // Live event-kernel metrics exist under Full.
        EXPECT_EQ(snap.values.count("kernel.skip_len"), 1u);
        EXPECT_EQ(snap.values.at("kernel.skip_len").kind,
                  MetricValue::Kind::Histogram);
        // HiRA-MC registers its PR-FIFO depth histogram under the
        // scheme scope.
        EXPECT_EQ(snap.values.count("ctrl0.scheme.pr_fifo_depth"),
                  cfg.scheme == SchemeKind::HiraMc ? 1u : 0u);
    }
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
