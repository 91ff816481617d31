/**
 * @file
 * Integration tests of the full system: determinism, refresh-scheme
 * ordering (NoRefresh >= HiRA >= Baseline at high capacity), PARA
 * overheads, weighted speedup, and full-system trace audits.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dram/timing_checker.hh"
#include "sim/experiment.hh"

using namespace hira;

namespace {

constexpr Cycle kWarm = 20000;
constexpr Cycle kRun = 60000;

WorkloadMix
memHeavyMix()
{
    return {"mcf-like", "libquantum-like", "lbm-like", "gems-like",
            "soplex-like", "milc-like", "leslie3d-like", "omnetpp-like"};
}

double
sumIpc(const std::vector<double> &ipc)
{
    double s = 0.0;
    for (double v : ipc)
        s += v;
    return s;
}

RunResult
quickRun(const GeomSpec &g, const SchemeSpec &s, const WorkloadMix &mix,
         std::uint64_t seed = 77)
{
    return runOne(makeSystemConfig(g, s, mix, seed), kWarm, kRun);
}

} // namespace

TEST(SystemSim, StatsFieldListsKeepTheirOnDiskNames)
{
    // The names reach metric mirrors (ctrlN.<name>, ctrlN.scheme.<name>)
    // and artifact "refresh" objects, and the order is the result
    // cache's "refresh" line: renaming, reordering or re-pointing a
    // field must fail here.
    using C = ControllerStats;
    using CField = std::pair<std::string, std::uint64_t C::*>;
    std::vector<CField> ctrl;
    C::forEachField([&](const char *name, std::uint64_t C::*m) {
        ctrl.emplace_back(name, m);
    });
    EXPECT_EQ(ctrl, (std::vector<CField>{
                        {"reads_served", &C::readsServed},
                        {"writes_served", &C::writesServed},
                        {"read_latency_sum", &C::readLatencySum},
                        {"forwards", &C::forwards},
                        {"cmd.act", &C::acts},
                        {"cmd.pre", &C::pres},
                        {"cmd.ref", &C::refs},
                        {"cmd.hira", &C::hiraOps},
                        {"rejected_requests", &C::rejectedRequests}}));

    using R = RefreshStats;
    using RField = std::pair<std::string, std::uint64_t R::*>;
    std::vector<RField> refresh;
    R::forEachField([&](const char *name, std::uint64_t R::*m) {
        refresh.emplace_back(name, m);
    });
    EXPECT_EQ(refresh, (std::vector<RField>{
                           {"ref_commands", &R::refCommands},
                           {"row_refreshes", &R::rowRefreshes},
                           {"access_paired", &R::accessPaired},
                           {"refresh_paired", &R::refreshPaired},
                           {"standalone", &R::standalone},
                           {"deadline_misses", &R::deadlineMisses},
                           {"preventive_generated", &R::preventiveGenerated},
                           {"preventive_dropped", &R::preventiveDropped}}));
}

TEST(SystemSim, DeterministicAcrossRuns)
{
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    RunResult a = quickRun(g, s, memHeavyMix());
    RunResult b = quickRun(g, s, memHeavyMix());
    ASSERT_EQ(a.sys.ipc.size(), b.sys.ipc.size());
    for (std::size_t i = 0; i < a.sys.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.sys.ipc[i], b.sys.ipc[i]);
}

TEST(SystemSim, AllCoresMakeProgress)
{
    GeomSpec g;
    SchemeSpec s;
    RunResult r = quickRun(g, s, memHeavyMix());
    for (double ipc : r.sys.ipc)
        EXPECT_GT(ipc, 0.005);
    EXPECT_GT(r.sys.memReads, 1000u);
}

TEST(SystemSim, RefreshCostsPerformanceAtHighCapacity)
{
    // Fig. 9a's first-order effect: at 128 Gb the baseline pays heavily
    // for tRFC; the ideal No-Refresh system does not.
    GeomSpec g;
    g.capacityGb = 128.0;
    SchemeSpec none, base;
    none.kind = SchemeKind::NoRefresh;
    base.kind = SchemeKind::Baseline;
    double ipc_none = sumIpc(quickRun(g, none, memHeavyMix()).sys.ipc);
    double ipc_base = sumIpc(quickRun(g, base, memHeavyMix()).sys.ipc);
    EXPECT_LT(ipc_base, ipc_none * 0.90);
}

TEST(SystemSim, HiraBeatsBaselineAtHighCapacity)
{
    // The paper's headline (Fig. 9b): HiRA-2 outperforms rank-level REF
    // for high-capacity chips on memory-intensive workloads.
    GeomSpec g;
    g.capacityGb = 128.0;
    SchemeSpec base, hira;
    base.kind = SchemeKind::Baseline;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    double ipc_base = sumIpc(quickRun(g, base, memHeavyMix()).sys.ipc);
    double ipc_hira = sumIpc(quickRun(g, hira, memHeavyMix()).sys.ipc);
    EXPECT_GT(ipc_hira, ipc_base * 1.02);
}

TEST(SystemSim, HiraRefreshRateMatchesSchedule)
{
    GeomSpec g;
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    RunResult r = quickRun(g, hira, memHeavyMix());
    // Expected row refreshes over warmup+run: banks * cycles / interval.
    TimingCycles tc(g.toTiming());
    double interval = static_cast<double>(tc.refi) * 8192.0 /
                      static_cast<double>(g.toGeometry()
                                              .refreshGroupsPerBank);
    double expected =
        static_cast<double>(kWarm + kRun) / interval * 16.0;
    EXPECT_NEAR(static_cast<double>(r.sys.refresh.rowRefreshes), expected,
                expected * 0.15);
    EXPECT_EQ(r.sys.refresh.refCommands, 0u);
}

TEST(SystemSim, ParaSlowsSystemMoreAtLowerNrh)
{
    GeomSpec g;
    SchemeSpec none, p1024, p64;
    none.kind = SchemeKind::Baseline;
    p1024 = none;
    p1024.paraEnabled = true;
    p1024.nrh = 1024.0;
    p64 = p1024;
    p64.nrh = 64.0;
    double ipc_none = sumIpc(quickRun(g, none, memHeavyMix()).sys.ipc);
    double ipc_1024 = sumIpc(quickRun(g, p1024, memHeavyMix()).sys.ipc);
    double ipc_64 = sumIpc(quickRun(g, p64, memHeavyMix()).sys.ipc);
    EXPECT_LT(ipc_1024, ipc_none);
    EXPECT_LT(ipc_64, ipc_1024 * 0.6); // NRH=64 is devastating (Fig. 12)
}

TEST(SystemSim, HiraRecoversParaOverheadAtLowNrh)
{
    // Fig. 12b: HiRA-4 gives a large speedup over plain PARA at NRH=64.
    GeomSpec g;
    SchemeSpec para, hira;
    para.kind = SchemeKind::Baseline;
    para.paraEnabled = true;
    para.nrh = 64.0;
    hira = para;
    hira.preventiveViaHira = true;
    hira.slackN = 4;
    double ipc_para = sumIpc(quickRun(g, para, memHeavyMix()).sys.ipc);
    double ipc_hira = sumIpc(quickRun(g, hira, memHeavyMix()).sys.ipc);
    EXPECT_GT(ipc_hira, ipc_para * 1.2);
}

TEST(SystemSim, WeightedSpeedupMath)
{
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0, 2.0}, {2.0, 2.0}), 1.5);
    EXPECT_DOUBLE_EQ(weightedSpeedup({0.5}, {1.0}), 0.5);
}

TEST(SystemSim, MultiChannelImprovesThroughput)
{
    GeomSpec one, four;
    four.channels = 4;
    SchemeSpec s;
    double ipc1 = sumIpc(quickRun(one, s, memHeavyMix()).sys.ipc);
    double ipc4 = sumIpc(quickRun(four, s, memHeavyMix()).sys.ipc);
    EXPECT_GT(ipc4, ipc1 * 1.3);
}

TEST(SystemSim, FullSystemTracesAuditClean)
{
    // End-to-end protocol audit: every channel's command trace from a
    // full-system run (HiRA periodic + PreventiveRC PARA) is legal.
    GeomSpec g;
    g.channels = 2;
    SchemeSpec s;
    s.kind = SchemeKind::HiraMc;
    s.slackN = 4;
    s.paraEnabled = true;
    s.preventiveViaHira = true;
    s.nrh = 512.0;
    SystemConfig cfg = makeSystemConfig(g, s, memHeavyMix(), 3);
    cfg.recordTraces = true;
    System sys(cfg);
    sys.run(30000);
    TimingChecker checker(cfg.geom, cfg.tp);
    for (int ch = 0; ch < sys.channels(); ++ch) {
        auto violations = checker.check(sys.controller(ch).trace());
        EXPECT_TRUE(violations.empty())
            << "channel " << ch << ": "
            << (violations.empty() ? "" : violations[0].message);
    }
}

TEST(SystemSim, BaselineSystemTraceAuditsClean)
{
    GeomSpec g;
    g.ranks = 2;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    s.paraEnabled = true;
    s.nrh = 256.0;
    SystemConfig cfg = makeSystemConfig(g, s, memHeavyMix(), 4);
    cfg.recordTraces = true;
    System sys(cfg);
    sys.run(30000);
    TimingChecker checker(cfg.geom, cfg.tp);
    auto violations = checker.check(sys.controller(0).trace());
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0].message);
}
