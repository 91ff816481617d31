/**
 * @file
 * Tests for the DDR5-4800 preset and its interaction with the timing
 * machinery (the paper's Section 2.3 notes DDR5 halves tREFI/tREFW),
 * plus an end-to-end System::run on DDR5 timings pinning the
 * cycle/event engine equivalence off the DDR4 default.
 */

#include <gtest/gtest.h>

#include "dram/timing_state.hh"
#include "result_expect.hh"
#include "sim/experiment.hh"

using namespace hira;

TEST(Ddr5, PresetHalvesRefreshWindow)
{
    TimingParams d4 = ddr4_2400(16.0);
    TimingParams d5 = ddr5_4800(16.0);
    EXPECT_DOUBLE_EQ(d5.tREFI, d4.tREFI / 2.0);
    EXPECT_DOUBLE_EQ(d5.tREFW, d4.tREFW / 2.0);
}

TEST(Ddr5, DoubleClock)
{
    TimingParams d5 = ddr5_4800();
    EXPECT_NEAR(d5.tCK, 1.0 / 2.4, 1e-12);
    // 3 ns on the 2.4 GHz clock is 8 cycles (still on the command grid).
    EXPECT_EQ(d5.cycles(3.0), 8u);
}

TEST(Ddr5, HiraHeadlineHoldsOnDdr5)
{
    // The 51.4 % two-row latency reduction is set by tRAS/tRP/t1/t2,
    // which barely move across generations.
    TimingParams d5 = ddr5_4800();
    EXPECT_NEAR(d5.hiraLatencyReduction(), 0.51, 0.02);
}

TEST(Ddr5, TimingModelRunsOnDdr5)
{
    Geometry geom = Geometry::forCapacityGb(16.0);
    TimingParams d5 = ddr5_4800(16.0);
    ChannelTimingModel model(geom, d5);
    const TimingCycles &tc = model.cycles();
    model.issueAct(0, 5, 0);
    EXPECT_EQ(model.earliestRd(0), tc.rcd);
    Cycle second = model.issueHira(1, 7, 9, model.earliestHira(1));
    EXPECT_EQ(second, model.earliestHira(1) == 0
                          ? tc.hiraSpan()
                          : second);
    EXPECT_EQ(model.openRow(1), 9u);
}

TEST(Ddr5, RefreshIntervalCyclesConsistent)
{
    TimingParams d5 = ddr5_4800();
    TimingCycles tc(d5);
    // 3.9 us at 2.4 GHz = 9360 cycles (same count as DDR4's 7.8 us at
    // 1.2 GHz, by construction of the standards).
    EXPECT_EQ(tc.refi, 9360u);
}

TEST(Ddr5, EndToEndSystemRunMatchesAcrossEngines)
{
    // Full-system integration on DDR5-4800 timings through the
    // standards registry: both loop engines must agree bitwise at the
    // SystemResult level, and the run must actually do memory work —
    // the DDR5 grid is not just a timing-table variation, it exercises
    // the halved-tREFI refresh cadence end to end.
    GeomSpec geom;
    geom.standard = "ddr5_4800";
    geom.capacityGb = 16.0;
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeSystemConfig(
        geom, scheme, {"mcf-like", "libquantum-like"}, 77);
    EXPECT_DOUBLE_EQ(cfg.tp.tCK, ddr5_4800(16.0).tCK);

    auto runWith = [&cfg](SimEngine engine) {
        SystemConfig c = cfg;
        c.engine = engine;
        System sys(c);
        sys.run(3000);
        sys.resetStats();
        sys.run(20000);
        return sys.result();
    };
    SystemResult cyc = runWith(SimEngine::CycleLoop);
    SystemResult evt = runWith(SimEngine::EventLoop);

    expectSameResult(cyc, evt);

    EXPECT_GT(cyc.memReads, 0u);
    EXPECT_GT(cyc.refresh.refCommands, 0u);
    // DDR5's tREFI is half DDR4's in wall clock but the same cycle
    // count on the doubled clock: 20k measured cycles hold >= 2 REFs.
    EXPECT_GE(cyc.refresh.refCommands, 2u);
}
