/**
 * @file
 * Tests for ChannelTimingModel: each DDR4 constraint in isolation, the
 * HiRA sequence semantics, tFAW with HiRA's double activation (and a
 * controller that must not start a HiRA op the two-slot tFAW bound
 * forbids), and the REF blocking window.
 */

#include <gtest/gtest.h>

#include "dram/timing_state.hh"
#include "mem/controller.hh"

using namespace hira;

namespace {

struct Fixture
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    TimingParams tp = ddr4_2400(8.0);
    ChannelTimingModel model{geom, tp};
    const TimingCycles &tc = model.cycles();
};

/**
 * DDR4-2400 with x16-page activation timing (tRRD_S 5.3 ns, tRRD_L
 * 6.4 ns, tFAW 30 ns): t1 + t2 (8 cycles) is shorter than tFAW - 3 tRRD_S
 * (36 - 21 cycles), so after three ACTs at tRRD_S spacing the fourth
 * tFAW slot is free for a plain ACT but not for both ACTs of a HiRA op.
 * The standard's x8 values never open that window.
 */
TimingParams
shortSpanTiming()
{
    TimingParams tp = ddr4_2400(8.0);
    tp.tRRD_S = 5.3;
    tp.tRRD_L = 6.4;
    tp.tFAW = 30.0;
    return tp;
}

/** Offers a refresh to hide under every demand ACT to bank 12 only. */
class HideUnderBank12 final : public RefreshScheme
{
  public:
    void tick(Cycle) override {}
    Cycle nextEventCycle(Cycle) const override { return kNeverCycle; }

    RowId
    takeHiddenRefresh(std::size_t bank, RowId, Cycle) override
    {
        return bank == 12 ? 7 : kNoRow;
    }
};

} // namespace

TEST(TimingCycles, ConversionTable)
{
    TimingCycles tc(ddr4_2400(8.0));
    EXPECT_EQ(tc.rcd, 18u);  // 14.25 / 0.8333
    EXPECT_EQ(tc.rp, 18u);
    EXPECT_EQ(tc.ras, 39u);  // 32 ns
    EXPECT_EQ(tc.rc, 56u);   // 46.25 ns
    EXPECT_EQ(tc.faw, 20u);  // 16 ns
    EXPECT_EQ(tc.c1, 4u);    // 3 ns
    EXPECT_EQ(tc.c2, 4u);
    EXPECT_EQ(tc.hiraSpan(), 8u);
    EXPECT_EQ(tc.refi, 9360u);
}

TEST(TimingState, FreshBankImmediatelyActivatable)
{
    Fixture f;
    EXPECT_EQ(f.model.earliestAct(0), 0u);
    EXPECT_EQ(f.model.openRow(0), kNoRow);
}

TEST(TimingState, ActSetsRcdRasRc)
{
    Fixture f;
    f.model.issueAct(0, 42, 100);
    EXPECT_EQ(f.model.openRow(0), 42u);
    EXPECT_EQ(f.model.earliestRd(0), 100 + f.tc.rcd);
    EXPECT_EQ(f.model.earliestWr(0), 100 + f.tc.rcd);
    EXPECT_EQ(f.model.earliestPre(0), 100 + f.tc.ras);
    // Same-bank re-activation: tRC (after an intervening PRE).
    EXPECT_GE(f.model.earliestAct(0), 100 + f.tc.rc);
}

TEST(TimingState, PreThenActRespectsRp)
{
    Fixture f;
    f.model.issueAct(0, 1, 0);
    Cycle pre_at = f.model.earliestPre(0);
    f.model.issuePre(0, pre_at);
    EXPECT_EQ(f.model.openRow(0), kNoRow);
    EXPECT_GE(f.model.earliestAct(0), pre_at + f.tc.rp);
}

TEST(TimingState, RrdBetweenBanks)
{
    Fixture f;
    f.model.issueAct(0, 1, 0);
    // Bank 1 shares the bank group with bank 0 -> tRRD_L.
    EXPECT_EQ(f.model.earliestAct(1), f.tc.rrdL);
    // Bank 4 is in another group -> tRRD_S.
    EXPECT_EQ(f.model.earliestAct(4), f.tc.rrdS);
}

TEST(TimingState, FawLimitsFourActivations)
{
    Fixture f;
    // Four ACTs to different bank groups as fast as tRRD_S allows.
    Cycle t = 0;
    for (BankId b : {BankId(0), BankId(4), BankId(8), BankId(12)}) {
        t = std::max(t, f.model.earliestAct(b));
        f.model.issueAct(b, 1, t);
    }
    // The fifth ACT must wait for the tFAW window from the first.
    Cycle fifth = f.model.earliestAct(1);
    EXPECT_GE(fifth, f.tc.faw);
}

TEST(TimingState, ReadOccupiesDataBusAndSetsRtp)
{
    Fixture f;
    f.model.issueAct(0, 1, 0);
    Cycle rd_at = f.model.earliestRd(0);
    Cycle done = f.model.issueRd(0, rd_at);
    EXPECT_EQ(done, rd_at + f.tc.cl + f.tc.bl);
    EXPECT_GE(f.model.earliestPre(0), rd_at + f.tc.rtp);
    EXPECT_EQ(f.model.dataBusBusyCycles(), f.tc.bl);
}

TEST(TimingState, ConsecutiveReadsSpacedByCcd)
{
    Fixture f;
    f.model.issueAct(0, 1, 0);
    f.model.issueAct(4, 1, f.model.earliestAct(4));
    Cycle rd1 = f.model.earliestRd(0);
    f.model.issueRd(0, rd1);
    // Same bank group -> tCCD_L; different group -> tCCD_S.
    EXPECT_GE(f.model.earliestRd(0), rd1 + f.tc.ccdL);
    EXPECT_GE(f.model.earliestRd(4), rd1 + f.tc.ccdS);
}

TEST(TimingState, WriteRecoveryBeforePre)
{
    Fixture f;
    f.model.issueAct(0, 1, 0);
    Cycle wr_at = f.model.earliestWr(0);
    f.model.issueWr(0, wr_at);
    EXPECT_GE(f.model.earliestPre(0),
              wr_at + f.tc.cwl + f.tc.bl + f.tc.wr);
}

TEST(TimingState, WriteToReadTurnaround)
{
    Fixture f;
    f.model.issueAct(0, 1, 0);
    f.model.issueAct(4, 1, f.model.earliestAct(4));
    Cycle wr_at = f.model.earliestWr(0);
    f.model.issueWr(0, wr_at);
    Cycle wr_end = wr_at + f.tc.cwl + f.tc.bl;
    EXPECT_GE(f.model.earliestRd(4), wr_end + f.tc.wtrS);
    EXPECT_GE(f.model.earliestRd(0), wr_end + f.tc.wtrL);
}

TEST(TimingState, RefBlocksWholeRank)
{
    Fixture f;
    Cycle ref_at = f.model.earliestRef(0);
    f.model.issueRef(0, ref_at);
    for (BankId b = 0; b < 16; ++b)
        EXPECT_GE(f.model.earliestAct(b), ref_at + f.tc.rfc);
}

TEST(TimingState, RefDoesNotBlockOtherRanks)
{
    Geometry g = Geometry::forCapacityGb(8.0);
    g.ranksPerChannel = 2;
    ChannelTimingModel model(g, ddr4_2400(8.0));
    model.issueRef(0, 0);
    EXPECT_EQ(model.earliestAct(model.bankIndex(1, 0)), 0u);
}

TEST(TimingState, RefAfterPreWaitsForRp)
{
    Fixture f;
    f.model.issueAct(3, 9, 0);
    Cycle pre_at = f.model.earliestPre(3);
    f.model.issuePre(3, pre_at);
    EXPECT_GE(f.model.earliestRef(0), pre_at + f.tc.rp);
}

TEST(TimingState, HiraSequenceTiming)
{
    Fixture f;
    Cycle start = f.model.earliestHira(0);
    Cycle second = f.model.issueHira(0, /*refresh_row=*/7,
                                     /*second_row=*/9, start);
    EXPECT_EQ(second, start + f.tc.hiraSpan());
    // Bank behaves as if second_row was activated at `second`.
    EXPECT_EQ(f.model.openRow(0), 9u);
    EXPECT_EQ(f.model.earliestRd(0), second + f.tc.rcd);
    EXPECT_EQ(f.model.earliestPre(0), second + f.tc.ras);
}

TEST(TimingState, HiraTwoRowLatencyBeatsNominal)
{
    // The §4.2 headline, stated in bus cycles: HiRA refreshes two rows in
    // span + tRAS; nominal commands need tRAS + tRP + tRAS.
    Fixture f;
    Cycle hira = f.tc.hiraSpan() + f.tc.ras;
    Cycle nominal = 2 * f.tc.ras + f.tc.rp;
    EXPECT_LT(hira, nominal);
    double reduction = 1.0 - double(hira) / double(nominal);
    EXPECT_NEAR(reduction, 0.514, 0.03);
}

TEST(TimingState, HiraCountsTwoActsAgainstFaw)
{
    Fixture f;
    // HiRA (2 ACTs) + 2 single ACTs fill the tFAW window of 4.
    Cycle s = f.model.issueHira(0, 1, 2, 0);
    Cycle t = std::max(f.model.earliestAct(4), s + 1);
    f.model.issueAct(4, 1, t);
    t = f.model.earliestAct(8);
    f.model.issueAct(8, 1, t);
    // A fifth activation (bank 12) must respect tFAW from HiRA's first.
    EXPECT_GE(f.model.earliestAct(12), f.tc.faw);
}

TEST(TimingState, HiraNeedsTwoFawSlots)
{
    Fixture f;
    // Fill three of the four tFAW slots right away.
    Cycle t = 0;
    for (BankId b : {BankId(0), BankId(4), BankId(8)}) {
        t = std::max(t, f.model.earliestAct(b));
        f.model.issueAct(b, 1, t);
    }
    // A plain ACT could go as the 4th activation, but a HiRA op needs
    // room for two, so its earliest start is later than a plain ACT's.
    Cycle plain = f.model.earliestAct(12);
    Cycle hira = f.model.earliestHira(12);
    EXPECT_GE(hira, plain);
}

TEST(TimingState, EarliestRdAccountsForDataBusRankSwitch)
{
    Geometry g = Geometry::forCapacityGb(8.0);
    g.ranksPerChannel = 2;
    ChannelTimingModel model(g, ddr4_2400(8.0));
    TimingCycles tc(ddr4_2400(8.0));
    model.issueAct(0, 1, 0);
    // Other rank: no tRRD coupling needed.
    model.issueAct(model.bankIndex(1, 0), 1, tc.rrdS);
    Cycle rd0 = model.earliestRd(0);
    model.issueRd(0, rd0);
    Cycle rd1 = model.earliestRd(model.bankIndex(1, 0));
    // Rank switch: burst must start tRTRS after the previous burst ends.
    EXPECT_GE(rd1 + tc.cl, rd0 + tc.cl + tc.bl + tc.rtrs);
}

TEST(TimingState, HiraTwoSlotFawBoundBindsWhenSpanIsShort)
{
    ChannelTimingModel model(Geometry::forCapacityGb(8.0),
                             shortSpanTiming());
    const TimingCycles &tc = model.cycles();
    ASSERT_LT(tc.hiraSpan() + 3 * tc.rrdS, tc.faw);
    // Three ACTs, one per bank group, each as early as it may go.
    Cycle t = 0;
    for (BankId b : {BankId(0), BankId(4), BankId(8)}) {
        t = std::max(t, model.earliestAct(b));
        model.issueAct(b, 1, t);
    }
    // Bank 12 (the fourth group): a plain ACT waits for tRRD_S alone; a
    // HiRA op's second ACT needs the tFAW slot of the ACT at cycle 0.
    EXPECT_EQ(model.earliestAct(12), t + tc.rrdS);
    EXPECT_EQ(model.earliestHira(12), tc.faw - tc.hiraSpan());
    EXPECT_GT(model.earliestHira(12), model.earliestAct(12));
}

TEST(TimingState, ControllerIssuesPlainActWhereHiraDoesNotFit)
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = shortSpanTiming();
    cc.recordTrace = true;
    MemoryController ctrl(0, cc, std::make_unique<HideUnderBank12>());
    const TimingCycles &tc = ctrl.tc();
    // One read to each bank group; only bank 12's ACT is offered a
    // refresh to hide.
    for (BankId b : {BankId(0), BankId(4), BankId(8), BankId(12)}) {
        Request r;
        r.da.bank = b;
        r.da.row = 100 + b;
        r.addr = static_cast<Addr>(b) << 13;
        r.tag = b;
        ASSERT_TRUE(ctrl.enqueue(r));
    }
    for (Cycle now = 0; now < 200; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    std::vector<Command> acts;
    for (const Command &c : ctrl.trace()) {
        if (c.type == CommandType::ACT)
            acts.push_back(c);
    }
    ASSERT_EQ(acts.size(), 4u);
    ASSERT_EQ(acts[0].bank, 0u);
    ASSERT_EQ(acts[3].bank, 12u);
    // Bank 12's ACT lands where a plain ACT may go but a HiRA op may
    // not, so it issues plain even though a refresh was on offer.
    EXPECT_LT(acts[3].cycle, acts[0].cycle + tc.faw - tc.hiraSpan());
    EXPECT_EQ(acts[3].hiraRole, HiraRole::None);
    EXPECT_EQ(ctrl.stats().hiraOps, 0u);
    EXPECT_EQ(ctrl.stats().readsServed, 4u);
}
