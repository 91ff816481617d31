/**
 * @file
 * Tests for the HiRA-MC refresh scheme driving a real controller:
 * periodic generation rate, deadline guarantees, pairing behavior, the
 * PreventiveRC path, and the protocol audit of HiRA command traces.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/hira_mc.hh"
#include "dram/timing_checker.hh"
#include "mem/controller.hh"

using namespace hira;

namespace {

ControllerConfig
makeConfig(double capacity_gb = 8.0)
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(capacity_gb);
    cc.tp = ddr4_2400(capacity_gb);
    cc.recordTrace = true;
    return cc;
}

HiraMcConfig
hiraCfg(int slack_n)
{
    HiraMcConfig h;
    h.slackN = slack_n;
    return h;
}

Request
readReq(int rank, BankId bank, RowId row, std::uint64_t tag)
{
    Request r;
    r.type = MemType::Read;
    r.da.channel = 0;
    r.da.rank = rank;
    r.da.bank = bank;
    r.da.row = row;
    r.addr = (static_cast<Addr>(row) << 24) |
             (static_cast<Addr>(bank) << 16) | (tag << 6);
    r.tag = tag;
    r.coreId = 0;
    return r;
}

} // namespace

TEST(HiraMc, IdlePeriodicRefreshRateMatchesSchedule)
{
    // With no demand traffic, HiRA-MC must still refresh every bank at
    // the per-bank generation rate (tREFW / refreshGroupsPerBank).
    auto cc = makeConfig();
    cc.recordTrace = false;
    auto scheme = std::make_unique<HiraMc>(hiraCfg(2));
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    TimingCycles tc(cc.tp);
    Cycle window = tc.refi * 8192;
    double interval = static_cast<double>(window) /
                      static_cast<double>(cc.geom.refreshGroupsPerBank);
    Cycle horizon = static_cast<Cycle>(interval * 40.0);
    for (Cycle now = 1; now < horizon; ++now)
        ctrl.tick(now);
    double expected = 40.0 * cc.geom.banksPerRank();
    double got = static_cast<double>(mc->stats().rowRefreshes);
    EXPECT_NEAR(got, expected, expected * 0.1);
    // No demand traffic: every refresh executed, none left to rot.
    EXPECT_LT(mc->table(0).size(), 20u);
}

TEST(HiraMc, DeadlinesLargelyMetWhenIdle)
{
    auto cc = makeConfig();
    cc.recordTrace = false;
    auto scheme = std::make_unique<HiraMc>(hiraCfg(4));
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    for (Cycle now = 1; now < 200000; ++now)
        ctrl.tick(now);
    ASSERT_GT(mc->stats().rowRefreshes, 100u);
    double miss_rate =
        static_cast<double>(mc->stats().deadlineMisses) /
        static_cast<double>(mc->stats().rowRefreshes);
    EXPECT_LT(miss_rate, 0.02);
}

TEST(HiraMc, AccessPairingHappensUnderDemand)
{
    auto cc = makeConfig();
    cc.recordTrace = false;
    auto scheme = std::make_unique<HiraMc>(hiraCfg(4));
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    Rng rng(3);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 300000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.15) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
    }
    EXPECT_GT(mc->stats().accessPaired, 20u);
    EXPECT_GT(ctrl.stats().hiraOps, 20u);
}

TEST(HiraMc, AblationDisablingAccessPairing)
{
    auto cc = makeConfig();
    cc.recordTrace = false;
    HiraMcConfig h = hiraCfg(4);
    h.enableAccessPairing = false;
    auto scheme = std::make_unique<HiraMc>(h);
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    Rng rng(3);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 100000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.15) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
    }
    EXPECT_EQ(mc->stats().accessPaired, 0u);
    EXPECT_GT(mc->stats().rowRefreshes, 100u);
}

TEST(HiraMc, PreventiveRcQueuesAndExecutes)
{
    auto cc = makeConfig();
    cc.recordTrace = false;
    HiraMcConfig h = hiraCfg(4);
    h.periodicViaHira = false; // Fig. 12 setup: REF periodic + HiRA PARA
    h.preventive.enabled = true;
    // pth = 0.3 with recursive sampling: preventive work stays well
    // inside the tFAW activation budget, so the queues must drain.
    h.preventive.pth = 0.3;
    auto scheme = std::make_unique<HiraMc>(h);
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    Rng rng(4);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 150000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.08) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
    }
    EXPECT_GT(mc->stats().preventiveGenerated, 100u);
    // All generated preventive refreshes eventually execute.
    EXPECT_NEAR(static_cast<double>(mc->stats().rowRefreshes),
                static_cast<double>(mc->stats().preventiveGenerated),
                static_cast<double>(mc->stats().preventiveGenerated) *
                        0.2 + 80.0);
    // The inherited REF engine still runs the periodic refresh, and
    // its REFs are counted in the scheme's own stats.
    EXPECT_GT(mc->stats().refCommands, 10u);
    EXPECT_EQ(mc->stats().refCommands, ctrl.stats().refs);
}

TEST(HiraMc, PrFifoNeverExceedsDepthUnderLowNrhStress)
{
    // Low-NRH stress (pth near the Fig. 12 NRH=64 point): victims are
    // generated far faster than the queues drain, so the 4-entry
    // per-bank PR-FIFO must reject pushes. The FIFO may never exceed
    // its hardware depth, each rejected victim must be counted as a
    // drop, and no RefreshTable request may be scheduled for it.
    auto cc = makeConfig();
    cc.recordTrace = false;
    HiraMcConfig h = hiraCfg(4);
    h.periodicViaHira = false;
    h.preventive.enabled = true;
    h.preventive.pth = 0.86; // solvePth(64) territory
    auto scheme = std::make_unique<HiraMc>(h);
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    // A bank's PR-FIFO is its preventive Refresh Table entries.
    auto fifoSizes = [&] {
        std::vector<std::size_t> n(
            static_cast<std::size_t>(cc.geom.banksPerChannel()), 0);
        for (int r = 0; r < cc.geom.ranksPerChannel; ++r) {
            for (const RefreshEntry &e : mc->table(r).all()) {
                if (e.type == RefreshType::Preventive)
                    ++n[e.bank];
            }
        }
        return n;
    };
    Rng rng(11);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 120000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.3) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
        for (std::size_t n : fifoSizes())
            ASSERT_LE(n, kPrFifoDepth) << "cycle " << now;
    }
    // The stress actually hit capacity.
    EXPECT_GT(mc->stats().preventiveDropped, 0u);
    EXPECT_GT(mc->stats().preventiveGenerated,
              mc->stats().preventiveDropped);
    // Dropped victims were never enqueued anywhere: everything that
    // did execute or is still queued traces back to accepted pushes.
    std::uint64_t queued = 0;
    for (std::size_t n : fifoSizes())
        queued += n;
    EXPECT_EQ(mc->stats().preventiveGenerated -
                  mc->stats().preventiveDropped,
              mc->stats().rowRefreshes + queued);
}

TEST(HiraMc, TraceAuditsCleanWithDemandAndPreventive)
{
    // The full HiRA-MC command stream — demand, periodic HiRA ops,
    // preventive refreshes, pairing — must satisfy the DDR4 protocol
    // auditor (with HiRA-tag exemptions only).
    auto cc = makeConfig();
    HiraMcConfig h = hiraCfg(4);
    h.preventive.enabled = true;
    h.preventive.pth = 0.3;
    MemoryController ctrl(0, cc, std::make_unique<HiraMc>(h));
    Rng rng(6);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 80000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.12) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
    }
    ASSERT_GT(ctrl.stats().hiraOps, 0u);
    TimingChecker checker(cc.geom, cc.tp);
    auto violations = checker.check(ctrl.trace());
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << (violations.empty() ? "" : violations[0].message);
}

TEST(HiraMc, MultiRankTraceAuditsClean)
{
    auto cc = makeConfig();
    cc.geom.ranksPerChannel = 2;
    MemoryController ctrl(0, cc, std::make_unique<HiraMc>(hiraCfg(2)));
    Rng rng(7);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 60000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.1) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(static_cast<int>(rng.below(2)),
                                 static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
    }
    TimingChecker checker(cc.geom, cc.tp);
    auto violations = checker.check(ctrl.trace());
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0].message);
}

TEST(HiraMc, SlackZeroExecutesImmediately)
{
    auto cc = makeConfig();
    cc.recordTrace = false;
    auto scheme = std::make_unique<HiraMc>(hiraCfg(0));
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    for (Cycle now = 1; now < 100000; ++now) {
        ctrl.tick(now);
        // With zero slack the table never accumulates entries.
        ASSERT_LT(mc->table(0).size(), 8u);
    }
    EXPECT_GT(mc->stats().rowRefreshes, 500u);
}
