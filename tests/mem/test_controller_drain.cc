/**
 * @file
 * Focused controller tests: write-drain hysteresis, rank holds, demand
 * HiRA issue path, and trace-recording control.
 */

#include <gtest/gtest.h>

#include "core/hira_mc.hh"
#include "dram/timing_checker.hh"
#include "mem/controller.hh"

using namespace hira;

namespace {

ControllerConfig
makeConfig()
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = ddr4_2400(8.0);
    return cc;
}

Request
req(MemType type, BankId bank, RowId row, std::uint64_t tag)
{
    Request r;
    r.type = type;
    r.da.channel = 0;
    r.da.bank = bank;
    r.da.row = row;
    r.addr = (static_cast<Addr>(row) << 20) |
             (static_cast<Addr>(bank) << 14) | (tag << 6);
    r.tag = tag;
    return r;
}

} // namespace

TEST(ControllerDrain, WritesWaitUntilHighWatermark)
{
    auto cc = makeConfig();
    cc.drainHigh = 8;
    cc.drainLow = 2;
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    std::uint64_t tag = 1;
    // Park 4 writes (below the watermark) and a steady read stream.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ctrl.enqueue(req(MemType::Write,
                                     static_cast<BankId>(i), 7, tag++)));
    }
    for (Cycle now = 1; now < 400; ++now) {
        if (ctrl.queuedReads() < 4) {
            ctrl.enqueue(req(MemType::Read,
                             static_cast<BankId>(8 + (tag % 4)),
                             static_cast<RowId>(tag % 64), tag));
            ++tag;
        }
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    // Reads flowed; the few writes were never urgent.
    EXPECT_GT(ctrl.stats().readsServed, 4u);
    EXPECT_EQ(ctrl.queuedWrites(), 4u);
}

TEST(ControllerDrain, HighWatermarkForcesDrainToLow)
{
    auto cc = makeConfig();
    cc.drainHigh = 8;
    cc.drainLow = 2;
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    std::uint64_t tag = 1;
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(ctrl.enqueue(req(MemType::Write,
                                     static_cast<BankId>(i % 16),
                                     static_cast<RowId>(i), tag++)));
    }
    // Keep one read queued so opportunistic drain is not the trigger.
    ctrl.enqueue(req(MemType::Read, 15, 3, tag++));
    for (Cycle now = 1; now < 3000 && ctrl.queuedWrites() > 2; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    EXPECT_LE(ctrl.queuedWrites(), 2u);
    EXPECT_GE(ctrl.stats().writesServed, 7u);
}

TEST(ControllerDrain, RankHoldBlocksDemandActs)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    ctrl.setRankHold(0, true);
    ASSERT_TRUE(ctrl.enqueue(req(MemType::Read, 0, 5, 1)));
    for (Cycle now = 1; now < 300; ++now) {
        ctrl.tick(now);
    }
    EXPECT_EQ(ctrl.stats().readsServed, 0u);
    EXPECT_EQ(ctrl.stats().acts, 0u);
    ctrl.setRankHold(0, false);
    for (Cycle now = 300; now < 600; ++now) {
        ctrl.tick(now);
    }
    EXPECT_EQ(ctrl.stats().readsServed, 1u);
}

TEST(ControllerDrain, TraceRecordingOffByDefault)
{
    auto cc = makeConfig();
    EXPECT_FALSE(cc.recordTrace);
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    ctrl.enqueue(req(MemType::Read, 0, 5, 1));
    for (Cycle now = 1; now < 200; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    EXPECT_GT(ctrl.stats().readsServed, 0u);
    EXPECT_TRUE(ctrl.trace().empty());
}

TEST(ControllerDrain, DemandHiraCountsAsHiraOp)
{
    // With HiRA-MC attached and a queued periodic refresh, the first
    // demand activation to that bank should ride a HiRA op.
    auto cc = makeConfig();
    HiraMcConfig h;
    h.slackN = 8;
    MemoryController ctrl(0, cc, std::make_unique<HiraMc>(h));
    // Let the scheme generate a few periodic requests first.
    Cycle now = 1;
    for (; now < 3000; ++now) {
        ctrl.tick(now);
    }
    std::uint64_t before = ctrl.stats().hiraOps;
    std::uint64_t tag = 1;
    for (; now < 12000; ++now) {
        if (ctrl.queuedReads() < 8) {
            ctrl.enqueue(req(MemType::Read,
                             static_cast<BankId>(tag % 16),
                             static_cast<RowId>(tag * 97 % 65536),
                             tag));
            ++tag;
        }
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    EXPECT_GT(ctrl.stats().hiraOps, before);
}

TEST(ControllerDrain, OpportunisticDrainWhenNoReads)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(ctrl.enqueue(req(MemType::Write,
                                     static_cast<BankId>(i), 9,
                                     static_cast<std::uint64_t>(i))));
    }
    for (Cycle now = 1; now < 2000 && ctrl.queuedWrites() > 0; ++now)
        ctrl.tick(now);
    // No reads at all: writes drain even far below the watermark.
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
}
