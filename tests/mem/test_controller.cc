/**
 * @file
 * Tests for the memory controller: request lifecycle, FR-FCFS behavior,
 * write drain, forwarding, baseline refresh, immediate PARA, and the
 * command-trace audit against the independent TimingChecker.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
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

Request
readReq(const Geometry &geom, int rank, BankId bank, RowId row,
        std::uint32_t col, std::uint64_t tag)
{
    (void)geom;
    Request r;
    r.type = MemType::Read;
    r.da.channel = 0;
    r.da.rank = rank;
    r.da.bank = bank;
    r.da.row = row;
    r.da.col = col;
    r.addr = (static_cast<Addr>(row) << 24) |
             (static_cast<Addr>(bank) << 16) | (col << 6);
    r.tag = tag;
    r.coreId = 0;
    return r;
}

Request
writeReq(const Geometry &geom, int rank, BankId bank, RowId row,
         std::uint32_t col, std::uint64_t tag)
{
    Request r = readReq(geom, rank, bank, row, col, tag);
    r.type = MemType::Write;
    return r;
}

/** Run the controller until the tag completes or the limit passes. */
Cycle
runUntilDone(MemoryController &ctrl, std::uint64_t tag, Cycle start,
             Cycle limit)
{
    for (Cycle now = start; now < limit; ++now) {
        ctrl.tick(now);
        for (const Completion &c : ctrl.completions()) {
            if (c.tag == tag)
                return c.at;
        }
    }
    return kNeverCycle;
}

} // namespace

TEST(Controller, SingleReadCompletesWithExpectedLatency)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    Request r = readReq(cc.geom, 0, 0, 100, 0, 7);
    r.arrival = 1;
    ASSERT_TRUE(ctrl.enqueue(r));
    Cycle done = runUntilDone(ctrl, 7, 1, 500);
    ASSERT_NE(done, kNeverCycle);
    TimingCycles tc(cc.tp);
    // ACT at ~1, RD at ~1+tRCD, data at +tCL+tBL.
    EXPECT_NEAR(static_cast<double>(done),
                static_cast<double>(1 + tc.rcd + tc.cl + tc.bl), 4.0);
    EXPECT_EQ(ctrl.stats().readsServed, 1u);
}

TEST(Controller, RowHitFasterThanRowConflict)
{
    auto cc = makeConfig();
    MemoryController hit_ctrl(0, cc, std::make_unique<NoRefresh>());
    MemoryController conf_ctrl(0, cc, std::make_unique<NoRefresh>());

    // Row hit: same row twice.
    ASSERT_TRUE(hit_ctrl.enqueue(readReq(cc.geom, 0, 0, 5, 0, 1)));
    ASSERT_TRUE(hit_ctrl.enqueue(readReq(cc.geom, 0, 0, 5, 1, 2)));
    Cycle hit_done = runUntilDone(hit_ctrl, 2, 1, 1000);

    // Conflict: different rows in one bank.
    ASSERT_TRUE(conf_ctrl.enqueue(readReq(cc.geom, 0, 0, 5, 0, 1)));
    ASSERT_TRUE(conf_ctrl.enqueue(readReq(cc.geom, 0, 0, 9, 1, 2)));
    Cycle conf_done = runUntilDone(conf_ctrl, 2, 1, 1000);

    ASSERT_NE(hit_done, kNeverCycle);
    ASSERT_NE(conf_done, kNeverCycle);
    EXPECT_LT(hit_done, conf_done);
}

TEST(Controller, BankParallelismBeatsSerialization)
{
    auto cc = makeConfig();
    MemoryController par(0, cc, std::make_unique<NoRefresh>());
    ASSERT_TRUE(par.enqueue(readReq(cc.geom, 0, 0, 5, 0, 1)));
    ASSERT_TRUE(par.enqueue(readReq(cc.geom, 0, 4, 5, 0, 2)));
    Cycle done2 = runUntilDone(par, 2, 1, 1000);
    MemoryController ser(0, cc, std::make_unique<NoRefresh>());
    ASSERT_TRUE(ser.enqueue(readReq(cc.geom, 0, 0, 5, 0, 1)));
    ASSERT_TRUE(ser.enqueue(readReq(cc.geom, 0, 0, 9, 0, 2)));
    Cycle done2s = runUntilDone(ser, 2, 1, 1000);
    EXPECT_LT(done2, done2s);
}

TEST(Controller, ReadForwardsFromWriteQueue)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    Request w = writeReq(cc.geom, 0, 0, 5, 0, 1);
    ASSERT_TRUE(ctrl.enqueue(w));
    Request r = readReq(cc.geom, 0, 0, 5, 0, 2);
    r.addr = w.addr;
    r.arrival = 3;
    ASSERT_TRUE(ctrl.enqueue(r));
    ASSERT_FALSE(ctrl.completions().empty());
    EXPECT_EQ(ctrl.completions()[0].tag, 2u);
    EXPECT_EQ(ctrl.stats().forwards, 1u);
}

TEST(Controller, ForwardCountsAsServedRead)
{
    // A write-queue forward IS a served read: it must feed readsServed
    // and readLatencySum (at the fixed 4-cycle forward latency) exactly
    // like a DRAM-serviced read, with `forwards` as the sub-count.
    // Keeping the forward out of those stats would skew
    // avgReadLatencyCycles between workloads with different
    // read-after-write locality.
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    Request w = writeReq(cc.geom, 0, 0, 5, 0, 1);
    ASSERT_TRUE(ctrl.enqueue(w));
    Request r = readReq(cc.geom, 0, 0, 5, 0, 2);
    r.addr = w.addr;
    r.arrival = 3;
    ASSERT_TRUE(ctrl.enqueue(r));

    ASSERT_EQ(ctrl.completions().size(), 1u);
    EXPECT_EQ(ctrl.completions()[0].tag, 2u);
    EXPECT_EQ(ctrl.completions()[0].at, 7u); // arrival + 4
    EXPECT_EQ(ctrl.stats().forwards, 1u);
    EXPECT_EQ(ctrl.stats().readsServed, 1u);
    EXPECT_EQ(ctrl.stats().readLatencySum, 4u);
    // The write stays queued: nothing was issued to DRAM.
    EXPECT_EQ(ctrl.stats().writesServed, 0u);
    EXPECT_EQ(ctrl.queuedWrites(), 1u);
}

TEST(Controller, PreventiveVictimSurvivesDeclinedRefreshAct)
{
    // Regression: preventiveTick must pop a PARA victim only after its
    // refresh ACT actually issued. The issue path used to pop first and
    // assert tryRefreshAct succeeded, relying on pre-checks that
    // duplicated tryRefreshAct's own guards; any drift (e.g. a rank
    // hold placed between probe and issue) would silently drop the
    // victim — a missed preventive refresh. Force the decline path with
    // a rank hold and pin that the victim survives.
    auto cc = makeConfig();
    cc.para.enabled = true;
    cc.para.pth = 1.0; // every ACT samples a victim deterministically
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    ASSERT_TRUE(ctrl.enqueue(readReq(cc.geom, 0, 0, 5, 0, 1)));

    Cycle now = 0;
    while (ctrl.pendingPreventive(0, 0) == 0 && now < 1000)
        ctrl.tick(++now);
    ASSERT_EQ(ctrl.pendingPreventive(0, 0), 1u);

    // Hold the rank: every preventive ACT attempt must decline without
    // consuming the queued victim.
    ctrl.setRankHold(0, true);
    std::uint64_t actsBefore = ctrl.stats().acts;
    for (int i = 0; i < 500; ++i)
        ctrl.tick(++now);
    EXPECT_EQ(ctrl.pendingPreventive(0, 0), 1u);
    EXPECT_EQ(ctrl.stats().acts, actsBefore);

    // Released, the retained victim refreshes (pth = 1 immediately
    // samples a successor, so the queue never empties — the issued ACT
    // is the evidence).
    ctrl.setRankHold(0, false);
    for (int i = 0; i < 500 && ctrl.stats().acts == actsBefore; ++i)
        ctrl.tick(++now);
    EXPECT_GT(ctrl.stats().acts, actsBefore);
}

TEST(Controller, ReadQueueBackpressure)
{
    auto cc = makeConfig();
    cc.readQueueCap = 4;
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ctrl.enqueue(
            readReq(cc.geom, 0, 0, 5, static_cast<std::uint32_t>(i),
                    static_cast<std::uint64_t>(i))));
    }
    EXPECT_FALSE(ctrl.enqueue(readReq(cc.geom, 0, 0, 5, 9, 99)));
    EXPECT_EQ(ctrl.stats().rejectedRequests, 1u);
}

TEST(Controller, WritesDrainEventually)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(ctrl.enqueue(writeReq(
            cc.geom, 0, static_cast<BankId>(i % 4), 5,
            static_cast<std::uint32_t>(i), static_cast<std::uint64_t>(i))));
    }
    for (Cycle now = 1; now < 5000; ++now)
        ctrl.tick(now);
    EXPECT_EQ(ctrl.stats().writesServed, 10u);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
}

TEST(Controller, BaselineRefreshIssuesRefPerTrefi)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<BaselineRefresh>());
    TimingCycles tc(cc.tp);
    Cycle horizon = tc.refi * 4 + 100;
    for (Cycle now = 1; now < horizon; ++now)
        ctrl.tick(now);
    EXPECT_EQ(ctrl.stats().refs, 4u);
}

TEST(Controller, BaselineRefreshKeepsRateUnderReads)
{
    // Queued demand reads never postpone a due REF: the k-th REF is
    // issued within a few hundred cycles of k * tREFI, however the
    // reads fall.
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<BaselineRefresh>());
    TimingCycles tc(cc.tp);
    Rng rng(21);
    std::uint64_t tag = 1;
    const Cycle grace = 300;
    for (Cycle now = 1; now < 6 * tc.refi + grace; ++now) {
        if (rng.chance(0.05) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(
                cc.geom, 0, static_cast<BankId>(rng.below(16)),
                static_cast<RowId>(rng.below(4096)), 0, tag++));
        }
        ctrl.tick(now);
        ctrl.completions().clear();
        if (now % tc.refi == grace) {
            EXPECT_EQ(ctrl.stats().refs, now / tc.refi) << "at " << now;
        }
    }
    EXPECT_EQ(ctrl.stats().refs, 6u);
}

TEST(Controller, RefreshDelaysColdReadDuringRfc)
{
    auto cc = makeConfig(32.0); // long tRFC
    MemoryController ctrl(0, cc, std::make_unique<BaselineRefresh>());
    TimingCycles tc(cc.tp);
    // Let the first REF fire, then immediately request a read.
    Cycle t = 1;
    for (; t < tc.refi + 2; ++t)
        ctrl.tick(t);
    Request r = readReq(cc.geom, 0, 0, 100, 0, 77);
    r.arrival = t;
    ASSERT_TRUE(ctrl.enqueue(r));
    Cycle done = runUntilDone(ctrl, 77, t, t + 4 * tc.rfc);
    ASSERT_NE(done, kNeverCycle);
    // The read cannot complete before the tRFC window ends.
    EXPECT_GT(done, tc.refi + tc.rfc);
}

TEST(Controller, ImmediateParaInjectsPreventiveRefreshes)
{
    auto cc = makeConfig();
    cc.para.enabled = true;
    cc.para.pth = 0.5;
    MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
    Rng rng(5);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 30000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (now % 64 == 0 && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(cc.geom, 0,
                                 static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(1024)), 0,
                                 tag++));
        }
    }
    EXPECT_GT(ctrl.para().generated, 50u);
    // Preventive refreshes are extra activations beyond demand ACTs.
    EXPECT_GT(ctrl.stats().acts, ctrl.stats().readsServed);
}

TEST(Controller, HigherPthMeansMoreActivations)
{
    auto run = [](double pth) {
        auto cc = makeConfig();
        cc.para.enabled = pth > 0.0;
        cc.para.pth = pth;
        MemoryController ctrl(0, cc, std::make_unique<NoRefresh>());
        Rng rng(5);
        std::uint64_t tag = 1;
        for (Cycle now = 1; now < 30000; ++now) {
            ctrl.tick(now);
            ctrl.completions().clear();
            if (now % 64 == 0 && !ctrl.readQueueFull()) {
                ctrl.enqueue(readReq(
                    ControllerConfig().geom, 0,
                    static_cast<BankId>(rng.below(16)),
                    static_cast<RowId>(rng.below(1024)), 0, tag++));
            }
        }
        return ctrl.stats().acts;
    };
    std::uint64_t none = run(0.0);
    std::uint64_t half = run(0.5);
    std::uint64_t high = run(0.86);
    EXPECT_GT(half, none);
    EXPECT_GT(high, half);
}

TEST(Controller, RandomWorkloadTraceAuditsClean)
{
    // The independent TimingChecker must find zero violations in a
    // realistic random workload with baseline refresh and PARA.
    auto cc = makeConfig();
    cc.para.enabled = true;
    cc.para.pth = 0.3;
    MemoryController ctrl(0, cc, std::make_unique<BaselineRefresh>());
    Rng rng(9);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 60000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.08) && !ctrl.readQueueFull()) {
            bool write = rng.chance(0.3);
            Request r =
                write ? writeReq(cc.geom, 0,
                                 static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(64)), 0,
                                 tag++)
                      : readReq(cc.geom, 0,
                                static_cast<BankId>(rng.below(16)),
                                static_cast<RowId>(rng.below(64)), 0,
                                tag++);
            ctrl.enqueue(r);
        }
    }
    TimingChecker checker(cc.geom, cc.tp);
    auto violations = checker.check(ctrl.trace());
    ASSERT_GT(ctrl.trace().size(), 1000u);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << (violations.empty() ? "" : violations[0].message);
}

TEST(Controller, MultiRankTraceAuditsClean)
{
    auto cc = makeConfig();
    cc.geom.ranksPerChannel = 4;
    MemoryController ctrl(0, cc, std::make_unique<BaselineRefresh>());
    Rng rng(11);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < 60000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.1) && !ctrl.readQueueFull()) {
            Request r = readReq(cc.geom, static_cast<int>(rng.below(4)),
                                static_cast<BankId>(rng.below(16)),
                                static_cast<RowId>(rng.below(64)), 0,
                                tag++);
            ctrl.enqueue(r);
        }
    }
    TimingChecker checker(cc.geom, cc.tp);
    auto violations = checker.check(ctrl.trace());
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0].message);
}
