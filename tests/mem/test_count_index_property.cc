/**
 * @file
 * Property: the controller's per-bank bit words never drift from its
 * per-bank request queues.
 *
 * The FR-FCFS scans and the wake scan trust the bits (a read / write
 * is queued to the bank, one of them hits its open row) to say which
 * banks to visit, and the scans compare only the queues of the banks
 * they visit. A missing bit would not fail anything; it would silently
 * hold a bank back and reorder commands. So every tick of randomized
 * runs is audited (MemoryController::countIndexAudit): each request
 * sits in its own bank's queue of its class in arrival order, the
 * totals match, and the bits match a recount of the queues against the
 * open rows. This runs under every scheme and both geometries of
 * tests/controller_drive.hh, and each case's runs must have reached the
 * transitions that move the bits: write drain, rank holds for REF,
 * refresh rows opened by refresh ACTs or HiRA pairs, and HiRA
 * operations.
 */

#include <gtest/gtest.h>

#include "controller_drive.hh"

using namespace hira;
using namespace hira::testing_drive;

namespace {

constexpr Cycle kAuditCycles = 200000;

class CountIndexProperty : public ::testing::TestWithParam<DriveCase>
{
};

} // namespace

TEST_P(CountIndexProperty, IndexMatchesQueuesAfterEveryTick)
{
    const DriveCase &dc = GetParam();
    const SchemeKind kind = dc.scheme.kind;
    bool saw_drain = false, saw_hold = false, saw_refresh_row = false;
    std::uint64_t hira_ops = 0;
    for (std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        std::unique_ptr<MemoryController> ctrl =
            makeDrivenController(dc, seed);
        const Geometry &g = ctrl->geometry();
        TrafficDriver traffic(g, hashCombine(seed, 0xa0d17),
                              kAuditCycles / 2);
        for (Cycle now = 0; now < kAuditCycles; ++now) {
            traffic.step(*ctrl, now);
            ASSERT_EQ(ctrl->countIndexAudit(), "") << "cycle " << now;
            saw_drain |= ctrl->queuedWrites() >=
                         static_cast<std::size_t>(ControllerConfig{}.drainHigh);
            for (int r = 0; r < g.ranksPerChannel; ++r)
                saw_hold |= ctrl->rankHeld(r);
            for (std::size_t b = 0;
                 b < static_cast<std::size_t>(g.banksPerChannel()); ++b) {
                saw_refresh_row |= ctrl->bankBlocked(b) &&
                                   ctrl->pendingPreventive(b) == 0;
            }
        }
        hira_ops += ctrl->stats().hiraOps;
    }
    EXPECT_TRUE(saw_drain);
    if (kind != SchemeKind::NoRefresh && kind != SchemeKind::HiraMc) {
        EXPECT_TRUE(saw_hold); // REF preparation
    }
    if (kind != SchemeKind::NoRefresh &&
        (kind != SchemeKind::Baseline || dc.scheme.paraEnabled)) {
        EXPECT_TRUE(saw_refresh_row);
    }
    if (kind == SchemeKind::HiraMc) {
        EXPECT_GT(hira_ops, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesBothGeometries, CountIndexProperty,
    ::testing::ValuesIn(driveCases()),
    [](const ::testing::TestParamInfo<DriveCase> &param_info) {
        return param_info.param.name;
    });
