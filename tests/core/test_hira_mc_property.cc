/**
 * @file
 * Parameterized property tests for HiRA-MC across slack configurations
 * and capacities: the refresh-rate contract (every bank receives its
 * scheduled refresh work), bounded deadline misses, and conservation
 * (generated preventives = executed + queued) under random demand.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "core/hira_mc.hh"
#include "mem/controller.hh"

using namespace hira;

namespace {

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
    return r;
}

} // namespace

class HiraMcProperty
    : public ::testing::TestWithParam<std::tuple<int, double, double>>
{
};

TEST_P(HiraMcProperty, RefreshRateAndDeadlineContract)
{
    auto [slack_n, capacity, demand] = GetParam();
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(capacity);
    cc.tp = ddr4_2400(capacity);
    HiraMcConfig h;
    h.slackN = slack_n;
    auto scheme = std::make_unique<HiraMc>(h);
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));

    TimingCycles tc(cc.tp);
    double interval = static_cast<double>(tc.refi) * 8192.0 /
                      static_cast<double>(cc.geom.refreshGroupsPerBank);
    Cycle horizon = static_cast<Cycle>(interval * 24.0);

    Rng rng(hashCombine(static_cast<std::uint64_t>(slack_n),
                        static_cast<std::uint64_t>(capacity)));
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < horizon; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(demand) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(
                                     cc.geom.rowsPerBank)),
                                 tag++));
        }
    }

    // Rate contract: ~24 refreshes per bank were scheduled; all but the
    // in-flight tail executed.
    double expected = 24.0 * 16.0;
    double got = static_cast<double>(mc->stats().rowRefreshes);
    EXPECT_NEAR(got, expected, expected * 0.15)
        << "slack " << slack_n << " capacity " << capacity;

    // Deadline contract: under this moderate load, misses stay rare.
    double miss_rate = got == 0.0
                           ? 0.0
                           : static_cast<double>(
                                 mc->stats().deadlineMisses) /
                                 got;
    EXPECT_LT(miss_rate, 0.05);

    // The table never leaks entries beyond its slack-bounded occupancy.
    EXPECT_LT(mc->table(0).size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    SlackCapacityDemand, HiraMcProperty,
    ::testing::Values(std::make_tuple(0, 8.0, 0.05),
                      std::make_tuple(2, 8.0, 0.05),
                      std::make_tuple(4, 8.0, 0.10),
                      std::make_tuple(8, 8.0, 0.10),
                      std::make_tuple(2, 32.0, 0.05),
                      std::make_tuple(4, 128.0, 0.05)));

class PreventiveProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(PreventiveProperty, GeneratedEqualsExecutedPlusQueued)
{
    double pth = GetParam();
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = ddr4_2400(8.0);
    HiraMcConfig h;
    h.slackN = 4;
    h.periodicViaHira = false;
    h.preventive.enabled = true;
    h.preventive.pth = pth;
    auto scheme = std::make_unique<HiraMc>(h);
    HiraMc *mc = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));

    Rng rng(99);
    std::uint64_t tag = 1;
    const std::size_t banks =
        static_cast<std::size_t>(cc.geom.banksPerChannel());
    std::vector<std::vector<RefreshEntry>> preventive(banks);
    for (Cycle now = 1; now < 120000; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(0.06) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(65536)),
                                 tag++));
        }
        // A bank's preventive Refresh Table entries are its PR-FIFO:
        // at most kPrFifoDepth of them, and in insertion (id) order
        // their deadlines strictly increase, so the earliest-deadline
        // pick is the FIFO front.
        for (std::vector<RefreshEntry> &q : preventive)
            q.clear();
        for (int r = 0; r < cc.geom.ranksPerChannel; ++r) {
            for (const RefreshEntry &e : mc->table(r).all()) {
                if (e.type == RefreshType::Preventive)
                    preventive[e.bank].push_back(e);
            }
        }
        for (std::size_t b = 0; b < banks; ++b) {
            std::vector<RefreshEntry> &q = preventive[b];
            ASSERT_LE(q.size(), kPrFifoDepth)
                << "cycle " << now << " bank " << b;
            std::sort(q.begin(), q.end(),
                      [](const RefreshEntry &x, const RefreshEntry &y) {
                          return x.id < y.id;
                      });
            for (std::size_t i = 1; i < q.size(); ++i) {
                ASSERT_LT(q[i - 1].deadline, q[i].deadline)
                    << "cycle " << now << " bank " << b;
            }
        }
    }

    // Conservation: every sampled victim is either refreshed, still
    // queued in the table, or was dropped by a full 4-entry PR-FIFO
    // and never queued anywhere.
    std::uint64_t queued = mc->table(0).size();
    EXPECT_EQ(mc->stats().preventiveGenerated,
              mc->stats().rowRefreshes + queued +
                  mc->stats().preventiveDropped);
    if (pth > 0.0) {
        EXPECT_GT(mc->stats().preventiveGenerated, 50u);
    }
}

INSTANTIATE_TEST_SUITE_P(PthSweep, PreventiveProperty,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4));
