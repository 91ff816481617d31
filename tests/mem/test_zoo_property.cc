/**
 * @file
 * Parameterized property tests for the mitigation zoo (RFM, PRAC,
 * Graphene-TRR) under random demand: conservation (every generated
 * victim is refreshed, still queued, or was dropped at a full queue),
 * that the inherited periodic REFs are counted in the scheme's own
 * stats exactly as the controller issued them, and that each scheme's
 * trigger path actually fires at the tested knobs.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/controller.hh"
#include "mem/graphene_trr.hh"
#include "mem/prac.hh"
#include "mem/rfm.hh"

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

ControllerConfig
zooControllerConfig()
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = ddr4_2400(8.0);
    cc.paraImmediate = false;
    return cc;
}

/**
 * Drive the controller with random reads; @p hotRows < rowsPerBank
 * narrows the row pool so per-row trackers (PRAC, Graphene) see
 * repeated activations.
 */
template <class Scheme>
void
driveRandomReads(MemoryController &ctrl, std::uint64_t seed,
                 Cycle horizon, double demand, RowId hotRows)
{
    Rng rng(seed);
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < horizon; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
        if (rng.chance(demand) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(0, static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(hotRows)),
                                 tag++));
        }
    }
}

} // namespace

class RfmProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RfmProperty, VictimConservationAndRefCount)
{
    RfmConfig rc;
    rc.raaimt = GetParam();
    auto scheme = std::make_unique<RfmRefresh>(rc);
    RfmRefresh *rfm = scheme.get();
    MemoryController ctrl(0, zooControllerConfig(), std::move(scheme));

    driveRandomReads<RfmRefresh>(ctrl, 0x5f3 + rc.raaimt, 120000, 0.08,
                                 65536);

    // Conservation: every victim the RAAIMT crossings generated is
    // either refreshed, still in its bank's VictimQueue, or was dropped
    // at a full queue and never stored.
    EXPECT_EQ(rfm->stats().preventiveGenerated,
              rfm->stats().rowRefreshes + rfm->pendingVictims() +
                  rfm->stats().preventiveDropped);
    // Targeted refreshes go through the refresh-open machinery as
    // standalone ACT+PRE operations.
    EXPECT_EQ(rfm->stats().rowRefreshes, rfm->stats().standalone);
    // Periodic REF keeps running and every REF the controller issued
    // is counted where it was issued.
    EXPECT_GT(rfm->stats().refCommands, 0u);
    EXPECT_EQ(rfm->stats().refCommands, ctrl.stats().refs);
    // The trigger path actually fired at this RAAIMT.
    EXPECT_GT(rfm->stats().preventiveGenerated, 0u);
}

INSTANTIATE_TEST_SUITE_P(RaaimtSweep, RfmProperty,
                         ::testing::Values(8, 16, 32, 64));

class PracProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PracProperty, VictimConservationAndRefCount)
{
    PracConfig pc;
    pc.threshold = GetParam();
    pc.slackRc = 4;
    auto scheme = std::make_unique<PracRefresh>(pc);
    PracRefresh *prac = scheme.get();
    MemoryController ctrl(0, zooControllerConfig(), std::move(scheme));

    // An 8-row hot pool so per-row counters cross the threshold often
    // even at the higher thresholds of the sweep.
    driveRandomReads<PracRefresh>(ctrl, 0x9c1 + pc.threshold, 150000,
                                  0.08, 8);

    EXPECT_EQ(prac->stats().preventiveGenerated,
              prac->stats().rowRefreshes + prac->pendingTargets() +
                  prac->stats().preventiveDropped);
    EXPECT_EQ(prac->stats().rowRefreshes, prac->stats().standalone);
    EXPECT_GT(prac->stats().refCommands, 0u);
    EXPECT_EQ(prac->stats().refCommands, ctrl.stats().refs);
    EXPECT_GT(prac->stats().preventiveGenerated, 0u);
    // The deadline-slack drain keeps the table bounded under this load.
    EXPECT_LT(prac->pendingTargets(), prac->capacity());
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, PracProperty,
                         ::testing::Values(8, 16, 32, 64));

class GrapheneProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(GrapheneProperty, VictimConservationAndRefCount)
{
    GrapheneConfig gc;
    gc.trackerSize = 8;
    gc.threshold = GetParam();
    auto scheme = std::make_unique<GrapheneTrr>(gc);
    GrapheneTrr *trr = scheme.get();
    MemoryController ctrl(0, zooControllerConfig(), std::move(scheme));

    // A tiny hot-row pool: the Misra-Gries trackers accumulate counts
    // well past the threshold between per-tREFI TRR selections.
    driveRandomReads<GrapheneTrr>(ctrl, 0x69a + gc.threshold, 150000,
                                  0.08, 8);

    EXPECT_EQ(trr->stats().preventiveGenerated,
              trr->stats().rowRefreshes + trr->pendingVictims() +
                  trr->stats().preventiveDropped);
    EXPECT_EQ(trr->stats().rowRefreshes, trr->stats().standalone);
    EXPECT_GT(trr->stats().refCommands, 0u);
    EXPECT_EQ(trr->stats().refCommands, ctrl.stats().refs);
    EXPECT_GT(trr->stats().preventiveGenerated, 0u);
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, GrapheneProperty,
                         ::testing::Values(4, 16, 64));
