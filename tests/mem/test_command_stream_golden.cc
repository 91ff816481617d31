/**
 * @file
 * Golden command-stream digests of a standalone controller under every
 * scheme.
 *
 * Each case drives one controller (tests/controller_drive.hh) with
 * seeded random demand traffic and hashes every field of every command
 * in its trace, in issue order, followed by the controller and scheme
 * counters. Unlike the SystemResult digests of
 * tests/sim/test_golden_streams.cc, these see command order: a
 * scheduler rewrite that issues the same commands in a different order
 * fails here. The constants were recorded before the FR-FCFS scheduler
 * was bank-indexed and must not move unless a model re-baseline moves
 * them deliberately.
 *
 * A second digest per case folds the controller's wake bound,
 * nextEvent(), after every tick of the same drive. It pins the value of
 * the bound itself, not just its safety: the event engine's counters
 * (controller ticks, wake recomputes, heap re-keys) follow from it, so a
 * cheaper wake scan must find exactly the same cycle. Those constants
 * were recorded before the wake scan visited only set bank bits.
 *
 * The HiRA-2 cases without PARA (periodic refresh only, and its x16
 * tFAW variant) were recorded before HiRA-MC's refresh finder skipped
 * banks that cannot take an ACT and before the RefPtr pick was indexed.
 * Only the x16 drive reaches a cycle where a plain refresh ACT may
 * issue but a HiRA pair may not.
 *
 * The four-rank DDR5 cases (128 banks, two bit words per bank mask)
 * were recorded before the scheduler's picks and wake bound became
 * bank-mask algebra.
 */

#include <gtest/gtest.h>

#include <map>

#include "controller_drive.hh"

using namespace hira;
using namespace hira::testing_drive;

namespace {

constexpr Cycle kDriveCycles = 200000;
constexpr std::uint64_t kTrafficSeed = 0x90d1;

std::uint64_t
commandStreamDigest(const MemoryController &ctrl)
{
    std::vector<Command> trace = ctrl.trace();
    std::uint64_t h = hashCombine(0, trace.size());
    for (const Command &c : trace) {
        for (std::uint64_t f :
             {static_cast<std::uint64_t>(c.type), c.cycle,
              static_cast<std::uint64_t>(c.channel),
              static_cast<std::uint64_t>(c.rank),
              static_cast<std::uint64_t>(c.bank),
              static_cast<std::uint64_t>(c.row),
              static_cast<std::uint64_t>(c.col),
              static_cast<std::uint64_t>(c.hiraRole)}) {
            h = hashCombine(h, f);
        }
    }
    ControllerStats::forEachField([&](const char *, auto m) {
        h = hashCombine(h, ctrl.stats().*m);
    });
    RefreshStats::forEachField([&](const char *, auto m) {
        h = hashCombine(h, ctrl.scheme().stats().*m);
    });
    return h;
}

const std::map<std::string, std::uint64_t> &
goldenDigests()
{
    static const std::map<std::string, std::uint64_t> digests = {
        {"NoRefresh_ddr4_2400_r1", 0x392b095d244db323ull},
        {"Baseline_ddr4_2400_r1", 0x5916cd969c0b81dull},
        {"Baseline_PARA_ddr4_2400_r1", 0x2e7e3aeb955ffa59ull},
        {"HiRA_2_PARA_HiRA__ddr4_2400_r1", 0xebfca6b778dbfcfdull},
        {"HiRA_2_ddr4_2400_r1", 0x486493c222ece3c7ull},
        {"RFM_ddr4_2400_r1", 0xad2a1f5c3f055be0ull},
        {"PRAC_ddr4_2400_r1", 0x872948e562d6e327ull},
        {"Graphene_TRR_ddr4_2400_r1", 0xa011ca6d06e08f42ull},
        {"NoRefresh_ddr5_4800_r2", 0x93de7a6890ddb982ull},
        {"Baseline_ddr5_4800_r2", 0x3d3199ec9b4353c2ull},
        {"Baseline_PARA_ddr5_4800_r2", 0xf03283536056c8eeull},
        {"HiRA_2_PARA_HiRA__ddr5_4800_r2", 0x757e102651e023adull},
        {"HiRA_2_ddr5_4800_r2", 0x177d2ea65afab5b7ull},
        {"RFM_ddr5_4800_r2", 0xb0df885975038234ull},
        {"PRAC_ddr5_4800_r2", 0xd673e82ba5fe1d29ull},
        {"Graphene_TRR_ddr5_4800_r2", 0x432f84091828f1fbull},
        {"HiRA_2_ddr4_2400_r1_x16", 0x9530b1805c7079b7ull},
        {"Baseline_ddr5_4800_r4", 0x7b53b9391e32bc61ull},
        {"HiRA_2_ddr5_4800_r4", 0x656c6ac6b7e3cedaull},
    };
    return digests;
}

const std::map<std::string, std::uint64_t> &
goldenWakeDigests()
{
    static const std::map<std::string, std::uint64_t> digests = {
        {"NoRefresh_ddr4_2400_r1", 0xd22c0b410d6e7e7full},
        {"Baseline_ddr4_2400_r1", 0xb086641d97f69613ull},
        {"Baseline_PARA_ddr4_2400_r1", 0x918880dfd7f4731cull},
        {"HiRA_2_PARA_HiRA__ddr4_2400_r1", 0x67fd295bd1c049bdull},
        {"HiRA_2_ddr4_2400_r1", 0x82e8e6531ad53fc4ull},
        {"RFM_ddr4_2400_r1", 0xe0cf11b3cfecd8b6ull},
        {"PRAC_ddr4_2400_r1", 0x4c32e12902851b5ull},
        {"Graphene_TRR_ddr4_2400_r1", 0xfab1aa85df781cdeull},
        {"NoRefresh_ddr5_4800_r2", 0x27b861752fa6e388ull},
        {"Baseline_ddr5_4800_r2", 0xafcfa7f2928a7f45ull},
        {"Baseline_PARA_ddr5_4800_r2", 0x396641c61da581e1ull},
        {"HiRA_2_PARA_HiRA__ddr5_4800_r2", 0x56ae709b086b4060ull},
        {"HiRA_2_ddr5_4800_r2", 0x48afc7b8ec63166bull},
        {"RFM_ddr5_4800_r2", 0xffdb03b2afb87abeull},
        {"PRAC_ddr5_4800_r2", 0xfc5563c8917d2974ull},
        {"Graphene_TRR_ddr5_4800_r2", 0x7e21bf73ffb45c78ull},
        {"HiRA_2_ddr4_2400_r1_x16", 0xcdc667a58c7aa7f3ull},
        {"Baseline_ddr5_4800_r4", 0x61c55991cbd3c2feull},
        {"HiRA_2_ddr5_4800_r4", 0xb922f622c91c18a5ull},
    };
    return digests;
}

class CommandStreamGolden : public ::testing::TestWithParam<DriveCase>
{
};

} // namespace

TEST_P(CommandStreamGolden, DigestMatchesRecordedStream)
{
    const DriveCase &dc = GetParam();
    std::unique_ptr<MemoryController> ctrl = makeDrivenController(dc, 11);
    TrafficDriver traffic(ctrl->geometry(), kTrafficSeed,
                          kDriveCycles - kDriveCycles / 4);
    for (Cycle now = 0; now < kDriveCycles; ++now)
        traffic.step(*ctrl, now);

    // The stream exercises what it claims to: row hits, conflicts,
    // write drain and, per scheme, the refresh path under test.
    const ControllerStats &st = ctrl->stats();
    const RefreshStats &rs = ctrl->scheme().stats();
    EXPECT_GT(st.readsServed, 1000u);
    EXPECT_GT(st.writesServed, 1000u);
    EXPECT_GT(st.pres, 1000u);
    if (dc.scheme.kind != SchemeKind::NoRefresh) {
        EXPECT_GT(st.refs + rs.refreshPaired, 0u);
    }
    if (dc.scheme.kind == SchemeKind::HiraMc) {
        EXPECT_GT(rs.accessPaired, 0u);
        EXPECT_GT(rs.refreshPaired, 0u);
        EXPECT_EQ(rs.preventiveGenerated > 0, dc.scheme.paraEnabled);
    } else if (dc.scheme.paraEnabled) {
        EXPECT_GT(ctrl->para().generated, 0u);
    } else if (dc.scheme.kind != SchemeKind::NoRefresh &&
               dc.scheme.kind != SchemeKind::Baseline) {
        EXPECT_GT(rs.preventiveGenerated, 0u);
    }

    std::uint64_t digest = commandStreamDigest(*ctrl);
    auto it = goldenDigests().find(dc.name);
    ASSERT_NE(it, goldenDigests().end())
        << "no golden digest for " << dc.name << "; recorded: {\""
        << dc.name << "\", 0x" << std::hex << digest << "ull},";
    EXPECT_EQ(digest, it->second)
        << dc.name << " digest 0x" << std::hex << digest;
}

TEST_P(CommandStreamGolden, WakeBoundDigestMatchesRecorded)
{
    const DriveCase &dc = GetParam();
    std::unique_ptr<MemoryController> ctrl = makeDrivenController(dc, 11);
    TrafficDriver traffic(ctrl->geometry(), kTrafficSeed,
                          kDriveCycles - kDriveCycles / 4);
    std::uint64_t digest = 0;
    for (Cycle now = 0; now < kDriveCycles; ++now) {
        traffic.step(*ctrl, now);
        digest = hashCombine(digest, ctrl->nextEvent());
    }
    auto it = goldenWakeDigests().find(dc.name);
    ASSERT_NE(it, goldenWakeDigests().end())
        << "no golden wake digest for " << dc.name << "; recorded: {\""
        << dc.name << "\", 0x" << std::hex << digest << "ull},";
    EXPECT_EQ(digest, it->second)
        << dc.name << " wake digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesBothGeometries, CommandStreamGolden,
    ::testing::ValuesIn(driveCases()),
    [](const ::testing::TestParamInfo<DriveCase> &param_info) {
        return param_info.param.name;
    });
