/**
 * @file
 * Property tests: any command stream scheduled at ChannelTimingModel's
 * own earliest-issue times must audit clean under TimingChecker, across
 * generations (DDR4/DDR5), capacities, rank counts and bank-group
 * layouts, with randomized interleavings of ACT/RD/WR/PRE/REF/HiRA.
 *
 * The same streams also pin the model's answers: after every step, each
 * bank's earliest ACT/PRE/RD/WR/HiRA/bank-command cycles are folded into
 * one digest per config. The constants were recorded when the queries
 * read a per-command batch rebuild of every bank's horizons; a rewrite
 * of the query path must reproduce them unedited.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>

#include "common/rng.hh"
#include "dram/timing_checker.hh"
#include "dram/timing_state.hh"

using namespace hira;

namespace {

struct Driver
{
    Geometry geom;
    TimingParams tp;
    ChannelTimingModel model;
    TimingChecker checker;
    std::vector<Command> trace;
    Cycle bus = 0;
    Rng rng;

    Driver(const Geometry &g, const TimingParams &t, std::uint64_t seed)
        : geom(g), tp(t), model(g, t), checker(g, t), rng(seed)
    {
    }

    Cycle
    slot(Cycle earliest)
    {
        return std::max(earliest, bus + 1);
    }

    void
    push(CommandType type, Cycle cycle, int rank, BankId bank, RowId row,
         HiraRole role = HiraRole::None)
    {
        Command c;
        c.type = type;
        c.cycle = cycle;
        c.rank = rank;
        c.bank = bank;
        c.row = row;
        c.hiraRole = role;
        trace.push_back(c);
        bus = std::max(bus, cycle);
    }

    /** One random legal step on a random bank. */
    void
    step()
    {
        int rank = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(geom.ranksPerChannel)));
        BankId bank = static_cast<BankId>(rng.below(
            static_cast<std::uint64_t>(geom.banksPerRank())));
        RowId row = static_cast<RowId>(rng.below(512));
        const TimingCycles &tc = model.cycles();
        const std::size_t idx = model.bankIndex(rank, bank);

        if (model.openRow(idx) != kNoRow) {
            switch (rng.below(3)) {
              case 0: {
                Cycle t = slot(model.earliestRd(idx));
                model.issueRd(idx, t);
                push(CommandType::RD, t, rank, bank,
                     model.openRow(idx));
                break;
              }
              case 1: {
                Cycle t = slot(model.earliestWr(idx));
                model.issueWr(idx, t);
                push(CommandType::WR, t, rank, bank,
                     model.openRow(idx));
                break;
              }
              default: {
                Cycle t = slot(model.earliestPre(idx));
                model.issuePre(idx, t);
                push(CommandType::PRE, t, rank, bank, 0);
                break;
              }
            }
            return;
        }

        switch (rng.below(3)) {
          case 0: {
            Cycle t = slot(model.earliestAct(idx));
            model.issueAct(idx, row, t);
            push(CommandType::ACT, t, rank, bank, row);
            break;
          }
          case 1: {
            // HiRA refresh pair: two rows, the second stays open.
            Cycle t = slot(model.earliestHira(idx));
            Cycle second = model.issueHira(idx, row, row + 1, t);
            push(CommandType::ACT, t, rank, bank, row,
                 HiraRole::FirstAct);
            push(CommandType::PRE, t + tc.c1, rank, bank, 0,
                 HiraRole::CutPre);
            push(CommandType::ACT, second, rank, bank, row + 1,
                 HiraRole::SecondAct);
            break;
          }
          default: {
            // All-bank REF once every bank in the rank is closed.
            bool all_closed = true;
            for (BankId b = 0;
                 b < static_cast<BankId>(geom.banksPerRank()); ++b)
                all_closed = all_closed &&
                             model.openRow(model.bankIndex(rank, b)) == kNoRow;
            if (all_closed) {
                Cycle t = slot(model.earliestRef(rank));
                model.issueRef(rank, t);
                push(CommandType::REF, t, rank, 0, 0);
            }
            break;
          }
        }
    }

    /** Fold every bank's six earliest-command horizons into @p h. */
    std::uint64_t
    horizonDigest(std::uint64_t h) const
    {
        const std::size_t banks =
            static_cast<std::size_t>(geom.banksPerChannel());
        for (std::size_t idx = 0; idx < banks; ++idx) {
            for (Cycle c : {model.earliestAct(idx), model.earliestPre(idx),
                            model.earliestRd(idx), model.earliestWr(idx),
                            model.earliestHira(idx),
                            model.earliestBankCommand(idx)}) {
                h = hashCombine(h, c);
            }
        }
        return h;
    }
};

/**
 * One property config: capacity, ranks and standard, plus an optional
 * bank-group layout (0 keeps Geometry::forCapacityGb's 4 x 4).
 */
struct PropertyConfig
{
    std::string name;
    double capacityGb;
    int ranks;
    bool ddr5;
    int bankGroups = 0;
    int banksPerGroup = 0;

    Geometry
    geometry() const
    {
        Geometry g = Geometry::forCapacityGb(capacityGb);
        g.ranksPerChannel = ranks;
        if (bankGroups > 0) {
            g.bankGroups = bankGroups;
            g.banksPerGroup = banksPerGroup;
        }
        return g;
    }

    TimingParams
    timing() const
    {
        return ddr5 ? ddr5_4800(capacityGb) : ddr4_2400(capacityGb);
    }

    std::uint64_t
    seed() const
    {
        return hashCombine(static_cast<std::uint64_t>(ranks),
                           static_cast<std::uint64_t>(capacityGb));
    }
};

void
PrintTo(const PropertyConfig &pc, std::ostream *os)
{
    *os << pc.name;
}

const std::map<std::string, std::uint64_t> &
goldenHorizonDigests()
{
    static const std::map<std::string, std::uint64_t> digests = {
        {"ddr4_8gb_r1", 0xd109bd384106cf35ull},
        {"ddr4_8gb_r2", 0xaf7b95aa8df9153full},
        {"ddr4_8gb_r4", 0x3488af1ce7864244ull},
        {"ddr4_2gb_r1", 0x28a052e284855d0eull},
        {"ddr4_32gb_r2", 0x2b86f9c9f985e15cull},
        {"ddr4_128gb_r1", 0x91ef1c093d54671ull},
        {"ddr5_16gb_r1", 0xa64aae5563ff2e7bull},
        {"ddr5_16gb_r4", 0xb397c08214cad2cdull},
        {"ddr4_8gb_r3_bg8x2", 0xb62b118d33011e15ull},
    };
    return digests;
}

constexpr int kSteps = 600;

} // namespace

class TimingPropertyTest : public ::testing::TestWithParam<PropertyConfig>
{
};

TEST_P(TimingPropertyTest, ModelScheduledStreamAuditsClean)
{
    const PropertyConfig &pc = GetParam();
    Driver d(pc.geometry(), pc.timing(), pc.seed());
    for (int i = 0; i < kSteps; ++i)
        d.step();
    // HiRA records future commands: sort before auditing.
    std::stable_sort(d.trace.begin(), d.trace.end(),
                     [](const Command &a, const Command &b) {
                         return a.cycle < b.cycle;
                     });
    auto violations = d.checker.check(d.trace);
    ASSERT_GT(d.trace.size(), 500u);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << (violations.empty() ? "" : violations[0].message);
}

TEST_P(TimingPropertyTest, HorizonDigestMatchesRecorded)
{
    const PropertyConfig &pc = GetParam();
    Driver d(pc.geometry(), pc.timing(), pc.seed());
    std::uint64_t h = d.horizonDigest(0);
    for (int i = 0; i < kSteps; ++i) {
        d.step();
        h = d.horizonDigest(h);
    }
    auto it = goldenHorizonDigests().find(pc.name);
    ASSERT_NE(it, goldenHorizonDigests().end())
        << "no golden digest for " << pc.name << "; recorded: {\""
        << pc.name << "\", 0x" << std::hex << h << "ull},";
    EXPECT_EQ(h, it->second) << pc.name << " digest 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TimingPropertyTest,
    ::testing::Values(PropertyConfig{"ddr4_8gb_r1", 8.0, 1, false},
                      PropertyConfig{"ddr4_8gb_r2", 8.0, 2, false},
                      PropertyConfig{"ddr4_8gb_r4", 8.0, 4, false},
                      PropertyConfig{"ddr4_2gb_r1", 2.0, 1, false},
                      PropertyConfig{"ddr4_32gb_r2", 32.0, 2, false},
                      PropertyConfig{"ddr4_128gb_r1", 128.0, 1, false},
                      PropertyConfig{"ddr5_16gb_r1", 16.0, 1, true},
                      PropertyConfig{"ddr5_16gb_r4", 16.0, 4, true},
                      PropertyConfig{"ddr4_8gb_r3_bg8x2", 8.0, 3, false,
                                     8, 2}),
    [](const ::testing::TestParamInfo<PropertyConfig> &param_info) {
        return param_info.param.name;
    });
