/**
 * @file
 * Tests for the independent command-trace auditor: legal traces pass,
 * each class of violation is detected, and HiRA-tagged sequences are
 * held to the HiRA rules instead of nominal tRAS / tRP.
 */

#include <gtest/gtest.h>

#include "dram/timing_checker.hh"
#include "dram/timing_state.hh"

using namespace hira;

namespace {

struct Fixture
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    TimingParams tp = ddr4_2400(8.0);
    TimingCycles tc{tp};
    TimingChecker checker{geom, tp};

    Command
    cmd(CommandType t, Cycle cyc, BankId bank = 0, RowId row = 0,
        HiraRole role = HiraRole::None, int rank = 0)
    {
        Command c;
        c.type = t;
        c.cycle = cyc;
        c.rank = rank;
        c.bank = bank;
        c.row = row;
        c.hiraRole = role;
        return c;
    }
};

} // namespace

TEST(TimingChecker, LegalOpenReadCloseTracePasses)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 5),
        f.cmd(CommandType::RD, f.tc.rcd, 0, 5),
        f.cmd(CommandType::PRE, f.tc.ras, 0),
        f.cmd(CommandType::ACT, f.tc.ras + f.tc.rp, 0, 6),
    };
    EXPECT_TRUE(f.checker.check(trace).empty());
}

TEST(TimingChecker, DetectsRcdViolation)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 5),
        f.cmd(CommandType::RD, f.tc.rcd - 1, 0, 5),
    };
    auto v = f.checker.check(trace);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("tRCD"), std::string::npos);
}

TEST(TimingChecker, DetectsRasViolation)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 5),
        f.cmd(CommandType::PRE, f.tc.ras - 1, 0),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("tRAS"), std::string::npos);
}

TEST(TimingChecker, DetectsRpViolation)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 5),
        f.cmd(CommandType::PRE, f.tc.ras, 0),
        f.cmd(CommandType::ACT, f.tc.ras + f.tc.rp - 1, 0, 6),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("tRP"), std::string::npos);
}

TEST(TimingChecker, DetectsActToOpenBank)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 5),
        f.cmd(CommandType::ACT, f.tc.rc, 0, 6),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("open row"), std::string::npos);
}

TEST(TimingChecker, DetectsRrdViolation)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 5),
        f.cmd(CommandType::ACT, 1, 4, 5), // other group: needs tRRD_S
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("tRRD"), std::string::npos);
}

TEST(TimingChecker, DetectsFawViolation)
{
    Fixture f;
    std::vector<Command> trace;
    // Five ACTs spaced by exactly tRRD_S (4 cycles): the 5th lands at
    // cycle 16 < tFAW (20) after the 1st.
    BankId banks[5] = {0, 4, 8, 12, 1};
    Cycle t = 0;
    for (int i = 0; i < 5; ++i) {
        trace.push_back(f.cmd(CommandType::ACT, t, banks[i], 1));
        t += f.tc.rrdS;
    }
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v.back().message.find("tFAW"), std::string::npos);
}

TEST(TimingChecker, HiraSequenceWithExactTimingsPasses)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 100, 0, 7, HiraRole::FirstAct),
        f.cmd(CommandType::PRE, 100 + f.tc.c1, 0, 0, HiraRole::CutPre),
        f.cmd(CommandType::ACT, 100 + f.tc.c1 + f.tc.c2, 0, 9,
              HiraRole::SecondAct),
        f.cmd(CommandType::RD, 100 + f.tc.c1 + f.tc.c2 + f.tc.rcd, 0, 9),
        f.cmd(CommandType::PRE, 100 + f.tc.c1 + f.tc.c2 + f.tc.ras, 0),
    };
    auto v = f.checker.check(trace);
    EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].message);
}

TEST(TimingChecker, UntaggedHiraTimingIsFlagged)
{
    Fixture f;
    // The same violated timings without HiRA tags must be caught.
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 100, 0, 7),
        f.cmd(CommandType::PRE, 100 + f.tc.c1, 0),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("tRAS"), std::string::npos);
}

TEST(TimingChecker, HiraWithWrongGapIsFlagged)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 100, 0, 7, HiraRole::FirstAct),
        f.cmd(CommandType::PRE, 100 + f.tc.c1 + 1, 0, 0, HiraRole::CutPre),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("not exactly t1"), std::string::npos);
}

TEST(TimingChecker, HiraSecondActWithoutCutPreIsFlagged)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 100, 0, 7),
        f.cmd(CommandType::PRE, 100 + f.tc.ras, 0),
        f.cmd(CommandType::ACT, 100 + f.tc.ras + f.tc.rp, 0, 9,
              HiraRole::SecondAct),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
}

TEST(TimingChecker, HiraActsStillCountTowardFaw)
{
    Fixture f;
    Cycle t = 0;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, t, 0, 7, HiraRole::FirstAct),
        f.cmd(CommandType::PRE, t + f.tc.c1, 0, 0, HiraRole::CutPre),
        f.cmd(CommandType::ACT, t + f.tc.c1 + f.tc.c2, 0, 9,
              HiraRole::SecondAct),
    };
    // Two more ACTs fill the window; a fifth one cycle before the tFAW
    // boundary (cycle 19 vs first ACT at 0, tFAW = 20) must be flagged.
    Cycle t3 = t + f.tc.c1 + f.tc.c2 + f.tc.rrdS;
    trace.push_back(f.cmd(CommandType::ACT, t3, 4, 1));
    trace.push_back(f.cmd(CommandType::ACT, t3 + f.tc.rrdS, 8, 1));
    trace.push_back(
        f.cmd(CommandType::ACT, t3 + 2 * f.tc.rrdS - 1, 12, 1));
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    bool found = false;
    for (const auto &viol : v)
        found = found || viol.message.find("tFAW") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(TimingChecker, RefWindowBlocksCommands)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::REF, 0),
        f.cmd(CommandType::ACT, f.tc.rfc - 1, 0, 1),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("tRFC"), std::string::npos);
}

TEST(TimingChecker, RefWithOpenBankIsFlagged)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 0, 0, 1),
        f.cmd(CommandType::REF, f.tc.ras),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("open bank"), std::string::npos);
}

TEST(TimingChecker, CommandBusConflictDetected)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 5, 0, 1),
        f.cmd(CommandType::ACT, 5, 4, 1),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("command-bus"), std::string::npos);
}

TEST(TimingChecker, UnsortedTraceDetected)
{
    Fixture f;
    std::vector<Command> trace = {
        f.cmd(CommandType::ACT, 10, 0, 1),
        f.cmd(CommandType::PRE, 5, 0),
    };
    auto v = f.checker.check(trace);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].message.find("sorted"), std::string::npos);
}

TEST(TimingChecker, ModelDrivenRandomTraceIsLegal)
{
    // Property: any trace generated by driving ChannelTimingModel at its
    // own earliest-issue times must audit clean.
    Fixture f;
    ChannelTimingModel model(f.geom, f.tp);
    std::vector<Command> trace;
    Cycle bus = 0;
    auto push = [&](Command c) {
        c.cycle = std::max(c.cycle, bus + 1);
        bus = c.cycle;
        trace.push_back(c);
        return c.cycle;
    };
    // Interleave activity on several banks, including HiRA ops.
    for (int iter = 0; iter < 50; ++iter) {
        BankId bank = static_cast<BankId>((iter * 5) % 16);
        if (model.openRow(bank) != kNoRow) {
            Cycle t = push(f.cmd(CommandType::RD,
                                 model.earliestRd(bank), bank,
                                 model.openRow(bank)));
            model.issueRd(bank, t);
            t = push(f.cmd(CommandType::PRE, model.earliestPre(bank),
                           bank));
            model.issuePre(bank, t);
        } else if (iter % 3 == 0) {
            Cycle t = push(f.cmd(CommandType::ACT,
                                 model.earliestHira(bank), bank, 7,
                                 HiraRole::FirstAct));
            Cycle second = model.issueHira(bank, 7, 9, t);
            Command pre = f.cmd(CommandType::PRE, t + f.tc.c1, bank, 0,
                                HiraRole::CutPre);
            bus = pre.cycle;
            trace.push_back(pre);
            Command act2 = f.cmd(CommandType::ACT, second, bank, 9,
                                 HiraRole::SecondAct);
            bus = act2.cycle;
            trace.push_back(act2);
        } else {
            Cycle t = push(f.cmd(CommandType::ACT,
                                 model.earliestAct(bank), bank, 3));
            model.issueAct(bank, 3, t);
        }
    }
    auto v = f.checker.check(trace);
    EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].message);
}
