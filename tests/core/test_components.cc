/**
 * @file
 * Unit tests for HiRA-MC's hardware components: Refresh Table (which
 * also holds the PR-FIFOs' rows), RefPtr Table, and SPT (Section 5's
 * four structures).
 */

#include <gtest/gtest.h>

#include "core/refptr_table.hh"
#include "core/spt.hh"
#include "mem/refresh_table.hh"

using namespace hira;

TEST(RefreshTable, InsertAndEarliestByDeadline)
{
    RefreshTable t(8);
    t.insert(300, 2, RefreshType::Periodic);
    t.insert(100, 2, RefreshType::Preventive, 77);
    t.insert(200, 5, RefreshType::Periodic);
    const std::uint64_t id2 = t.all()[1].id, id3 = t.all()[2].id;
    ASSERT_NE(t.earliestForBank(2), nullptr);
    EXPECT_EQ(t.earliestForBank(2)->id, id2);
    EXPECT_EQ(t.earliestForBank(2)->row, 77u);
    EXPECT_EQ(t.earliestForBank(5)->id, id3);
    EXPECT_EQ(t.earliestForBank(5)->row, kNoRow);
    EXPECT_EQ(t.earliestForBank(9), nullptr);

    // The next targeted refresh is due by the bound (inclusive), and a
    // blocked bank is skipped rather than waited on.
    auto none = [](std::size_t) { return false; };
    auto bank2 = [](std::size_t b) { return b == 2; };
    EXPECT_EQ(t.earliestActionable(99, none), nullptr);
    ASSERT_NE(t.earliestActionable(100, none), nullptr);
    EXPECT_EQ(t.earliestActionable(100, none)->id, id2);
    EXPECT_EQ(t.earliestActionable(150, bank2), nullptr);
    ASSERT_NE(t.earliestActionable(kNeverCycle, bank2), nullptr);
    EXPECT_EQ(t.earliestActionable(kNeverCycle, bank2)->id, id3);

    // A tie goes to the first entry in table order; removing an entry
    // moves the last one into its slot, which reorders the tie.
    t.insert(100, 6, RefreshType::Periodic);
    const std::uint64_t id4 = t.all()[3].id;
    EXPECT_EQ(t.earliestActionable(kNeverCycle, none)->id, id2);
    t.remove(t.all()[0].id);
    EXPECT_EQ(t.earliestActionable(kNeverCycle, none)->id, id4);
}

TEST(RefreshTable, PairCandidateSameBankOnly)
{
    RefreshTable t(8);
    t.insert(100, 2, RefreshType::Periodic);
    t.insert(150, 2, RefreshType::Preventive);
    t.insert(120, 3, RefreshType::Periodic);
    const std::uint64_t id2 = t.all()[1].id;
    const RefreshEntry *first = t.earliestForBank(2);
    const RefreshEntry *pair = t.pairCandidate(*first);
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->id, id2);
    // Bank 3's lone entry has no pair.
    EXPECT_EQ(t.pairCandidate(*t.earliestForBank(3)), nullptr);
}

TEST(RefreshTable, RemoveById)
{
    RefreshTable t(8);
    t.insert(100, 1, RefreshType::Periodic);
    const std::uint64_t id = t.all()[0].id;
    EXPECT_TRUE(t.remove(id));
    EXPECT_FALSE(t.remove(id));
    EXPECT_TRUE(t.empty());

    // A bank's PR-FIFO: preventive deadlines are the activation cycle
    // plus a fixed slack, so taking out the earliest entry again and
    // again yields the rows in the order they came, and its pair
    // candidate is the FIFO's second entry. Another bank's entries
    // interleave in the table without disturbing that order.
    const RowId rows[3] = {40, 10, 30};
    for (int i = 0; i < 3; ++i) {
        const Cycle at = 1000 + 10 * static_cast<Cycle>(i);
        t.insert(at, 3, RefreshType::Preventive, rows[i]);
        t.insert(at - 5, 7, RefreshType::Preventive, 1);
    }
    for (int i = 0; i < 3; ++i) {
        const RefreshEntry *e = t.earliestForBank(3);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->row, rows[i]);
        const RefreshEntry *second = t.pairCandidate(*e);
        if (i < 2) {
            ASSERT_NE(second, nullptr);
            EXPECT_EQ(second->row, rows[i + 1]);
        } else {
            EXPECT_EQ(second, nullptr);
        }
        EXPECT_TRUE(t.remove(e->id));
    }
    EXPECT_EQ(t.earliestForBank(3), nullptr);
    EXPECT_EQ(t.size(), 3u);
}

TEST(RefreshTable, OverflowCounted)
{
    RefreshTable t(2);
    EXPECT_TRUE(t.insert(1, 0, RefreshType::Periodic));
    EXPECT_TRUE(t.insert(2, 0, RefreshType::Periodic));
    EXPECT_FALSE(t.insert(3, 0, RefreshType::Periodic));
    EXPECT_EQ(t.overflows(), 1u);
    EXPECT_EQ(t.size(), 3u); // entry still stored
}

TEST(RefPtrTable, PeekPrefersLeastRefreshedSubarray)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 0.5, 99);
    RefPtrTable rp(16, geom.subarraysPerBank, 512);
    RefPtrPick first = rp.peek(0, kAnySubarray, spt);
    ASSERT_TRUE(first.valid());
    rp.advance(0, first.subarray);
    RefPtrPick second = rp.peek(0, kAnySubarray, spt);
    ASSERT_TRUE(second.valid());
    EXPECT_NE(second.subarray, first.subarray);
}

TEST(RefPtrTable, PairConstraintRespectsSpt)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 0.32, 99);
    RefPtrTable rp(16, geom.subarraysPerBank, 512);
    SubarrayId partner = 10;
    for (int i = 0; i < 50; ++i) {
        RefPtrPick p = rp.peek(3, partner, spt);
        ASSERT_TRUE(p.valid());
        EXPECT_TRUE(spt.isolated(p.subarray, partner));
        rp.advance(3, p.subarray);
    }
}

TEST(RefPtrTable, PointerWrapsWithinSubarray)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 1.0, 99);
    RefPtrTable rp(16, geom.subarraysPerBank, 4); // 4 groups/subarray
    for (int i = 0; i < 5; ++i)
        rp.advance(0, 7);
    EXPECT_EQ(rp.pointer(0, 7), 1u); // 5 mod 4
    EXPECT_EQ(rp.windowCount(0, 7), 5u);
    rp.resetWindow();
    EXPECT_EQ(rp.windowCount(0, 7), 0u);
    EXPECT_EQ(rp.pointer(0, 7), 1u); // pointer survives window reset
}

TEST(RefPtrTable, BalancedAdvanceAcrossSubarrays)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 1.0, 99);
    RefPtrTable rp(16, geom.subarraysPerBank, 512);
    // Repeatedly refreshing with the min-count policy visits every
    // subarray once before any repeats.
    std::set<SubarrayId> seen;
    for (std::uint32_t i = 0; i < geom.subarraysPerBank; ++i) {
        RefPtrPick p = rp.peek(0, kAnySubarray, spt);
        EXPECT_EQ(seen.count(p.subarray), 0u);
        seen.insert(p.subarray);
        rp.advance(0, p.subarray);
    }
    EXPECT_EQ(seen.size(), geom.subarraysPerBank);
}

TEST(Spt, IsolationDensityMatchesAssumption)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 0.32, 0x5b7a);
    EXPECT_NEAR(spt.map().meanIsolatedFraction(), 0.32, 0.04);
}

TEST(Spt, RowToSubarrayMapping)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 0.32, 1);
    EXPECT_EQ(spt.subarrayOf(0), 0u);
    EXPECT_EQ(spt.subarrayOf(511), 0u);
    EXPECT_EQ(spt.subarrayOf(512), 1u);
    EXPECT_EQ(spt.rowsPerSubarray(), 512u);
}

TEST(Spt, AnySubarrayIsWildcard)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom, 0.32, 1);
    EXPECT_TRUE(spt.isolated(kAnySubarray, 5));
    EXPECT_TRUE(spt.isolated(5, kAnySubarray));
}
