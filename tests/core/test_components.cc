/**
 * @file
 * Unit tests for HiRA-MC's hardware components: Refresh Table, RefPtr
 * Table, PR-FIFO, and SPT (Section 5's four structures).
 */

#include <gtest/gtest.h>

#include "core/pr_fifo.hh"
#include "core/refptr_table.hh"
#include "core/refresh_table.hh"
#include "core/spt.hh"

using namespace hira;

TEST(RefreshTable, InsertAndEarliestByDeadline)
{
    RefreshTable t(8);
    t.insert(300, 2, RefreshType::Periodic);
    t.insert(100, 2, RefreshType::Preventive);
    t.insert(200, 5, RefreshType::Periodic);
    const std::uint64_t id2 = t.all()[1].id, id3 = t.all()[2].id;
    ASSERT_NE(t.earliestForBank(2), nullptr);
    EXPECT_EQ(t.earliestForBank(2)->id, id2);
    EXPECT_EQ(t.earliestForBank(5)->id, id3);
    EXPECT_EQ(t.earliestForBank(9), nullptr);
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

TEST(PrFifo, FifoOrderAndSecond)
{
    PrFifoSet f(16);
    EXPECT_TRUE(f.empty(3));
    f.push(3, 100);
    f.push(3, 200);
    EXPECT_EQ(f.front(3), 100u);
    EXPECT_EQ(f.second(3), 200u);
    f.pop(3);
    EXPECT_EQ(f.front(3), 200u);
    EXPECT_EQ(f.second(3), kNoRow);
}

TEST(PrFifo, FullFifoRejectsThePush)
{
    // Section 6 sizes the PR-FIFO at 4 entries per bank: a push into a
    // full FIFO must NOT store the victim (the hardware has nowhere to
    // put it), must return false, and must count the overflow.
    PrFifoSet f(16, 4);
    for (RowId r = 0; r < 4; ++r)
        EXPECT_TRUE(f.push(2, r));
    EXPECT_TRUE(f.full(2));
    EXPECT_FALSE(f.push(2, 99));
    EXPECT_EQ(f.overflows(), 1u);
    EXPECT_EQ(f.size(2), 4u);
    // The rejected victim is nowhere in the FIFO.
    for (RowId r = 0; r < 4; ++r) {
        EXPECT_EQ(f.front(2), r);
        f.pop(2);
    }
    EXPECT_TRUE(f.empty(2));
    // Dropping an entry reopens capacity.
    EXPECT_TRUE(f.push(2, 100));
    EXPECT_EQ(f.overflows(), 1u);
}

TEST(PrFifo, OverflowAccountingAccumulatesAcrossBanks)
{
    PrFifoSet f(4, 1);
    EXPECT_TRUE(f.push(0, 1));
    EXPECT_FALSE(f.push(0, 2));
    EXPECT_FALSE(f.push(0, 3));
    EXPECT_TRUE(f.push(3, 4));
    EXPECT_FALSE(f.push(3, 5));
    EXPECT_EQ(f.overflows(), 3u);
    EXPECT_EQ(f.size(0), 1u);
    EXPECT_EQ(f.size(3), 1u);
}

TEST(PrFifo, BanksIndependent)
{
    PrFifoSet f(16);
    f.push(0, 1);
    EXPECT_TRUE(f.empty(1));
    EXPECT_FALSE(f.empty(0));
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
