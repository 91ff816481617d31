/**
 * @file
 * Tests for DRAM geometry derivation and capacity scaling.
 */

#include <gtest/gtest.h>

#include "dram/geometry.hh"

using namespace hira;

TEST(Geometry, Table3Defaults)
{
    Geometry g;
    EXPECT_EQ(g.banksPerRank(), 16);
    EXPECT_EQ(g.rowsPerBank, 65536u);
    EXPECT_EQ(g.subarraysPerBank, 128u);
    EXPECT_EQ(g.rowsPerSubarray(), 512u);
    EXPECT_EQ(g.colsPerRow * g.lineBytes, 8192u); // 8 KB rows
}

TEST(Geometry, BankCountsAcrossSystem)
{
    Geometry g;
    g.channels = 2;
    g.ranksPerChannel = 4;
    EXPECT_EQ(g.banksPerChannel(), 64);
    EXPECT_EQ(g.totalBanks(), 128);
}

TEST(Geometry, BankGroupOf)
{
    Geometry g;
    EXPECT_EQ(g.bankGroupOf(0), 0);
    EXPECT_EQ(g.bankGroupOf(3), 0);
    EXPECT_EQ(g.bankGroupOf(4), 1);
    EXPECT_EQ(g.bankGroupOf(15), 3);
}

TEST(Geometry, CapacityScalingRows)
{
    auto g2 = Geometry::forCapacityGb(2.0);
    auto g8 = Geometry::forCapacityGb(8.0);
    auto g128 = Geometry::forCapacityGb(128.0);
    EXPECT_EQ(g2.rowsPerBank, 16384u);
    EXPECT_EQ(g8.rowsPerBank, 65536u);
    EXPECT_EQ(g128.rowsPerBank, 1048576u);
}

TEST(Geometry, RefreshGroupScalingIsSublinear)
{
    // Refresh groups per bank scale as C^0.3 (src/dram/geometry.cc).
    auto g8 = Geometry::forCapacityGb(8.0);
    auto g128 = Geometry::forCapacityGb(128.0);
    EXPECT_EQ(g8.refreshGroupsPerBank, 65536u);
    EXPECT_GT(g128.refreshGroupsPerBank, g8.refreshGroupsPerBank);
    // 16x capacity -> 16^0.3 ~ 2.30x refresh work, not 16x.
    double ratio = double(g128.refreshGroupsPerBank) /
                   double(g8.refreshGroupsPerBank);
    EXPECT_NEAR(ratio, 2.30, 0.05);
}

TEST(Geometry, RefreshGroupsNeverExceedRows)
{
    for (double c : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
        auto g = Geometry::forCapacityGb(c);
        EXPECT_LE(g.refreshGroupsPerBank, g.rowsPerBank)
            << "capacity " << c;
    }
}

TEST(Geometry, TotalBytesMatchCapacity)
{
    // A 1-channel, 1-rank system of 8 Gb x8 chips: rank capacity is
    // 8 Gb * 8 chips = 8 GB.
    Geometry g = Geometry::forCapacityGb(8.0);
    EXPECT_EQ(g.totalBytes(), 8ull << 30);
}

TEST(Geometry, SmallCapacityRefreshGroupsClampToRows)
{
    // Below the 8 Gb anchor the C^0.6 model would exceed one external
    // refresh per row; it must clamp to the row count.
    auto g2 = Geometry::forCapacityGb(2.0);
    EXPECT_EQ(g2.refreshGroupsPerBank, g2.rowsPerBank);
}
