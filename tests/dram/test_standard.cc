/**
 * @file
 * Tests for the memory-standard registry (dram/standard.hh): name
 * lookups, the HIRA_STANDARD knob, the fatal unknown-name diagnostic,
 * and the presets' basic sanity relative to each other.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include "dram/standard.hh"

using namespace hira;

TEST(StandardRegistry, KnownStandardsResolve)
{
    EXPECT_STREQ(standardByName("ddr4_2400").name, "ddr4_2400");
    EXPECT_STREQ(standardByName("ddr5_4800").name, "ddr5_4800");
    EXPECT_STREQ(standardByName("ddr4_2400").display, "DDR4-2400");
}

TEST(StandardRegistry, RegistryIsCompleteAndNamed)
{
    // Every entry must resolve through its own name, and the
    // diagnostic list must mention all of them.
    std::string names = knownStandardNames();
    for (const MemoryStandard &s : standardRegistry()) {
        EXPECT_EQ(&standardByName(s.name), &s);
        EXPECT_NE(names.find(s.name), std::string::npos) << s.name;
    }
    EXPECT_GE(standardRegistry().size(), 2u);
}

TEST(StandardRegistry, FactoriesMatchThePresets)
{
    TimingParams viaRegistry = standardByName("ddr5_4800").make(16.0);
    TimingParams direct = ddr5_4800(16.0);
    EXPECT_DOUBLE_EQ(viaRegistry.tCK, direct.tCK);
    EXPECT_DOUBLE_EQ(viaRegistry.tREFI, direct.tREFI);
    EXPECT_DOUBLE_EQ(viaRegistry.tRC, direct.tRC);
}

TEST(StandardRegistry, KnobSelectsTheDefault)
{
    ::unsetenv("HIRA_STANDARD");
    EXPECT_EQ(defaultStandardName(), "ddr4_2400");
    ::setenv("HIRA_STANDARD", "ddr5_4800", 1);
    EXPECT_EQ(defaultStandardName(), "ddr5_4800");
    ::setenv("HIRA_STANDARD", "", 1);
    EXPECT_EQ(defaultStandardName(), "ddr4_2400");
    ::unsetenv("HIRA_STANDARD");
}

TEST(StandardRegistryDeath, UnknownNameIsFatalAndListsTheRegistry)
{
    // A typo must never silently fall back to DDR4 timings; the
    // diagnostic names every registered standard.
    EXPECT_EXIT(standardByName("ddr6_9600"),
                ::testing::ExitedWithCode(1),
                "unknown memory standard 'ddr6_9600'.*ddr4_2400.*"
                "ddr5_4800");
}

TEST(StandardRegistryDeath, UnknownKnobValueIsFatal)
{
    ::setenv("HIRA_STANDARD", "bogus", 1);
    EXPECT_EXIT(defaultStandardName(), ::testing::ExitedWithCode(1),
                "unknown memory standard 'bogus'");
    ::unsetenv("HIRA_STANDARD");
}
