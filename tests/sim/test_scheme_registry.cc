/**
 * @file
 * Tests for the refresh-scheme registry (sim/scheme_registry.hh): every
 * SchemeKind has exactly one entry, names resolve both ways, the
 * configure hooks wire SchemeSpec knobs into the right SystemConfig
 * blocks, and unknown names die with the known-name list.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/scheme_registry.hh"

using namespace hira;

TEST(SchemeRegistry, EveryKindHasExactlyOneEntry)
{
    std::set<SchemeKind> kinds;
    std::set<std::string> names;
    for (const SchemeRegistryEntry &e : schemeRegistry()) {
        EXPECT_TRUE(kinds.insert(e.kind).second)
            << "duplicate kind for " << e.name;
        EXPECT_TRUE(names.insert(e.name).second)
            << "duplicate name " << e.name;
        EXPECT_NE(e.make, nullptr);
        EXPECT_NE(e.configure, nullptr);
        EXPECT_NE(e.labelBase, nullptr);
        EXPECT_NE(e.seedKeySuffix, nullptr);
    }
    // All six kinds: the legacy three plus the mitigation zoo.
    EXPECT_EQ(schemeRegistry().size(), 6u);
    for (SchemeKind k :
         {SchemeKind::NoRefresh, SchemeKind::Baseline, SchemeKind::HiraMc,
          SchemeKind::Rfm, SchemeKind::Prac, SchemeKind::Graphene})
        EXPECT_EQ(schemeEntryByKind(k).kind, k);
}

TEST(SchemeRegistry, NamesResolveBothWays)
{
    for (const SchemeRegistryEntry &e : schemeRegistry()) {
        EXPECT_EQ(&schemeEntryByName(e.name), &e);
        EXPECT_EQ(schemeSpecByName(e.name).kind, e.kind);
        EXPECT_NE(knownSchemeNames().find(e.name), std::string::npos);
    }
}

TEST(SchemeRegistry, ZooConfigureHooksWireTheirBlocks)
{
    GeomSpec g;
    SchemeSpec rfm = schemeSpecByName("rfm");
    rfm.raaimt = 24;
    SystemConfig cfg = makeSystemConfig(g, rfm, {"gcc-like"}, 1);
    EXPECT_EQ(cfg.scheme, SchemeKind::Rfm);
    EXPECT_EQ(cfg.rfm.raaimt, 24);

    SchemeSpec prac = schemeSpecByName("prac");
    prac.pracThreshold = 48;
    prac.slackN = 6;
    cfg = makeSystemConfig(g, prac, {"gcc-like"}, 1);
    EXPECT_EQ(cfg.scheme, SchemeKind::Prac);
    EXPECT_EQ(cfg.prac.threshold, 48);
    EXPECT_EQ(cfg.prac.slackRc, 6);

    SchemeSpec graphene = schemeSpecByName("graphene");
    graphene.trackerSize = 12;
    graphene.nrh = 400.0;
    cfg = makeSystemConfig(g, graphene, {"gcc-like"}, 1);
    EXPECT_EQ(cfg.scheme, SchemeKind::Graphene);
    EXPECT_EQ(cfg.graphene.trackerSize, 12);
    EXPECT_EQ(cfg.graphene.threshold, 100); // nrh / 4
}

TEST(SchemeRegistry, ZooLabels)
{
    EXPECT_EQ(schemeSpecByName("rfm").label(), "RFM");
    EXPECT_EQ(schemeSpecByName("prac").label(), "PRAC");
    EXPECT_EQ(schemeSpecByName("graphene").label(), "Graphene-TRR");
    // PARA composition suffixes still apply to zoo schemes.
    SchemeSpec s = schemeSpecByName("rfm");
    s.paraEnabled = true;
    EXPECT_EQ(s.label(), "RFM+PARA");
}

TEST(SchemeRegistry, StandardIsStampedIntoSystemConfig)
{
    GeomSpec g;
    g.standard = "ddr5_4800";
    g.capacityGb = 16.0;
    SystemConfig cfg =
        makeSystemConfig(g, schemeSpecByName("baseline"), {"gcc-like"}, 1);
    EXPECT_EQ(cfg.standard, "ddr5_4800");
    EXPECT_DOUBLE_EQ(cfg.tp.tCK, ddr5_4800(16.0).tCK);
}

TEST(SchemeRegistryDeath, UnknownNameIsFatalAndListsTheRegistry)
{
    // A typo in a sweep spec or bench section must never silently fall
    // back to a default scheme; the diagnostic names all six.
    EXPECT_EXIT(schemeEntryByName("graphine"),
                ::testing::ExitedWithCode(1),
                "unknown refresh scheme 'graphine'.*norefresh.*baseline.*"
                "hira.*rfm.*prac.*graphene");
}

TEST(SchemeRegistryDeath, OutOfRangeKindPanics)
{
    // System::makeScheme dispatches through this lookup, so an unmapped
    // kind must die before any controller is built.
    EXPECT_DEATH(schemeEntryByKind(static_cast<SchemeKind>(99)),
                 "scheme registry");
}
