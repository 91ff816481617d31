/**
 * @file
 * Tests for the serialized sweep-plan format (sim/sweep_plan.hh):
 * every field parsed, hand-written JSON with defaults, and fatal
 * diagnostics on malformed plans — hira_sweep must reject garbage at
 * the door, not simulate something else.
 */

#include <gtest/gtest.h>

#include "sim/scheme_registry.hh"
#include "sim/sweep_plan.hh"

using namespace hira;

TEST(SweepPlan, EveryFieldParses)
{
    SweepPlan plan = sweepPlanFromJson(
        R"({"mixes": [["mcf-like", "gcc-like"], ["corpus:x?once"]],
            "warmup": 1234, "cycles": 56789,
            "points": [
              {"scheme": {"name": "baseline"}},
              {"geom": {"capacity_gb": 8.04, "channels": 2, "ranks": 4,
                        "standard": "ddr5_4800"},
               "scheme": {"name": "hira", "slack_n": 8,
                          "para_enabled": true, "nrh": 333.25,
                          "preventive_via_hira": true,
                          "access_pairing": false,
                          "refresh_pairing": false, "pull_ahead": false,
                          "spt_isolation": 0.17}},
              {"scheme": {"name": "rfm", "raaimt": 16}},
              {"scheme": {"name": "prac", "prac_threshold": 48}},
              {"scheme": {"name": "graphene", "tracker_size": 12}}]})",
        "every-field");

    std::vector<SweepPoint> want(5);
    want[0].scheme = schemeSpecByName("baseline");
    want[1].geom.capacityGb = 8.04; // %.17g keys must keep this apart
    want[1].geom.channels = 2;
    want[1].geom.ranks = 4;
    want[1].geom.standard = "ddr5_4800";
    want[1].scheme = schemeSpecByName("hira");
    want[1].scheme.slackN = 8;
    want[1].scheme.paraEnabled = true;
    want[1].scheme.nrh = 333.25;
    want[1].scheme.preventiveViaHira = true;
    want[1].scheme.accessPairing = false;
    want[1].scheme.refreshPairing = false;
    want[1].scheme.pullAhead = false;
    want[1].scheme.sptIsolation = 0.17;
    want[2].scheme = schemeSpecByName("rfm");
    want[2].scheme.raaimt = 16;
    want[3].scheme = schemeSpecByName("prac");
    want[3].scheme.pracThreshold = 48;
    want[4].scheme = schemeSpecByName("graphene");
    want[4].scheme.trackerSize = 12;

    EXPECT_EQ(plan.mixes, (std::vector<WorkloadMix>{
                              {"mcf-like", "gcc-like"}, {"corpus:x?once"}}));
    EXPECT_EQ(plan.warmup, 1234);
    EXPECT_EQ(plan.cycles, 56789);
    ASSERT_EQ(plan.points.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        // The geometry key and scheme seed-key cover every plan field
        // injectively, so key equality IS spec equality — and it is
        // exactly what the result cache hashes.
        EXPECT_EQ(plan.points[i].geom.key(), want[i].geom.key()) << i;
        EXPECT_EQ(plan.points[i].geom.standard, want[i].geom.standard);
        EXPECT_EQ(plan.points[i].scheme.seedKey(), want[i].scheme.seedKey())
            << i;
    }
}

TEST(SweepPlan, HandWrittenPlanGetsDefaults)
{
    SweepPlan plan = sweepPlanFromJson(
        "{\"mixes\": [[\"mcf-like\"]],"
        " \"points\": [{\"scheme\": {\"name\": \"hira\"}}]}",
        "hand-written");
    EXPECT_EQ(plan.warmup, -1); // ambient knob default
    EXPECT_EQ(plan.cycles, -1);
    ASSERT_EQ(plan.points.size(), 1u);
    // Unset geom keys take the GeomSpec defaults.
    EXPECT_EQ(plan.points[0].geom.key(), GeomSpec().key());
    EXPECT_EQ(plan.points[0].scheme.kind, SchemeKind::HiraMc);
    EXPECT_EQ(plan.points[0].scheme.seedKey(),
              schemeSpecByName("hira").seedKey());
}

TEST(SweepPlan, SchemeOverridesApply)
{
    SweepPlan plan = sweepPlanFromJson(
        "{\"mixes\": [[\"mcf-like\"]],"
        " \"points\": [{\"scheme\": {\"name\": \"hira\","
        " \"slack_n\": 16, \"para_enabled\": true,"
        " \"preventive_via_hira\": true, \"nrh\": 512.5}}]}",
        "overrides");
    const SchemeSpec &s = plan.points[0].scheme;
    EXPECT_EQ(s.slackN, 16);
    EXPECT_TRUE(s.paraEnabled);
    EXPECT_TRUE(s.preventiveViaHira);
    EXPECT_EQ(s.nrh, 512.5);
}

TEST(SweepPlan, MalformedPlansAreFatal)
{
    EXPECT_EXIT((void)sweepPlanFromJson("{]", "t"),
                ::testing::ExitedWithCode(1), "invalid JSON");
    EXPECT_EXIT((void)sweepPlanFromJson("[]", "t"),
                ::testing::ExitedWithCode(1),
                "top level must be an object");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": []}", "t"),
                ::testing::ExitedWithCode(1),
                "'points' is missing or empty");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"points\": [{\"scheme\": {\"name\": "
                    "\"baseline\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "'mixes' is missing or empty");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"scheme\": {\"name\": \"frobnicate\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "unknown refresh scheme");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"scheme\": {\"name\": \"hira\", "
                    "\"slackety\": 4}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "unknown scheme key 'slackety'");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"geom\": {\"chanels\": 2}, \"scheme\": "
                    "{\"name\": \"hira\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "unknown geom key 'chanels'");

    // Out-of-range numbers die before any conversion to int / int64.
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"scheme\": {\"name\": \"hira\", "
                    "\"slack_n\": 1e10}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "invalid sweep plan: 'slack_n' = .* is outside");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"warmup\": 1e30, \"points\": "
                    "[{\"scheme\": {\"name\": \"hira\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "invalid sweep plan: 'warmup' = .* is outside");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"cycles\": -5, \"points\": "
                    "[{\"scheme\": {\"name\": \"hira\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "invalid sweep plan: 'cycles' = .* is outside");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"geom\": {\"channels\": 0}, \"scheme\": "
                    "{\"name\": \"hira\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "invalid sweep plan: 'channels' = .* is outside");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"geom\": {\"ranks\": -1}, \"scheme\": "
                    "{\"name\": \"hira\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "invalid sweep plan: 'ranks' = .* is outside");
    EXPECT_EXIT((void)sweepPlanFromJson(
                    "{\"mixes\": [[\"a\"]], \"points\": "
                    "[{\"geom\": {\"capacity_gb\": 0}, \"scheme\": "
                    "{\"name\": \"hira\"}}]}",
                    "t"),
                ::testing::ExitedWithCode(1),
                "invalid sweep plan: 'capacity_gb' must be positive");
}

TEST(SweepPlan, SchemeCombinationsThatRunSomethingElseAreFatal)
{
    auto plan = [](const std::string &scheme) {
        return "{\"mixes\": [[\"a\"]], \"points\": [{\"scheme\": " +
               scheme + "}]}";
    };
    // Immediate PARA on HiRA-MC would sample victims and discard them.
    EXPECT_EXIT((void)sweepPlanFromJson(
                    plan("{\"name\": \"hira\", \"para_enabled\": true}"),
                    "t"),
                ::testing::ExitedWithCode(1),
                "t: scheme 'HiRA-2\\+PARA' is not runnable: HiRA-MC serves "
                "PARA only through PreventiveRC");
    // PARA(HiRA) on any other kind would run Baseline REF plus the
    // HiRA-MC sampler under the original label.
    for (const char *name : {"norefresh", "rfm", "prac", "graphene"}) {
        SCOPED_TRACE(name);
        EXPECT_EXIT((void)sweepPlanFromJson(
                        plan(std::string("{\"name\": \"") + name +
                             "\", \"para_enabled\": true, "
                             "\"preventive_via_hira\": true}"),
                        "t"),
                    ::testing::ExitedWithCode(1),
                    "is not runnable: PARA.HiRA. needs periodic refresh "
                    "from Baseline or HiRA-MC");
    }
    // Retired keys (the periodic-via-HiRA switch, the elastic-refresh
    // bound) are unknown keys.
    for (const char *key : {"periodic_via_hira", "ref_postpone"}) {
        SCOPED_TRACE(key);
        EXPECT_EXIT((void)sweepPlanFromJson(
                        plan(std::string("{\"name\": \"baseline\", \"") +
                             key + "\": 0}"),
                        "t"),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown scheme key '") + key + "'");
    }
}
