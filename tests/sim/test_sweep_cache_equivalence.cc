/**
 * @file
 * Cold-vs-warm equivalence for the cached sweep path: runPoints() with
 * no cache, an empty cache, a fully-primed cache, and a mixed partial
 * cache must produce bitwise-identical results at any thread count —
 * the result cache is a pure memoization of the deterministic
 * simulation. Also pins that warm runs simulate nothing (points AND
 * alone-IPC warmups), and that full-level metrics survive the round
 * trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include <stdlib.h>

#include "result_expect.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"

using namespace hira;

namespace {

class SweepCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Pin every environment input of the cache key; tests flip
        // individual knobs back and forth themselves.
        ::setenv("HIRA_CACHE_REV", "test", 1);
        ::unsetenv("HIRA_METRICS");
        ::unsetenv("HIRA_STANDARD");
        ::unsetenv("HIRA_RESULT_CACHE");
        ::unsetenv("HIRA_CORPUS");
        std::string templ = "/tmp/hira_swcache.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        ::unsetenv("HIRA_CACHE_REV");
        ::unsetenv("HIRA_METRICS");
        std::filesystem::remove_all(dir);
    }

    static BenchKnobs
    tinyKnobs(int threads)
    {
        BenchKnobs k;
        k.mixes = 2;
        k.cycles = 12000;
        k.warmup = 3000;
        k.threads = threads;
        return k;
    }

    static std::vector<SweepPoint>
    tinyPlan()
    {
        std::vector<SweepPoint> plan;
        SweepPoint base;
        base.scheme.kind = SchemeKind::Baseline;
        plan.push_back(base);
        SweepPoint hira;
        hira.scheme.kind = SchemeKind::HiraMc;
        hira.scheme.slackN = 2;
        plan.push_back(hira);
        SweepPoint rfm;
        rfm.scheme.kind = SchemeKind::Rfm;
        plan.push_back(rfm);
        return plan;
    }

    /** Point @p runner at the fixture's cache dir. */
    void
    attachCache(SweepRunner &runner)
    {
        runner.setResultCache(std::make_unique<ResultCache>(dir));
    }

    std::string dir;
};

} // namespace

TEST_F(SweepCacheTest, NoCacheVsColdVsWarmAreBitwiseIdentical)
{
    std::vector<SweepPoint> plan = tinyPlan();

    // Reference: no cache at all (fromEnv is null — env is pinned).
    SweepRunner plain(tinyKnobs(2));
    ASSERT_EQ(plain.resultCache(), nullptr);
    std::vector<PointResult> reference = plain.runPoints(plan);
    EXPECT_EQ(plain.pointsSimulated(), plan.size());
    EXPECT_EQ(plain.pointsFromCache(), 0u);

    // Cold: empty cache, everything simulates, results identical.
    SweepRunner cold(tinyKnobs(2));
    attachCache(cold);
    std::vector<PointResult> coldOut = cold.runPoints(plan);
    expectSamePoints(coldOut, reference);
    EXPECT_EQ(cold.pointsSimulated(), plan.size());
    for (const PointResult &r : coldOut)
        EXPECT_FALSE(r.cacheHit);

    // Warm: a FRESH runner on the same dir simulates nothing — no
    // points, no alone-IPC warmups — and reproduces every bit.
    SweepRunner warm(tinyKnobs(2));
    attachCache(warm);
    std::vector<PointResult> warmOut = warm.runPoints(plan);
    expectSamePoints(warmOut, reference);
    EXPECT_EQ(warm.pointsSimulated(), 0u);
    EXPECT_EQ(warm.pointsFromCache(), plan.size());
    EXPECT_EQ(warm.aloneRunCount(), 0u);
    for (const PointResult &r : warmOut)
        EXPECT_TRUE(r.cacheHit);
    // Hits preserve the original run's cost accounting.
    for (std::size_t i = 0; i < warmOut.size(); ++i) {
        EXPECT_EQ(warmOut[i].wallSeconds, coldOut[i].wallSeconds);
        EXPECT_EQ(warmOut[i].simCycles, coldOut[i].simCycles);
    }
}

TEST_F(SweepCacheTest, PartialCacheMatchesAndOnlySimulatesMisses)
{
    std::vector<SweepPoint> plan = tinyPlan();
    SweepRunner reference(tinyKnobs(2));
    std::vector<PointResult> want = reference.runPoints(plan);

    // Prime ONLY the middle point.
    SweepRunner primer(tinyKnobs(2));
    attachCache(primer);
    primer.runPoints({plan[1]});

    for (int threads : {1, 4}) {
        SweepRunner mixed(tinyKnobs(threads));
        attachCache(mixed);
        std::vector<PointResult> got = mixed.runPoints(plan);
        expectSamePoints(got, want);
        EXPECT_EQ(mixed.pointsFromCache(), 1u) << threads;
        EXPECT_EQ(mixed.pointsSimulated(), plan.size() - 1)
            << threads;
        EXPECT_TRUE(got[1].cacheHit);
        EXPECT_FALSE(got[0].cacheHit);
        EXPECT_FALSE(got[2].cacheHit);
        // After the first mixed run the cache is fully primed; the
        // second iteration re-primes a fresh dir to stay partial.
        std::filesystem::remove_all(dir);
        std::filesystem::create_directory(dir);
        SweepRunner reprime(tinyKnobs(2));
        attachCache(reprime);
        reprime.runPoints({plan[1]});
    }
}

TEST_F(SweepCacheTest, WarmIsIdenticalAcrossThreadCounts)
{
    std::vector<SweepPoint> plan = tinyPlan();
    SweepRunner cold(tinyKnobs(1));
    attachCache(cold);
    std::vector<PointResult> want = cold.runPoints(plan);
    for (int threads : {1, 4}) {
        SweepRunner warm(tinyKnobs(threads));
        attachCache(warm);
        std::vector<PointResult> got = warm.runPoints(plan);
        expectSamePoints(got, want);
        EXPECT_EQ(warm.pointsSimulated(), 0u);
    }
}

TEST_F(SweepCacheTest, FullMetricsSurviveTheRoundTrip)
{
    ::setenv("HIRA_METRICS", "full", 1);
    std::vector<SweepPoint> plan = {tinyPlan()[1]};
    SweepRunner cold(tinyKnobs(2));
    attachCache(cold);
    std::vector<PointResult> coldOut = cold.runPoints(plan);
    ASSERT_FALSE(coldOut[0].metrics.empty());

    SweepRunner warm(tinyKnobs(2));
    attachCache(warm);
    std::vector<PointResult> warmOut = warm.runPoints(plan);
    EXPECT_EQ(warm.pointsSimulated(), 0u);
    const auto &want = coldOut[0].metrics.values;
    const auto &got = warmOut[0].metrics.values;
    ASSERT_EQ(want.size(), got.size());
    for (const auto &kv : want) {
        auto it = got.find(kv.first);
        ASSERT_NE(it, got.end()) << kv.first;
        EXPECT_EQ(kv.second.count, it->second.count) << kv.first;
        EXPECT_EQ(kv.second.value, it->second.value) << kv.first;
        EXPECT_EQ(kv.second.bins, it->second.bins) << kv.first;
    }
    ::unsetenv("HIRA_METRICS");
}

TEST_F(SweepCacheTest, AloneIpcPersistsIndependentlyOfPoints)
{
    std::vector<SweepPoint> plan = tinyPlan();
    SweepRunner cold(tinyKnobs(2));
    attachCache(cold);
    std::vector<PointResult> want = cold.runPoints(plan);
    EXPECT_GT(cold.aloneRunCount(), 0u);

    // Drop the point entries but keep the alone entries: points must
    // re-simulate, alone warmups must all come from disk.
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".point")
            std::filesystem::remove(entry.path());
    }
    SweepRunner half(tinyKnobs(2));
    attachCache(half);
    std::vector<PointResult> got = half.runPoints(plan);
    expectSamePoints(got, want);
    EXPECT_EQ(half.pointsSimulated(), plan.size());
    EXPECT_EQ(half.aloneRunCount(), 0u);
}
