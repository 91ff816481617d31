/**
 * @file
 * Deterministic-threading tests for SweepRunner: the sharded executor
 * (src/sim/experiment.cc) must be a pure parallelization — per-run
 * seeds are pure functions of (geometry, scheme, mix index), results
 * land in per-index slots, and the alone-IPC cache is single-flight —
 * so the thread count must not change any result bit, and no alone
 * run may ever execute twice.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include <stdlib.h>

#include "result_expect.hh"
#include "sim/experiment.hh"

using namespace hira;

namespace {

BenchKnobs
tinyKnobs(int threads)
{
    BenchKnobs k;
    k.mixes = 4;
    k.cycles = 12000;
    k.warmup = 3000;
    k.rows = 64;
    k.threads = threads;
    return k;
}

} // namespace

TEST(SweepRunnerThreads, BaselineMeanWsIdenticalOneVsFourThreads)
{
    SweepRunner serial(tinyKnobs(1));
    SweepRunner pooled(tinyKnobs(4));
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the summation order over mixes
    // is fixed by index, so even a low-bit reduction-order divergence
    // is a scheduling leak and must fail.
    EXPECT_EQ(serial.meanWs(g, s), pooled.meanWs(g, s));
}

TEST(SweepRunnerThreads, HiraMcMeanWsAndStatsIdenticalOneVsFourThreads)
{
    SweepRunner serial(tinyKnobs(1));
    SweepRunner pooled(tinyKnobs(4));
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::HiraMc;
    s.slackN = 2;
    expectSamePoints(serial.runPoints({SweepPoint{g, s}}),
                     pooled.runPoints({SweepPoint{g, s}}));
}

TEST(SweepRunnerThreads, RunPointsIdenticalOneVsFourThreads)
{
    // The sharded plan path must be bitwise thread-count independent,
    // point by point, including the per-point refresh aggregates.
    std::vector<SweepPoint> plan;
    for (int ch : {1, 2}) {
        for (int slack : {-1, 2}) {
            SweepPoint p;
            p.geom.channels = ch;
            if (slack < 0) {
                p.scheme.kind = SchemeKind::Baseline;
            } else {
                p.scheme.kind = SchemeKind::HiraMc;
                p.scheme.slackN = slack;
            }
            plan.push_back(p);
        }
    }
    SweepRunner serial(tinyKnobs(1));
    SweepRunner pooled(tinyKnobs(4));
    expectSamePoints(serial.runPoints(plan), pooled.runPoints(plan));
}

TEST(SweepRunnerThreads, RunPointsIdenticalAcrossEnginesAndThreadCounts)
{
    // The sharded plan path must be bitwise identical under either
    // simulation-loop engine (HIRA_ENGINE), at any thread count: the
    // event kernel is a pure wall-clock optimization. Guards the full
    // SweepRunner stack (seeding, alone-IPC cache, reductions) on top
    // of the per-system differential suite in test_engine_diff.cc.
    std::vector<SweepPoint> plan;
    for (int slack : {-1, 2}) {
        SweepPoint p;
        if (slack < 0) {
            p.scheme.kind = SchemeKind::Baseline;
        } else {
            p.scheme.kind = SchemeKind::HiraMc;
            p.scheme.slackN = slack;
        }
        plan.push_back(p);
    }

    auto run_with_engine = [&plan](const char *engine, int threads) {
        EXPECT_EQ(::setenv("HIRA_ENGINE", engine, 1), 0);
        SweepRunner runner(tinyKnobs(threads));
        return runner.runPoints(plan);
    };
    std::vector<std::vector<PointResult>> results;
    results.push_back(run_with_engine("cycle", 1));
    results.push_back(run_with_engine("event", 1));
    results.push_back(run_with_engine("event", 4));
    ::unsetenv("HIRA_ENGINE");

    ASSERT_EQ(results.size(), 3u);
    for (std::size_t v = 1; v < results.size(); ++v) {
        SCOPED_TRACE("variant " + std::to_string(v));
        expectSamePoints(results[v], results[0]);
    }
}

TEST(SweepRunnerThreads, NoDuplicateAloneRunsAcrossAPlan)
{
    // A plan spanning several schemes and geometries needs exactly one
    // alone run per distinct (benchmark, geometry) pair, shared across
    // all points — never one per point.
    SweepRunner runner(tinyKnobs(4));
    std::vector<SweepPoint> plan;
    for (int ch : {1, 2}) {
        for (int slack : {-1, 0, 2}) {
            SweepPoint p;
            p.geom.channels = ch;
            if (slack < 0) {
                p.scheme.kind = SchemeKind::Baseline;
            } else {
                p.scheme.kind = SchemeKind::HiraMc;
                p.scheme.slackN = slack;
            }
            plan.push_back(p);
        }
    }
    runner.runPoints(plan);

    std::set<std::string> benches;
    for (const WorkloadMix &mix : runner.mixes())
        for (const std::string &b : mix)
            benches.insert(b);
    // 2 geometries in the plan, each needing every distinct bench once.
    EXPECT_EQ(runner.aloneRunCount(), 2 * benches.size());

    // Re-running the plan hits the cache: no new alone runs.
    std::uint64_t before = runner.aloneRunCount();
    runner.runPoints(plan);
    EXPECT_EQ(runner.aloneRunCount(), before);
}

TEST(SweepRunnerThreads, AloneCacheIsSingleFlightUnderConcurrency)
{
    // Hammer one cold cache key from many threads at once: exactly one
    // leader may run the simulation; everyone must observe its value.
    SweepRunner runner(tinyKnobs(1));
    GeomSpec g;
    const int nthreads = 8;
    std::vector<double> seen(nthreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t) {
        threads.emplace_back([&, t]() {
            seen[t] = runner.aloneIpc("mcf-like", g);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(runner.aloneRunCount(), 1u);
    for (int t = 1; t < nthreads; ++t)
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_GT(seen[0], 0.0);
}

TEST(SweepRunnerThreads, RepeatedCallsOnOneRunnerStayStable)
{
    // The alone-IPC cache fills on the first call; the second call hits
    // it. Both paths must produce the same mean weighted speedup.
    SweepRunner runner(tinyKnobs(4));
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    double first = runner.meanWs(g, s);
    double second = runner.meanWs(g, s);
    EXPECT_EQ(first, second);
}
