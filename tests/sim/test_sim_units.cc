/**
 * @file
 * Unit tests for the system-simulator building blocks: trace generator,
 * workload pool, LLC, and core model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"

using namespace hira;

TEST(TraceGen, DeterministicStreams)
{
    const auto &prof = benchmarkByName("mcf-like");
    TraceGen a(prof, 42, 0, 1 << 30), b(prof, 42, 0, 1 << 30);
    for (int i = 0; i < 1000; ++i) {
        TraceInst x = a.next(), y = b.next();
        EXPECT_EQ(x.isMem, y.isMem);
        EXPECT_EQ(x.addr, y.addr);
    }
}

TEST(TraceGen, MemoryIntensityMatchesProfile)
{
    const auto &prof = benchmarkByName("mcf-like");
    TraceGen g(prof, 1, 0, 1 << 30);
    int mem = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        mem += g.next().isMem;
    EXPECT_NEAR(static_cast<double>(mem) / n, prof.memPerInstr, 0.01);
}

TEST(TraceGen, AddressesStayInSlice)
{
    const auto &prof = benchmarkByName("libquantum-like");
    Addr base = 4ull << 30, slice = 1ull << 30;
    TraceGen g(prof, 2, base, slice);
    for (int i = 0; i < 20000; ++i) {
        TraceInst t = g.next();
        if (!t.isMem)
            continue;
        EXPECT_GE(t.addr, base);
        EXPECT_LT(t.addr, base + slice);
        EXPECT_EQ(t.addr % 64, 0u);
    }
}

TEST(TraceGen, StreamProfileIsSequential)
{
    BenchmarkProfile prof = benchmarkByName("libquantum-like");
    prof.hotFraction = 0.0;
    prof.streamFraction = 1.0;
    prof.memPerInstr = 1.0;
    TraceGen g(prof, 3, 0, 1 << 30);
    Addr prev = g.next().addr;
    int sequential = 0;
    for (int i = 0; i < 1000; ++i) {
        Addr cur = g.next().addr;
        sequential += cur == prev + 64;
        prev = cur;
    }
    EXPECT_GT(sequential, 990);
}

TEST(Workloads, PoolHasSpectrum)
{
    const auto &pool = benchmarkPool();
    EXPECT_GE(pool.size(), 16u);
    double lo = 1.0, hi = 0.0;
    for (const auto &p : pool) {
        lo = std::min(lo, p.memPerInstr);
        hi = std::max(hi, p.memPerInstr);
        EXPECT_GT(p.footprintLines, 0u);
        EXPECT_GE(p.hotLines, 1u);
        EXPECT_LE(p.hotFraction + p.streamFraction, 2.0);
    }
    EXPECT_LT(lo, 0.06);  // cache-friendly end
    EXPECT_GT(hi, 0.25);  // memory-bound end
}

TEST(Workloads, MixesAreDeterministicAndSized)
{
    auto a = makeMixes(125, 8);
    auto b = makeMixes(125, 8);
    ASSERT_EQ(a.size(), 125u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), 8u);
        EXPECT_EQ(a[i], b[i]);
    }
}

TEST(Workloads, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(benchmarkByName("no-such-bench"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(TraceGen, NonProbabilityFractionIsFatal)
{
    BenchmarkProfile nan = benchmarkByName("mcf-like");
    nan.name = "nan-profile";
    nan.memPerInstr = std::nan("");
    EXPECT_EXIT(TraceGen(nan, 1, 0, 1 << 20),
                ::testing::ExitedWithCode(1),
                "profile 'nan-profile': memPerInstr");

    BenchmarkProfile high = benchmarkByName("mcf-like");
    high.name = "high-profile";
    high.writeFraction = 1.25;
    EXPECT_EXIT(TraceGen(high, 1, 0, 1 << 20),
                ::testing::ExitedWithCode(1),
                "profile 'high-profile': writeFraction");
}

namespace {

/** LLC harness with a scripted memory backend. */
struct LlcHarness
{
    std::vector<Request> sent;
    std::vector<std::pair<int, std::uint64_t>> notified;
    bool accept = true;
    Llc llc;

    LlcHarness(LlcConfig cfg = {})
        : llc(
              cfg,
              [this](const Request &r) {
                  if (!accept)
                      return false;
                  sent.push_back(r);
                  return true;
              },
              [this](int core, std::uint64_t tag, Cycle) {
                  notified.push_back({core, tag});
              })
    {
    }
};

} // namespace

TEST(Llc, MissThenHit)
{
    LlcHarness h;
    EXPECT_EQ(h.llc.access(false, 0x1000, 0, 1, 10), LlcResult::Miss);
    ASSERT_EQ(h.sent.size(), 1u);
    EXPECT_EQ(h.sent[0].type, MemType::Read);
    h.llc.onMemCompletion(h.sent[0].tag, 50);
    ASSERT_EQ(h.notified.size(), 1u);
    EXPECT_EQ(h.notified[0].second, 1u);
    EXPECT_EQ(h.llc.access(false, 0x1000, 0, 2, 60), LlcResult::Hit);
    EXPECT_EQ(h.llc.hits, 1u);
}

TEST(Llc, MshrMergesSameLine)
{
    LlcHarness h;
    EXPECT_EQ(h.llc.access(false, 0x2000, 0, 1, 0), LlcResult::Miss);
    EXPECT_EQ(h.llc.access(false, 0x2010, 1, 2, 1), LlcResult::Miss);
    EXPECT_EQ(h.sent.size(), 1u); // one fetch for both
    EXPECT_EQ(h.llc.mshrMerges, 1u);
    h.llc.onMemCompletion(h.sent[0].tag, 99);
    EXPECT_EQ(h.notified.size(), 2u);
}

TEST(Llc, DirtyEvictionWritesBack)
{
    LlcConfig small;
    small.sizeBytes = 8192; // 2 sets x 8 ways x 64 B... tiny
    small.ways = 8;
    LlcHarness h(small);
    // Fill one set with dirty lines, then force an eviction.
    // Set index = line & 15; lines with equal low bits collide.
    int sets = 8192 / (8 * 64);
    for (int i = 0; i <= 8; ++i) {
        Addr addr = static_cast<Addr>(i) * 64 *
                    static_cast<Addr>(sets); // same set
        h.llc.access(true, addr, 0, static_cast<std::uint64_t>(i), 0);
        ASSERT_FALSE(h.sent.empty());
        h.llc.onMemCompletion(h.sent.back().tag, 1);
    }
    bool saw_writeback = false;
    for (const Request &r : h.sent)
        saw_writeback = saw_writeback || r.type == MemType::Write;
    EXPECT_TRUE(saw_writeback);
    EXPECT_GT(h.llc.writebacks, 0u);
}

TEST(Llc, BlocksWhenMshrsExhausted)
{
    LlcConfig cfg;
    cfg.mshrs = 2;
    LlcHarness h(cfg);
    EXPECT_EQ(h.llc.access(false, 64 * 100, 0, 1, 0), LlcResult::Miss);
    EXPECT_EQ(h.llc.access(false, 64 * 200, 0, 2, 0), LlcResult::Miss);
    EXPECT_EQ(h.llc.access(false, 64 * 300, 0, 3, 0), LlcResult::Blocked);
    EXPECT_GT(h.llc.blocked, 0u);
}

TEST(Llc, OutboundQueueRetries)
{
    LlcHarness h;
    h.accept = false; // controller full
    EXPECT_EQ(h.llc.access(false, 0x4000, 0, 1, 0), LlcResult::Miss);
    EXPECT_TRUE(h.sent.empty()); // queued, not sent
    h.accept = true;
    h.llc.tick(5);
    EXPECT_EQ(h.sent.size(), 1u);
}

TEST(Llc, NonPowerOfTwoLineIsFatal)
{
    LlcConfig cfg;
    cfg.lineBytes = 48;
    EXPECT_EXIT(LlcHarness h(cfg), ::testing::ExitedWithCode(1),
                "lineBytes = 48 is not a power of two");
}

namespace {

/**
 * Core harness with an instantly-filling memory backend: misses complete
 * on the next tick, so only LLC hit latency and window size matter.
 */
struct CoreHarness
{
    LlcConfig cfg;
    std::vector<std::uint64_t> pendingFills;
    Llc llc;
    BenchmarkProfile prof;
    TraceGen gen;
    CoreModel core;

    explicit CoreHarness(const BenchmarkProfile &p, int window = 128)
        : llc(
              cfg,
              [this](const Request &r) {
                  if (r.type == MemType::Read)
                      pendingFills.push_back(r.tag);
                  return true;
              },
              [this](int, std::uint64_t tag, Cycle) {
                  core.onDataReturn(tag);
              }),
          prof(p),
          gen(prof, 11, 0, 1 << 26),
          core(0, gen, llc, 4, window)
    {
    }

    void
    tick()
    {
        std::vector<std::uint64_t> fills;
        fills.swap(pendingFills);
        for (std::uint64_t tag : fills)
            llc.onMemCompletion(tag, 0);
        core.tick(0);
    }
};

} // namespace

TEST(CoreModel, PureComputeReachesFullWidth)
{
    BenchmarkProfile p = benchmarkByName("h264-like");
    p.memPerInstr = 0.0;
    CoreHarness h(p);
    for (int i = 0; i < 10000; ++i)
        h.tick();
    EXPECT_NEAR(h.core.ipc(), 4.0, 0.05);
}

TEST(CoreModel, HitLatencyLimitsIpcBelowWidth)
{
    BenchmarkProfile p = benchmarkByName("h264-like");
    p.memPerInstr = 0.5;
    p.writeFraction = 0.0;
    p.hotFraction = 1.0; // everything hits the LLC
    // A 32-entry window cannot cover 4 loads/cycle x 30-cycle hits.
    CoreHarness h(p, 32);
    for (int i = 0; i < 20000; ++i)
        h.tick();
    double ipc = h.core.ipc();
    EXPECT_GT(ipc, 1.0);
    EXPECT_LT(ipc, 3.5);
}

TEST(CoreModel, ResetStatsClearsCounters)
{
    BenchmarkProfile p = benchmarkByName("h264-like");
    p.memPerInstr = 0.0;
    CoreHarness h(p);
    for (int i = 0; i < 100; ++i)
        h.tick();
    h.core.resetStats();
    EXPECT_EQ(h.core.retiredInstructions(), 0u);
    EXPECT_EQ(h.core.cpuCycles(), 0u);
}
