/**
 * @file
 * Golden pins for the per-instruction hot path: digests of synthetic
 * TraceGen instruction streams and of whole-system SystemResults.
 *
 * The digests were recorded before the core, trace generator and LLC
 * were rewritten to run without per-instruction divisions, and every
 * later change to that path must reproduce them bitwise. A mismatch
 * means a model output moved: either revert the change, or re-record
 * the digests deliberately as part of a model re-baseline.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/registry.hh"

using namespace hira;

namespace {

constexpr std::uint64_t kStreamLength = 1000000;

std::uint64_t
bits(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** hashCombine digest of the first kStreamLength instructions. */
std::uint64_t
streamDigest(const BenchmarkProfile &prof, std::uint64_t seed, Addr base,
             Addr slice_bytes)
{
    TraceGen gen(prof, seed, base, slice_bytes);
    std::uint64_t h = 0;
    for (std::uint64_t i = 0; i < kStreamLength; ++i) {
        TraceInst inst = gen.next();
        h = hashCombine(h, (inst.isMem ? 1u : 0u) |
                               (inst.isWrite ? 2u : 0u));
        h = hashCombine(h, inst.addr);
    }
    return h;
}

std::uint64_t
resultDigest(const SystemResult &r)
{
    std::uint64_t h = hashCombine(0, r.ipc.size());
    for (double ipc : r.ipc)
        h = hashCombine(h, bits(ipc));
    // Counters enter in field-list order: controller, then refresh.
    for (std::uint64_t f : {r.memReads, r.memWrites,
                            bits(r.avgReadLatencyCycles), r.llcHits,
                            r.llcMisses}) {
        h = hashCombine(h, f);
    }
    ControllerStats::forEachField([&](const char *, auto m) {
        h = hashCombine(h, r.controller.*m);
    });
    RefreshStats::forEachField([&](const char *, auto m) {
        h = hashCombine(h, r.refresh.*m);
    });
    return h;
}

std::uint64_t
systemDigest(const WorkloadMix &mix, SimEngine engine)
{
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SystemConfig cfg = makeSystemConfig(GeomSpec{}, base, mix, 7);
    cfg.engine = engine;
    System sys(cfg);
    sys.run(20000);
    sys.resetStats();
    sys.run(50000);
    return resultDigest(sys.result());
}

/**
 * "golden_resident:<profile>": the pool profile with every access
 * confined to 2048 lines (128 KB), so a whole mix stays LLC-resident.
 */
void
registerResidentScheme()
{
    WorkloadRegistry::global().registerScheme(
        "golden_resident",
        [](const std::string &arg, std::uint64_t seed, Addr base,
           Addr slice_bytes) -> std::unique_ptr<TraceSource> {
            BenchmarkProfile p = benchmarkByName(arg);
            p.footprintLines = 2048;
            return std::make_unique<TraceGen>(p, seed, base, slice_bytes);
        });
}

} // namespace

TEST(GoldenStreams, PoolProfiles)
{
    EXPECT_EQ(streamDigest(benchmarkByName("mcf-like"), 1, 0, 1ull << 30),
              0x09d8856c284876f4ull);
    EXPECT_EQ(streamDigest(benchmarkByName("h264-like"), 2, 1ull << 30,
                           1ull << 30),
              0x84bbada8f0f1011eull);
}

TEST(GoldenStreams, EveryInstructionAccessesMemory)
{
    BenchmarkProfile p = benchmarkByName("gcc-like");
    p.name = "all-mem";
    p.memPerInstr = 1.0;
    EXPECT_EQ(streamDigest(p, 3, 0, 1ull << 30), 0x1beaee0f57160113ull);
}

TEST(GoldenStreams, SliceClampedFootprintWraps)
{
    // A 32 KB slice clamps the footprint to 512 lines, below hotLines,
    // so hot == footprint and the sequential stream wraps every 512
    // stream accesses.
    BenchmarkProfile p = benchmarkByName("libquantum-like");
    p.name = "clamped";
    p.hotLines = 4096;
    ASSERT_GT(p.footprintLines, 512u);
    EXPECT_EQ(streamDigest(p, 4, 1ull << 20, 512 * 64),
              0x2f0b935fff6b4cb2ull);
}

TEST(GoldenResults, LlcResidentMix)
{
    registerResidentScheme();
    WorkloadMix mix = {"golden_resident:h264-like",
                       "golden_resident:namd-like",
                       "golden_resident:perlbench-like",
                       "golden_resident:gcc-like"};
    const std::uint64_t expect = 0x97299ea03d554ef4ull;
    EXPECT_EQ(systemDigest(mix, SimEngine::CycleLoop), expect);
    EXPECT_EQ(systemDigest(mix, SimEngine::EventLoop), expect);
}

TEST(GoldenResults, MemoryHeavyMix)
{
    WorkloadMix mix = {"mcf-like", "libquantum-like", "lbm-like",
                       "gems-like"};
    const std::uint64_t expect = 0x2cb2fa9bf02dbdc5ull;
    EXPECT_EQ(systemDigest(mix, SimEngine::CycleLoop), expect);
    EXPECT_EQ(systemDigest(mix, SimEngine::EventLoop), expect);
}
