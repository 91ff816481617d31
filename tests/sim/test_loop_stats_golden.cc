/**
 * @file
 * Golden digests of the event engine's own work counts.
 *
 * tests/sim/test_engine_diff.cc proves that the event engine computes
 * the same results as the dense loop; it says nothing about how much
 * work the event engine did to get there. These digests pin that work:
 * the executed and skipped bus cycles and the controller ticks of
 * SimLoopStats, plus the controllers' summed wake-bound recomputes
 * (`ctrlN.wake_recomputes`). A change to the kernel's skip decisions,
 * to which controllers it ticks, or to where their wake bounds are
 * recomputed moves a digest even when every result stays bitwise equal.
 * The constants were recorded before the kernel's deadline heap was
 * replaced by the controllers' cached nextEvent() bounds.
 *
 * The suite also pins the two kernel counters kept under their old
 * names: `kernel.heap_rekeys` counts one re-key per controller tick and
 * `kernel.heap_lowers` one lowering per accepted enqueue.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "sim/experiment.hh"

using namespace hira;

namespace {

struct LoopCase
{
    const char *name;
    SchemeKind scheme;
    int channels;
    int ranks;
    WorkloadMix mix;
    std::uint64_t digest;
};

const WorkloadMix kMemHeavy = {"mcf-like", "libquantum-like", "lbm-like",
                               "gems-like"};
const WorkloadMix kMemHeavy8 = {"mcf-like",   "libquantum-like",
                                "lbm-like",   "gems-like",
                                "milc-like",  "soplex-like",
                                "omnetpp-like", "leslie3d-like"};

std::uint64_t
counterSum(const MetricsSnapshot &snap, const std::string &prefix,
           const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &kv : snap.values) {
        const std::string &n = kv.first;
        if (n.size() > prefix.size() + suffix.size() &&
            n.compare(0, prefix.size(), prefix) == 0 &&
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0)
            sum += kv.second.count;
    }
    return sum;
}

std::uint64_t
counterAt(const MetricsSnapshot &snap, const std::string &name)
{
    auto it = snap.values.find(name);
    EXPECT_NE(it, snap.values.end()) << name;
    return it == snap.values.end() ? 0 : it->second.count;
}

void
PrintTo(const LoopCase &lc, std::ostream *os)
{
    *os << lc.name;
}

class LoopStatsGolden : public ::testing::TestWithParam<LoopCase>
{
};

} // namespace

TEST_P(LoopStatsGolden, DigestMatchesRecorded)
{
    const LoopCase &lc = GetParam();
    GeomSpec geom;
    geom.standard = "ddr4_2400";
    geom.channels = lc.channels;
    geom.ranks = lc.ranks;
    SchemeSpec scheme;
    scheme.kind = lc.scheme;
    scheme.slackN = 2;
    SystemConfig cfg = makeSystemConfig(geom, scheme, lc.mix, 99);
    cfg.engine = SimEngine::EventLoop;
    cfg.metricsLevel = MetricsLevel::Counters;

    System sys(cfg);
    sys.run(3000);
    sys.resetStats();
    sys.run(60000);
    const SimLoopStats &ls = sys.loopStats();
    MetricsSnapshot snap = sys.metricsSnapshot();
    std::uint64_t recomputes = counterSum(snap, "ctrl", ".wake_recomputes");

    EXPECT_EQ(ls.simulatedCycles, 63000u);
    EXPECT_EQ(counterAt(snap, "kernel.heap_rekeys"), ls.ctrlTicks);
    EXPECT_EQ(counterAt(snap, "kernel.heap_lowers"),
              counterSum(snap, "ctrl", ".wake_enqueue_lowers"));

    std::uint64_t h = 0;
    for (std::uint64_t f : {ls.executedCycles, ls.skippedCycles,
                            ls.ctrlTicks, recomputes})
        h = hashCombine(h, f);
    EXPECT_EQ(h, lc.digest)
        << lc.name << " digest 0x" << std::hex << h << std::dec
        << " (executed " << ls.executedCycles << ", skipped "
        << ls.skippedCycles << ", ticks " << ls.ctrlTicks
        << ", recomputes " << recomputes << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LoopStatsGolden,
    ::testing::Values(
        LoopCase{"baseline_1ch", SchemeKind::Baseline, 1, 1, kMemHeavy8,
                 0x91390bcc55de34ccull},
        LoopCase{"hira2_2ch2rk", SchemeKind::HiraMc, 2, 2, kMemHeavy,
                 0x1d533eeddc0f3ca9ull},
        LoopCase{"baseline_8ch", SchemeKind::Baseline, 8, 1, kMemHeavy8,
                 0xc4a1dd21cc38e8f9ull}),
    [](const ::testing::TestParamInfo<LoopCase> &param_info) {
        return std::string(param_info.param.name);
    });
