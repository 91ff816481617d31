/**
 * @file
 * Event-kernel wall-clock benchmark: times identical simulations under
 * both simulation-loop engines on two workload regimes —
 *
 *  - "saturated": 8-core memory-heavy synthetic mixes that keep the
 *    controllers' queues full (the regime where PR 5's kernel only
 *    reached parity), and
 *  - "light": 8-core low-intensity mixes (mostly LLC-resident), the
 *    regime the skip-ahead kernel always won.
 *
 * Every (regime, mix, engine) run lands in the HIRA_JSON "timing"
 * block, so the in-tree BENCH_event_kernel.json snapshot and the CI
 * artifact record the throughput trajectory across PRs. The engines
 * are bitwise-identical (tests/sim/test_engine_diff.cc); this driver
 * additionally cross-checks a stats checksum per mix across both so a
 * silent divergence shows up as a fatal here too.
 */

#include <chrono>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace hira;
using namespace hira::benchutil;

namespace {

/** Memory-heavy rotation: queues stay near-full at 8 cores. */
const std::vector<std::string> kSaturatedPool = {
    "mcf-like",  "libquantum-like", "lbm-like",   "gems-like",
    "milc-like", "soplex-like",     "leslie3d-like", "sphinx-like",
};

/** Low-intensity rotation: mostly LLC-resident cores. */
const std::vector<std::string> kLightPool = {
    "h264-like", "namd-like",  "perlbench-like", "hmmer-like",
    "gcc-like",  "bzip2-like", "astar-like",     "zeusmp-like",
};

WorkloadMix
rotatedMix(const std::vector<std::string> &pool, int cores, int rotation)
{
    WorkloadMix mix;
    for (int c = 0; c < cores; ++c) {
        mix.push_back(pool[static_cast<std::size_t>(
            (c + rotation) % static_cast<int>(pool.size()))]);
    }
    return mix;
}

struct EngineTiming
{
    double seconds = 0.0;
    std::uint64_t cycles = 0;
    SimLoopStats loop; //!< summed over the regime's mixes
};

/** Run every mix of the regime under @p engine, timing run() only. */
EngineTiming
runRegime(const std::string &regime,
          const std::vector<WorkloadMix> &mixes, SimEngine engine,
          const BenchKnobs &knobs, std::vector<double> &checksums)
{
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;
    GeomSpec geom;
    EngineTiming total;
    for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
        SystemConfig cfg = makeSystemConfig(
            geom, scheme, mixes[mi],
            sweepRunSeed(geom.key(), scheme.seedKey(), mi));
        cfg.engine = engine;
        System sys(cfg);
        auto t0 = std::chrono::steady_clock::now();
        sys.run(static_cast<Cycle>(knobs.warmup));
        sys.resetStats();
        sys.run(static_cast<Cycle>(knobs.cycles));
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        SystemResult r = sys.result();
        double sum = 0.0;
        for (double ipc : r.ipc)
            sum += ipc;
        checksums.push_back(sum +
                            static_cast<double>(r.controller.acts) +
                            static_cast<double>(r.memReads));
        std::uint64_t cycles =
            static_cast<std::uint64_t>(knobs.warmup + knobs.cycles);
        recordPointTiming(strprintf("%s/%s mix%zu", regime.c_str(),
                                    simEngineName(engine), mi),
                          pointId(SweepPoint{geom, scheme}), secs, cycles);
        total.seconds += secs;
        total.cycles += cycles;
        const SimLoopStats &ls = sys.loopStats();
        total.loop.simulatedCycles += ls.simulatedCycles;
        total.loop.executedCycles += ls.executedCycles;
        total.loop.skippedCycles += ls.skippedCycles;
        total.loop.ctrlTicks += ls.ctrlTicks;
    }
    return total;
}

} // namespace

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Event-kernel wall-clock: cycle vs event engine",
           "infra: event engine >1.5x faster than the dense loop on "
           "saturated 8-core mixes, bitwise-identical results");
    knobsLine(knobs);

    const int nmixes = std::max(1, knobs.mixes / 2);
    std::vector<std::vector<WorkloadMix>> regimes(2);
    for (int i = 0; i < nmixes; ++i) {
        regimes[0].push_back(rotatedMix(kSaturatedPool, knobs.cores, i));
        regimes[1].push_back(rotatedMix(kLightPool, knobs.cores, i));
    }
    const std::vector<std::string> names = {"saturated", "light"};

    seriesHeader("regime", {"cycle_s", "event_s", "speedup"});
    for (std::size_t ri = 0; ri < regimes.size(); ++ri) {
        std::vector<double> cyc_sum, evt_sum;
        EngineTiming cyc = runRegime(names[ri], regimes[ri],
                                     SimEngine::CycleLoop, knobs, cyc_sum);
        EngineTiming evt = runRegime(names[ri], regimes[ri],
                                     SimEngine::EventLoop, knobs, evt_sum);
        for (std::size_t i = 0; i < cyc_sum.size(); ++i) {
            if (cyc_sum[i] != evt_sum[i]) {
                fatal("engine divergence on %s mix %zu: checksums "
                      "cycle %.17g event %.17g",
                      names[ri].c_str(), i, cyc_sum[i], evt_sum[i]);
            }
        }
        seriesRow(names[ri],
                  {cyc.seconds, evt.seconds,
                   evt.seconds > 0.0 ? cyc.seconds / evt.seconds : 0.0});
        const SimLoopStats &ls = evt.loop;
        note(strprintf(
            "%s event loop: executed %.1f%% of cycles, controller ticks "
            "%.1f%% of dense",
            names[ri].c_str(),
            100.0 * static_cast<double>(ls.executedCycles) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, ls.simulatedCycles)),
            100.0 * static_cast<double>(ls.ctrlTicks) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, cyc.loop.ctrlTicks))));
    }
    note("speedup = cycle-engine wall-clock over event-engine "
         "wall-clock, same seeds, stats checksums cross-checked");
    footer();
    return 0;
}
