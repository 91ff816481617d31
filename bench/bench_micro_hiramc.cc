/**
 * @file
 * google-benchmark micro-benchmarks backing Section 6.2's latency
 * argument in software: HiRA-MC's table operations and the controller's
 * per-cycle cost.
 */

#include <benchmark/benchmark.h>

#include "core/hira_mc.hh"
#include "mem/controller.hh"
#include "security/para_analysis.hh"

using namespace hira;

namespace {

void
BM_RefreshTableScan(benchmark::State &state)
{
    RefreshTable table(68);
    for (int i = 0; i < 68; ++i) {
        table.insert(static_cast<Cycle>(1000 + i * 7),
                     static_cast<std::size_t>(i % 16),
                     i % 3 == 0 ? RefreshType::Periodic
                                : RefreshType::Preventive);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.earliestForBank(5));
    }
}
BENCHMARK(BM_RefreshTableScan);

void
BM_SptLookup(benchmark::State &state)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom);
    SubarrayId a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(spt.isolated(a, (a * 7 + 13) % 128));
        a = (a + 1) % 128;
    }
}
BENCHMARK(BM_SptLookup);

void
BM_RefPtrPick(benchmark::State &state)
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    SubarrayPairsTable spt(geom);
    RefPtrTable rp(16, 128, 512);
    for (auto _ : state) {
        RefPtrPick pick = rp.peek(3, 17, spt);
        benchmark::DoNotOptimize(pick);
        rp.advance(3, pick.subarray);
    }
}
BENCHMARK(BM_RefPtrPick);

void
BM_SolvePth(benchmark::State &state)
{
    double nrh = static_cast<double>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(solvePth(nrh, 4.0));
}
BENCHMARK(BM_SolvePth)->Arg(64)->Arg(1024);

void
BM_ControllerTickIdle(benchmark::State &state)
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = ddr4_2400(8.0);
    MemoryController ctrl(0, cc, std::make_unique<HiraMc>(HiraMcConfig{}));
    Cycle now = 1;
    for (auto _ : state) {
        ctrl.tick(now++);
        ctrl.completions().clear();
    }
}
BENCHMARK(BM_ControllerTickIdle);

void
BM_ControllerTickLoaded(benchmark::State &state)
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = ddr4_2400(8.0);
    MemoryController ctrl(0, cc, std::make_unique<HiraMc>(HiraMcConfig{}));
    Rng rng(1);
    Cycle now = 1;
    std::uint64_t tag = 1;
    for (auto _ : state) {
        if (!ctrl.readQueueFull() && rng.chance(0.2)) {
            Request r;
            r.type = MemType::Read;
            r.da.channel = 0;
            r.da.bank = static_cast<BankId>(rng.below(16));
            r.da.row = static_cast<RowId>(rng.below(65536));
            r.addr = tag * 64;
            r.tag = tag++;
            r.arrival = now;
            ctrl.enqueue(r);
        }
        ctrl.tick(now++);
        ctrl.completions().clear();
    }
}
BENCHMARK(BM_ControllerTickLoaded);

} // namespace

BENCHMARK_MAIN();
