/**
 * @file
 * Sweeping refresh configurations for one workload mix: how the refresh
 * scheme choice interacts with chip capacity and RowHammer pressure.
 * A miniature of the Fig. 9 + Fig. 12 studies on a single mix, useful
 * for exploring a design point interactively.
 *
 * Usage: ./build/examples/refresh_sensitivity [capacityGb] [nrh]
 */

#include <cstdio>
#include <cstdlib>

#include "sim/experiment.hh"

using namespace hira;

namespace {

double
sumIpc(const RunResult &r)
{
    double s = 0.0;
    for (double v : r.sys.ipc)
        s += v;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    double capacity = argc > 1 ? std::atof(argv[1]) : 32.0;
    double nrh = argc > 2 ? std::atof(argv[2]) : 256.0;
    WorkloadMix mix = {"mcf-like", "libquantum-like", "soplex-like",
                       "gcc-like", "lbm-like", "gems-like",
                       "sphinx-like", "bzip2-like"};
    GeomSpec geom;
    geom.capacityGb = capacity;
    const Cycle warm = 20000, run = 80000;

    std::printf("capacity %.0f Gb, NRH %.0f, 8 cores, 1 channel/rank\n\n",
                capacity, nrh);
    std::printf("%-26s %10s %12s\n", "configuration", "sum-IPC",
                "vs NoRefresh");

    SchemeSpec none;
    none.kind = SchemeKind::NoRefresh;
    double ipc_none =
        sumIpc(runOne(makeSystemConfig(geom, none, mix, 9), warm, run));
    std::printf("%-26s %10.3f %11.1f%%\n", "NoRefresh (ideal)", ipc_none,
                0.0);

    auto report = [&](const char *name, const SchemeSpec &s) {
        double ipc =
            sumIpc(runOne(makeSystemConfig(geom, s, mix, 9), warm, run));
        std::printf("%-26s %10.3f %+11.1f%%\n", name, ipc,
                    100.0 * (ipc / ipc_none - 1.0));
    };

    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    report("REF baseline", base);

    for (int n : {0, 2, 8}) {
        SchemeSpec h;
        h.kind = SchemeKind::HiraMc;
        h.slackN = n;
        report(strprintf("HiRA-%d periodic", n).c_str(), h);
    }

    SchemeSpec para = base;
    para.paraEnabled = true;
    para.nrh = nrh;
    report("REF + PARA", para);

    SchemeSpec hpara = para;
    hpara.preventiveViaHira = true;
    hpara.slackN = 4;
    report("REF + PARA via HiRA-4", hpara);
    return 0;
}
