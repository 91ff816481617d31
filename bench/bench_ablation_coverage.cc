/**
 * @file
 * Ablation: sensitivity of HiRA-MC's benefit to the SPT isolation
 * density (the paper assumes the measured 32 %; Section 7). Sweeps
 * 10 % .. 100 % at 128 Gb.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace hira;
using namespace hira::benchutil;

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Ablation - SPT isolation density sweep (128 Gb, HiRA-4)",
           "paper assumes 32 % of rows can pair (Section 7); denser "
           "isolation gives more pairing freedom");
    knobsLine(knobs);

    SweepRunner runner(knobs);
    GeomSpec g;
    g.capacityGb = 128.0;
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    double ws_base = runner.meanWs(g, base);

    std::printf("%-12s %14s %16s\n", "isolation", "WS/Baseline",
                "access-paired");
    for (double iso : {0.10, 0.25, 0.32, 0.60, 1.00}) {
        SchemeSpec s;
        s.kind = SchemeKind::HiraMc;
        s.slackN = 4;
        s.sptIsolation = iso;
        PointResult pr = runner.runPoints({SweepPoint{g, s}}).front();
        double ws = pr.meanWs;
        const RefreshStats &rs = pr.refresh;
        double paired =
            rs.rowRefreshes == 0
                ? 0.0
                : static_cast<double>(rs.accessPaired) /
                      static_cast<double>(rs.rowRefreshes);
        std::printf("%-12s %14.3f %15.1f%%\n",
                    strprintf("%.0f %%", 100.0 * iso).c_str(),
                    ws / ws_base, 100.0 * paired);
    }
    footer();
    return 0;
}
