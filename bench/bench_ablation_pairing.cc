/**
 * @file
 * Ablation (DESIGN.md): contribution of each HiRA-MC pairing mechanism
 * at 128 Gb — refresh-access pairing (case 1), refresh-refresh pairing
 * incl. schedule pull-ahead (case 2), both, or neither (standalone
 * per-row refreshes only).
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace hira;
using namespace hira::benchutil;

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Ablation - HiRA-MC pairing mechanisms (128 Gb, HiRA-4)",
           "quantifies case-1 (refresh-access) vs case-2 "
           "(refresh-refresh + pull-ahead) parallelization");
    knobsLine(knobs);

    SweepRunner runner(knobs);
    GeomSpec g;
    g.capacityGb = 128.0;

    SchemeSpec none;
    none.kind = SchemeKind::NoRefresh;
    double ws_ideal = runner.meanWs(g, none);
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    double ws_base = runner.meanWs(g, base);

    struct Variant
    {
        const char *name;
        bool access, rr, pull;
    };
    const Variant variants[] = {
        {"standalone only", false, false, false},
        {"+refresh-refresh", false, true, false},
        {"+pull-ahead", false, true, true},
        {"+refresh-access", true, false, false},
        {"full HiRA-MC", true, true, true},
    };

    std::printf("%-20s %14s %14s %16s\n", "variant", "WS/NoRefresh",
                "WS/Baseline", "paired fraction");
    std::printf("%-20s %14.3f %14s %16s\n", "Baseline (REF)",
                ws_base / ws_ideal, "1.000", "-");
    for (const Variant &v : variants) {
        SchemeSpec s;
        s.kind = SchemeKind::HiraMc;
        s.slackN = 4;
        s.accessPairing = v.access;
        s.refreshPairing = v.rr || v.pull;
        s.pullAhead = v.pull;
        PointResult pr = runner.runPoints({SweepPoint{g, s}}).front();
        double ws = pr.meanWs;
        const RefreshStats &rs = pr.refresh;
        double paired =
            rs.rowRefreshes == 0
                ? 0.0
                : static_cast<double>(rs.accessPaired +
                                      rs.refreshPaired) /
                      static_cast<double>(rs.rowRefreshes);
        std::printf("%-20s %14.3f %14.3f %15.1f%%\n", v.name,
                    ws / ws_ideal, ws / ws_base, 100.0 * paired);
    }
    note("who wins: full HiRA-MC; each pairing mechanism independently "
         "recovers part of the gap between standalone per-row refresh "
         "and the ideal");
    footer();
    return 0;
}
