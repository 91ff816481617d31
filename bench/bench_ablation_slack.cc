/**
 * @file
 * Ablation: fine-grained tRefSlack sweep (0..16 tRC) for periodic
 * refresh at 128 Gb. The paper reports saturation beyond
 * 2 tRC (Section 8); this sweep locates the knee in our model. All
 * slack points run as one sharded SweepRunner::runPoints() drain,
 * with per-point refresh stats taken from the PointResult.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace hira;
using namespace hira::benchutil;

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Ablation - tRefSlack sweep, periodic refresh at 128 Gb",
           "paper (Fig. 9b): benefits saturate beyond tRefSlack = "
           "2 tRC");
    knobsLine(knobs);

    SweepRunner runner(knobs);
    GeomSpec g;
    g.capacityGb = 128.0;
    const std::vector<int> slacks = {0, 1, 2, 4, 8, 16};

    SweepGrid grid;
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    std::size_t base_id = grid.add(g, base);
    std::vector<std::size_t> ids;
    for (int n : slacks) {
        SchemeSpec s;
        s.kind = SchemeKind::HiraMc;
        s.slackN = n;
        ids.push_back(grid.add(g, s));
    }
    grid.run(runner);
    double ws_base = grid.ws(base_id);

    std::printf("%-12s %14s %16s %16s\n", "tRefSlack", "WS/Baseline",
                "access-paired", "deadline misses");
    for (std::size_t i = 0; i < slacks.size(); ++i) {
        const RefreshStats &rs = grid.at(ids[i]).refresh;
        double paired =
            rs.rowRefreshes == 0
                ? 0.0
                : static_cast<double>(rs.accessPaired) /
                      static_cast<double>(rs.rowRefreshes);
        std::printf("%-12s %14.3f %15.1f%% %16llu\n",
                    strprintf("%d tRC", slacks[i]).c_str(),
                    grid.ws(ids[i]) / ws_base, 100.0 * paired,
                    static_cast<unsigned long long>(rs.deadlineMisses));
    }
    footer();
    return 0;
}
