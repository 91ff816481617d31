/**
 * @file
 * Quickstart: the three layers of the library in one page.
 *
 *  1. issue a HiRA operation against the behavioral chip model and see
 *     both rows survive;
 *  2. compute a PARA threshold with the security analysis;
 *  3. run a small 8-core simulation comparing conventional REF against
 *     HiRA-MC.
 *
 * Build and run: ./build/examples/quickstart
 */

#include <cstdio>

#include "characterize/coverage.hh"
#include "chip/modules.hh"
#include "security/para_analysis.hh"
#include "sim/experiment.hh"

using namespace hira;

int
main()
{
    // ---- 1. HiRA on the chip model -----------------------------------
    // Module C0 of the paper's Table 1, scaled to 512 rows per bank.
    DramChip chip(moduleByLabel("C0", 512, 1).config);
    SoftMCHost host(chip);

    // Find a partner row whose subarray is electrically isolated from
    // row 100's, then run Algorithm 1's inner test at t1 = t2 = 3 ns.
    RowId partner = findHiraPartner(host, 0, 100, 3.0, 3.0);
    bool works = partner != kNoRow &&
                 hiraPairWorks(host, 0, 100, partner, 3.0, 3.0);
    std::printf("HiRA(row 100, row %u) at t1=t2=3ns: %s\n",
                partner, works ? "both rows intact" : "failed");

    TimingParams tp;
    std::printf("two-row refresh: %.2f ns nominal vs %.2f ns with HiRA "
                "(-%.1f %%)\n",
                tp.nominalTwoRowRefreshNs(), tp.hiraTwoRowRefreshNs(),
                100.0 * tp.hiraLatencyReduction());

    // ---- 2. PARA configuration (Section 9.1) -------------------------
    double pth = solvePth(/*nrh=*/512.0,
                          slackActivations(4 * tp.tRC));
    std::printf("PARA threshold for NRH=512 with tRefSlack=4tRC: "
                "pth=%.4f\n", pth);

    // ---- 3. System simulation ----------------------------------------
    WorkloadMix mix = {"mcf-like", "libquantum-like", "gcc-like",
                       "lbm-like", "h264-like", "milc-like",
                       "omnetpp-like", "astar-like"};
    GeomSpec geom;
    geom.capacityGb = 64.0;

    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;

    RunResult rb = runOne(makeSystemConfig(geom, base, mix, 1), 20000,
                          60000);
    RunResult rh = runOne(makeSystemConfig(geom, hira, mix, 1), 20000,
                          60000);
    double sb = 0.0, sh = 0.0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        sb += rb.sys.ipc[i];
        sh += rh.sys.ipc[i];
    }
    std::printf("64 Gb chips, 8 cores: sum-IPC %.3f with REF baseline, "
                "%.3f with HiRA-2 (%+.1f %%)\n",
                sb, sh, 100.0 * (sh / sb - 1.0));
    std::printf("HiRA-MC refreshed %llu rows: %llu hidden under "
                "accesses, %llu paired refresh-refresh, %llu "
                "standalone\n",
                static_cast<unsigned long long>(
                    rh.sys.refresh.rowRefreshes),
                static_cast<unsigned long long>(
                    rh.sys.refresh.accessPaired),
                static_cast<unsigned long long>(
                    rh.sys.refresh.refreshPaired),
                static_cast<unsigned long long>(
                    rh.sys.refresh.standalone));
    return 0;
}
