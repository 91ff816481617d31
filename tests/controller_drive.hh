/**
 * @file
 * A standalone MemoryController driven by seeded random demand traffic,
 * shared by the command-stream golden digests and the count-index
 * property test.
 *
 * The controller is built from System's recipe for channel 0
 * (controllerConfig, and the registry's scheme factory), so every
 * scheme runs its production configuration. The traffic repeats
 * a 4096-cycle pattern of saturated bursts over two hot rows per bank
 * (row hits and conflicts) and random cold rows, with quiet stretches
 * where the queues drain and refresh runs unopposed:
 *
 *   [0, 1536)     reads
 *   [1536, 2048)  quiet
 *   [2048, 3584)  writes, which fill the write queue past drainHigh
 *   [3584, 4096)  quiet
 *
 * From `contendedFrom` on, both bursts carry reads and writes alike,
 * so the write queue crosses drainHigh while reads wait. Read row hits
 * then hold back the writes' conflict PREs (the write-drain row-hit
 * gate of ROADMAP item 1), which stalls the write queue until a REF
 * closes the banks, and for good under NoRefresh. Separate read and
 * write bursts before that point keep most of each run's commands
 * away from the stall.
 */

#ifndef HIRA_TESTS_CONTROLLER_DRIVE_HH
#define HIRA_TESTS_CONTROLLER_DRIVE_HH

#include <cctype>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/controller.hh"
#include "sim/experiment.hh"
#include "sim/scheme_registry.hh"
#include "sim/system.hh"

namespace hira {
namespace testing_drive {

/** One (scheme, geometry) case of the driven-controller suites. */
struct DriveCase
{
    std::string name;
    SchemeSpec scheme;
    GeomSpec geom;
    /**
     * DDR4-2400 x16 activation timing (2 KB page: tRRD_S 5.3 ns,
     * tRRD_L 6.4 ns, tFAW 30 ns) instead of the standard's x8 values.
     * With the x8 values a HiRA op's two-slot tFAW bound never passes a
     * plain ACT's bound; with these it does (earliestHira >
     * earliestAct), so a refresh can issue as a plain ACT while a HiRA
     * pair would still wait.
     */
    bool x16 = false;
};

/** gtest prints a case by its name. */
inline void
PrintTo(const DriveCase &dc, std::ostream *os)
{
    *os << dc.name;
}

inline GeomSpec
ddr4OneRank()
{
    GeomSpec g;
    g.capacityGb = 8.0;
    g.ranks = 1;
    g.standard = "ddr4_2400";
    return g;
}

inline GeomSpec
ddr5Ranks(int ranks)
{
    GeomSpec g;
    g.capacityGb = 16.0;
    g.ranks = ranks;
    g.standard = "ddr5_4800";
    return g;
}

/**
 * NoRefresh, Baseline, Baseline + immediate PARA, HiRA-2 with
 * PreventiveRC, HiRA-2 alone (periodic refresh only), RFM, PRAC and
 * Graphene-TRR, each on DDR4 8 Gb with one
 * rank and on DDR5-4800 with two ranks, plus HiRA-2 alone on DDR4 with
 * x16 activation timing, and Baseline and HiRA-2 alone on DDR5-4800
 * with four ranks: 128 banks, so the controller's per-bank bit words
 * span two 64-bit words. Thresholds are low (NRH 64, PRAC 32) so every
 * preventive path fires within a short run.
 */
inline std::vector<DriveCase>
driveCases()
{
    std::vector<SchemeSpec> schemes;
    auto add = [&schemes](SchemeKind kind) -> SchemeSpec & {
        SchemeSpec s;
        s.kind = kind;
        s.nrh = 64.0;
        schemes.push_back(s);
        return schemes.back();
    };
    add(SchemeKind::NoRefresh);
    add(SchemeKind::Baseline);
    add(SchemeKind::Baseline).paraEnabled = true;
    SchemeSpec &hira = add(SchemeKind::HiraMc);
    hira.slackN = 2;
    hira.paraEnabled = true;
    hira.preventiveViaHira = true;
    add(SchemeKind::HiraMc).slackN = 2;
    const SchemeSpec hira_alone = schemes.back();
    add(SchemeKind::Rfm);
    add(SchemeKind::Prac).pracThreshold = 32;
    add(SchemeKind::Graphene);

    const SchemeSpec baseline = schemes[1];

    std::vector<DriveCase> cases;
    auto push = [&cases](const SchemeSpec &s, const GeomSpec &g) {
        std::string name = s.label() + "_" + g.standard + "_r" +
                           std::to_string(g.ranks);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        cases.push_back({name, s, g});
    };
    for (const GeomSpec &g : {ddr4OneRank(), ddr5Ranks(2)}) {
        for (const SchemeSpec &s : schemes)
            push(s, g);
    }
    DriveCase x16{"HiRA_2_ddr4_2400_r1_x16", hira_alone, ddr4OneRank()};
    x16.x16 = true;
    cases.push_back(x16);
    push(baseline, ddr5Ranks(4));
    push(hira_alone, ddr5Ranks(4));
    return cases;
}

/** Channel 0's controller as System would build it, trace recording on. */
inline std::unique_ptr<MemoryController>
makeDrivenController(const DriveCase &dc, std::uint64_t seed)
{
    SystemConfig cfg = makeSystemConfig(dc.geom, dc.scheme, {}, seed);
    ControllerConfig cc = controllerConfig(cfg, 0);
    cc.recordTrace = true;
    if (dc.x16) {
        cc.tp.tRRD_S = 5.3;
        cc.tp.tRRD_L = 6.4;
        cc.tp.tFAW = 30.0;
    }
    return std::make_unique<MemoryController>(
        0, cc, schemeEntryByKind(cfg.scheme).make(cfg));
}

/**
 * Seeded demand traffic for one controller. step() offers at most one
 * request per cycle (a rejected request is re-offered every cycle
 * until accepted, like the LLC's outbound head), ticks the controller
 * and drops its completions.
 */
class TrafficDriver
{
  public:
    TrafficDriver(const Geometry &geom, std::uint64_t seed,
                  Cycle contended_from)
        : geom_(geom), rng_(seed), contendedFrom_(contended_from)
    {
        int nbanks = geom.banksPerChannel();
        for (int i = 0; i < 2 * nbanks; ++i)
            hotRows_.push_back(static_cast<RowId>(
                rng_.below(static_cast<std::uint64_t>(geom.rowsPerBank))));
    }

    void
    step(MemoryController &ctrl, Cycle now)
    {
        Cycle w = now & 4095;
        bool reads = w < 1536;
        bool writes = w >= 2048 && w < 3584;
        if (!hasPending_ && (reads || writes) && rng_.chance(0.6)) {
            bool write = now >= contendedFrom_ ? rng_.chance(0.5) : writes;
            pending_ = makeRequest(write);
            hasPending_ = true;
        }
        if (hasPending_) {
            pending_.arrival = now;
            if (ctrl.enqueue(pending_))
                hasPending_ = false;
        }
        ctrl.tick(now);
        ctrl.completions().clear();
    }

  private:
    Request
    makeRequest(bool write)
    {
        int bpr = geom_.banksPerRank();
        Request r;
        r.type = write ? MemType::Write : MemType::Read;
        r.da.channel = 0;
        r.da.rank = static_cast<int>(
            rng_.below(static_cast<std::uint64_t>(geom_.ranksPerChannel)));
        r.da.bank = static_cast<BankId>(
            rng_.below(static_cast<std::uint64_t>(bpr)));
        std::size_t flat = static_cast<std::size_t>(r.da.rank * bpr) +
                           r.da.bank;
        if (rng_.chance(0.8)) {
            r.da.row = hotRows_[2 * flat + rng_.below(2)];
        } else {
            r.da.row = static_cast<RowId>(rng_.below(
                static_cast<std::uint64_t>(geom_.rowsPerBank)));
        }
        r.da.col = static_cast<std::uint32_t>(rng_.below(128));
        r.addr = ((static_cast<Addr>(r.da.row) *
                       static_cast<Addr>(geom_.banksPerChannel()) +
                   flat) << 13) |
                 (static_cast<Addr>(r.da.col) << 6);
        r.tag = nextTag_++;
        r.coreId = 0;
        return r;
    }

    Geometry geom_;
    Rng rng_;
    Cycle contendedFrom_;
    std::vector<RowId> hotRows_;
    Request pending_;
    bool hasPending_ = false;
    std::uint64_t nextTag_ = 1;
};

} // namespace testing_drive
} // namespace hira

#endif // HIRA_TESTS_CONTROLLER_DRIVE_HH
