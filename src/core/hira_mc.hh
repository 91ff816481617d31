/**
 * @file
 * HiRA-MC: the HiRA Memory Controller refresh scheme (Section 5).
 *
 * Components (Fig. 7): the Periodic Refresh Controller generates one
 * per-bank row-refresh request per generation interval, staggered
 * across banks; the Preventive Refresh Controller samples every row
 * activation with a slack-adjusted PARA threshold and queues victims in
 * per-bank PR-FIFOs; the Refresh Table holds all queued requests with
 * deadlines; the Concurrent Refresh Finder pairs queued refreshes with
 * demand activations (case 1, via the controller's takeHiddenRefresh
 * hook) or with each other (case 2) and falls back to standalone
 * refreshes at the deadline. The Refresh Tables are per rank. A bank's
 * PR-FIFO is its preventive entries there, each carrying its victim
 * row: their deadlines are activation cycle plus a fixed slack, so the
 * bank's earliest-deadline preventive entry is its FIFO front. A
 * per-bank count bounds the FIFO at kPrFifoDepth. The RefPtr Table, the
 * FIFO counts and the generation schedule are indexed by the channel's
 * flat bank index.
 *
 * HiRA-N configurations set tRefSlack = N * tRC (Sections 8-9's
 * notation). With periodicViaHira off (Section 9.2: PARA served by
 * HiRA, periodic refresh on REF) the REFs come from the inherited
 * BaselineRefresh engine and are counted in this scheme's stats.
 */

#ifndef HIRA_CORE_HIRA_MC_HH
#define HIRA_CORE_HIRA_MC_HH

#include <memory>
#include <vector>

#include "core/refptr_table.hh"
#include "core/spt.hh"
#include "mem/para.hh"
#include "mem/refresh.hh"
#include "mem/refresh_table.hh"

namespace hira {

/** PR-FIFO entries per bank (Section 6's worst-case sizing). */
inline constexpr std::size_t kPrFifoDepth = 4;

/** HiRA-MC configuration. */
struct HiraMcConfig
{
    /** tRefSlack in units of tRC (HiRA-N). */
    int slackN = 2;
    /** SPT isolated-pair density (paper §7 assumption: 32 %). */
    double sptIsolation = 0.32;
    std::uint64_t seed = 0x41a4;
    /**
     * PreventiveRC sampling. The pth here must already be slack-adjusted
     * via security::solvePth (Section 9.1, step 4).
     */
    ParaConfig preventive;
    /**
     * True: periodic refresh is performed with HiRA row refreshes
     * (Section 8). False: periodic refresh stays on conventional REF
     * commands from the inherited BaselineRefresh engine and only
     * preventive refreshes use HiRA (Section 9.2).
     */
    bool periodicViaHira = true;
    // Ablation switches, swept by bench/bench_ablation_pairing.cc.
    bool enableAccessPairing = true;
    bool enableRefreshPairing = true;
    /**
     * When a periodic refresh must execute standalone and no second
     * request is queued for its bank (the staggered generation schedule
     * rarely queues two), pull the bank's *next* scheduled request
     * forward and pair it refresh-refresh (two rows in t1+t2+tRAS
     * instead of one in tRC). Refreshing ahead of schedule is always
     * safe; this realizes Section 5.1.3's refresh-refresh parallelism
     * for periodic refreshes. Disable for the pairing ablation.
     */
    bool enablePullAhead = true;
};

/** The HiRA-MC refresh scheme for one memory controller (channel). */
class HiraMc final : public BaselineRefresh
{
  public:
    explicit HiraMc(const HiraMcConfig &cfg);

    void attach(MemoryController *ctrl, const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    RowId takeHiddenRefresh(std::size_t bank, RowId row_a,
                            Cycle now) override;
    void onActivate(std::size_t bank, RowId row, Cycle now) override;

    // ----- inspection ---------------------------------------------------

    const RefreshTable &table(int rank) const { return tables[rank]; }
    const RefPtrTable &refPtr() const { return *refptrs; }
    const SubarrayPairsTable &spt() const { return *spt_; }
    const HiraMcConfig &config() const { return cfg; }

  private:
    struct Target
    {
        RowId row = kNoRow;
        SubarrayId subarray = kAnySubarray;

        bool valid() const { return row != kNoRow; }
    };

    void generatePeriodic(Cycle now);
    double earliestGen() const;
    bool caseTwo(Cycle now);
    Target targetFor(const RefreshEntry &e, SubarrayId pair_with) const;
    void commit(const RefreshEntry &e, const Target &t, Cycle now);

    HiraMcConfig cfg;
    std::unique_ptr<SubarrayPairsTable> spt_;
    std::vector<RefreshTable> tables;   //!< per rank
    std::unique_ptr<RefPtrTable> refptrs;
    std::vector<std::size_t> prFifoSize; //!< per bank, <= kPrFifoDepth
    ParaSampler sampler;

    std::vector<double> nextGen;        //!< per bank, in cycles
    // Cached min over nextGen (earliestGen): generatePeriodic and the
    // event-engine horizon read it on every tick, but the array only
    // changes when a generation instant passes (generatePeriodic) or a
    // pull-ahead consumes one (caseTwo), so those sites invalidate and
    // the scan runs once per change instead of once per read.
    mutable double nextGenMin = 0.0;
    mutable bool nextGenMinValid = false;
    double genIntervalCycles = 0.0;
    Cycle slackCycles = 0;
    Cycle marginCycles = 0;
    Cycle windowCycles = 0;
    Cycle nextWindowReset = 0;
    int rankCursor = 0;

    // Observability (nullptr when metrics are off). mPrFifoDepth samples
    // the per-bank PR-FIFO occupancy right after each accepted victim;
    // mRefptrResets counts tREFW window rollovers.
    HistogramMetric *mPrFifoDepth = nullptr;
    Counter *mRefptrResets = nullptr;
};

} // namespace hira

#endif // HIRA_CORE_HIRA_MC_HH
