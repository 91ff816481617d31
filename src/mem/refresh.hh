/**
 * @file
 * Refresh scheme interface and the two non-HiRA schemes: NoRefresh (the
 * ideal upper bound of Fig. 9a) and BaselineRefresh (rank-level REF
 * every tREFI, as in deployed DDR4 controllers). BaselineRefresh is
 * also the REF engine of every scheme that keeps periodic refresh on
 * REF (RFM, PRAC, Graphene-TRR, HiRA-MC in its Section 9.2 mode): they
 * derive from it and call its tick()/nextEventCycle(), so their REFs
 * are counted in their own stats where they are issued.
 */

#ifndef HIRA_MEM_REFRESH_HH
#define HIRA_MEM_REFRESH_HH

#include <vector>

#include "common/metrics.hh"
#include "common/types.hh"
#include "dram/geometry.hh"

namespace hira {

class MemoryController;

/** Refresh statistics every scheme reports. */
struct RefreshStats
{
    std::uint64_t refCommands = 0;       //!< rank-level REF commands
    std::uint64_t rowRefreshes = 0;      //!< per-row refresh operations
    std::uint64_t accessPaired = 0;      //!< hidden under a demand ACT
    std::uint64_t refreshPaired = 0;     //!< two refreshes per HiRA op
    std::uint64_t standalone = 0;        //!< plain ACT+PRE refreshes
    std::uint64_t deadlineMisses = 0;    //!< executed past their deadline
    std::uint64_t preventiveGenerated = 0;
    /**
     * Preventive victims never refreshed because the scheme's bounded
     * queue was full: HiRA-MC's PR-FIFO, PRAC's Refresh Table, or
     * the victim queues of RFM and Graphene-TRR.
     */
    std::uint64_t preventiveDropped = 0;

    /**
     * The one list of the counters above: calls f(name, &member) for
     * each, in declaration order. The names are an on-disk contract,
     * pinned by tests/sim/test_system.cc. Every consumer loops over
     * this list instead of naming the counters: operator+= (the
     * channel sum in System::result and the mix sum in
     * SweepRunner::runPoints), the ctrlN.scheme.<name> metric mirrors
     * in System::metricsSnapshot, the result cache's "refresh" line,
     * the "refresh" JSON object of HIRA_JSON artifacts and hira_sweep
     * (refreshStatsJson), and the test comparators in
     * tests/result_expect.hh. A new counter is one line here.
     */
    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("ref_commands", &RefreshStats::refCommands);
        f("row_refreshes", &RefreshStats::rowRefreshes);
        f("access_paired", &RefreshStats::accessPaired);
        f("refresh_paired", &RefreshStats::refreshPaired);
        f("standalone", &RefreshStats::standalone);
        f("deadline_misses", &RefreshStats::deadlineMisses);
        f("preventive_generated", &RefreshStats::preventiveGenerated);
        f("preventive_dropped", &RefreshStats::preventiveDropped);
    }

    RefreshStats &
    operator+=(const RefreshStats &o)
    {
        forEachField([&](const char *, auto m) { this->*m += o.*m; });
        return *this;
    }
};

/**
 * A refresh scheme plugged into one memory controller, through five
 * hooks. The controller calls tick() first each cycle (refresh has
 * priority over demand scheduling when deadlines require it) and
 * offers takeHiddenRefresh() before a demand activation. Every
 * per-bank argument is the bank's flat index within the channel
 * (ChannelTimingModel::bankIndex), and so is every per-bank argument
 * of the controller primitives the scheme calls.
 */
class RefreshScheme
{
  public:
    virtual ~RefreshScheme() = default;

    /**
     * Called once, at the end of the controller's construction, with
     * the scheme's metrics scope (e.g. "ctrl0.scheme."). Schemes size
     * their state, register the metrics they want and keep the
     * returned pointers; the RefreshStats every scheme reports are
     * mirrored into the registry by System::metricsSnapshot() without
     * scheme cooperation. Metrics must only observe: scheme behavior
     * must be identical with and without a live scope.
     */
    virtual void
    attach(MemoryController *controller, const MetricScope &scope)
    {
        ctrl = controller;
        (void)scope;
    }

    /**
     * Per-cycle refresh work. May issue at most one command through the
     * controller's try* primitives.
     */
    virtual void tick(Cycle now) = 0;

    /**
     * Event-engine horizon: a conservative lower bound on the next
     * cycle at which tick() could observably act or change state, given
     * no intervening commands on the channel (any issue wakes the
     * controller for the following cycle anyway). Returning a cycle
     * that is too *early* only costs a wasted poll; returning one that
     * is too *late* breaks the bitwise cycle/event equivalence, so when
     * in doubt return now + 1 (the base-class default, which keeps
     * unknown schemes correct by degrading them to dense ticking).
     * kNeverCycle means "nothing scheduled".
     */
    virtual Cycle
    nextEventCycle(Cycle now) const
    {
        return now + 1;
    }

    /**
     * Case-1 hook (Fig. 8): the controller activates @p row_a on
     * @p bank for a demand access now, and a HiRA operation fits (the
     * bank's earliestHira has passed and both future bus slots are
     * free). Return a row whose refresh rides along as HiRA's first
     * ACT, with the refresh already committed, or kNoRow for a plain
     * ACT. A returned row is always issued.
     */
    virtual RowId
    takeHiddenRefresh(std::size_t bank, RowId row_a, Cycle now)
    {
        (void)bank; (void)row_a; (void)now;
        return kNoRow;
    }

    /** Notification of every row activation (for PreventiveRC). */
    virtual void
    onActivate(std::size_t bank, RowId row, Cycle now)
    {
        (void)bank; (void)row; (void)now;
    }

    const RefreshStats &stats() const { return stats_; }

  protected:
    MemoryController *ctrl = nullptr;
    RefreshStats stats_;
};

/** The ideal No Refresh configuration (Fig. 9a's normalization base). */
class NoRefresh final : public RefreshScheme
{
  public:
    void tick(Cycle) override {}
    Cycle nextEventCycle(Cycle) const override { return kNeverCycle; }
};

/**
 * Conventional rank-level refresh: one all-bank REF per rank every
 * tREFI, rank offsets staggered; blocks the rank for tRFC.
 *
 * Derived schemes add their own work around the qualified calls
 * BaselineRefresh::tick() and BaselineRefresh::nextEventCycle(), and
 * must call BaselineRefresh::attach() from their attach().
 */
class BaselineRefresh : public RefreshScheme
{
  public:
    void attach(MemoryController *ctrl, const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;

  protected:
    /**
     * Cycle of rank @p rank's first REF. Ranks are staggered evenly
     * over one tREFI so their tRFC windows do not align.
     */
    Cycle firstRefAt(int rank) const;

  private:
    std::vector<Cycle> nextRefAt; //!< per rank
    std::vector<int> debt;        //!< due, not yet issued REFs per rank
    std::vector<bool> closing;    //!< draining banks ahead of a due REF
};

} // namespace hira

#endif // HIRA_MEM_REFRESH_HH
