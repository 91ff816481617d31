/**
 * @file
 * Graphene-TRR: Misra-Gries frequent-item tracking with periodic
 * target-row-refresh, as a refresh scheme.
 *
 * Each bank owns a k-entry Misra-Gries summary of its activation
 * stream (Graphene, MICRO 2020): an activation of a tracked row bumps
 * its counter; an untracked row takes a free slot, or — when the table
 * is full — decrements every counter (zeroed entries free their slot).
 * Once per tREFI, per rank, the tracker's hottest row at or above the
 * threshold gets its two physical neighbors queued for targeted refresh
 * (the TRR action) and its counter reset. Victims wait in a bounded
 * per-bank VictimQueue and drain through the controller's refresh-open
 * machinery; the trackers reset every tREFW window. Periodic refresh
 * stays on conventional REF, inherited from BaselineRefresh.
 */

#ifndef HIRA_MEM_GRAPHENE_TRR_HH
#define HIRA_MEM_GRAPHENE_TRR_HH

#include <vector>

#include "mem/refresh.hh"
#include "mem/victim_queue.hh"

namespace hira {

/** Graphene-TRR configuration. */
struct GrapheneConfig
{
    /** Misra-Gries tracker entries per bank. */
    int trackerSize = 16;
    /** Minimum tracked count before a TRR refresh targets the row. */
    int threshold = 128;
    /** Victims queued per bank awaiting their refresh slot. */
    int queueCap = 8;
};

/** The Graphene-TRR refresh scheme for one memory controller. */
class GrapheneTrr final : public BaselineRefresh
{
  public:
    explicit GrapheneTrr(const GrapheneConfig &cfg);

    void attach(MemoryController *ctrl, const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void onActivate(std::size_t bank, RowId row, Cycle now) override;

    const GrapheneConfig &config() const { return cfg; }
    /** Victims currently queued across all banks (test hook). */
    std::uint64_t pendingVictims() const { return victims.pending(); }

  private:
    struct Tracked
    {
        RowId row;
        int hits;
    };

    void trrSelect(int rank);

    GrapheneConfig cfg;
    std::vector<std::vector<Tracked>> trackers;  //!< per flat bank index
    VictimQueue victims;
    std::vector<Cycle> nextTrrAt;                //!< per rank
    Cycle windowCycles = 0;
    Cycle nextWindowReset = 0;

    Counter *mTrrSelections = nullptr;    //!< TRR victims queued
    HistogramMetric *mTrackerDepth = nullptr; //!< entries at selection
};

} // namespace hira

#endif // HIRA_MEM_GRAPHENE_TRR_HH
