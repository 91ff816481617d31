/**
 * @file
 * PRAC: per-row activation counting (the DDR5 Per Row Activation
 * Counter direction) as a refresh scheme.
 *
 * Every activation increments an in-DRAM counter for the activated row;
 * when a row's count crosses the threshold the controller performs a
 * targeted refresh of the row's physical neighbors before they can
 * disturb-fail, then resets the counter (back-off). Queued targeted
 * refreshes wait in a bounded per-rank list with a slack deadline and
 * drain earliest-deadline-first through the controller's refresh-open
 * machinery. Periodic refresh stays on conventional REF, inherited from
 * BaselineRefresh.
 */

#ifndef HIRA_MEM_PRAC_HH
#define HIRA_MEM_PRAC_HH

#include <unordered_map>
#include <vector>

#include "mem/refresh.hh"

namespace hira {

/** PRAC configuration. */
struct PracConfig
{
    /** Activations before a row's neighbors get a targeted refresh. */
    int threshold = 256;
    /** Targeted-refresh deadline slack in units of tRC. */
    int slackRc = 4;
};

/** The PRAC refresh scheme for one memory controller (channel). */
class PracRefresh final : public BaselineRefresh
{
  public:
    explicit PracRefresh(const PracConfig &cfg);

    void attach(MemoryController *ctrl, const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void onActivate(std::size_t bank, RowId row, Cycle now) override;

    const PracConfig &config() const { return cfg; }
    /** Targeted refreshes queued across all ranks (test hook). */
    std::size_t pendingTargets() const;
    /** Targeted refreshes one rank can queue. */
    std::size_t capacity() const { return cap; }

  private:
    /** A queued targeted refresh of one victim row. */
    struct Target
    {
        Cycle deadline;
        std::size_t bank; //!< flat bank index
        RowId row;
    };

    bool drain(Cycle now);

    PracConfig cfg;
    /** Per-bank activation counters, keyed by row. */
    std::vector<std::unordered_map<RowId, int>> counters;
    std::vector<std::vector<Target>> targets; //!< per rank
    std::size_t cap = 0;
    Cycle slackCycles = 0;
    int rankCursor = 0;

    Counter *mPracTriggers = nullptr;      //!< threshold crossings
    HistogramMetric *mTableDepth = nullptr; //!< occupancy after insert
};

} // namespace hira

#endif // HIRA_MEM_PRAC_HH
