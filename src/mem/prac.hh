/**
 * @file
 * PRAC: per-row activation counting (the DDR5 Per Row Activation
 * Counter direction) as a refresh scheme.
 *
 * Every activation increments an in-DRAM counter for the activated row;
 * when a row's count crosses the threshold the controller performs a
 * targeted refresh of the row's physical neighbors before they can
 * disturb-fail, then resets the counter (back-off). Queued targeted
 * refreshes live in the existing RefreshTable with a slack deadline and
 * drain earliest-deadline-first through the controller's refresh-open
 * machinery. Periodic refresh stays on conventional REF, inherited from
 * BaselineRefresh.
 */

#ifndef HIRA_MEM_PRAC_HH
#define HIRA_MEM_PRAC_HH

#include <unordered_map>
#include <vector>

#include "core/refresh_table.hh"
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

    void attach(MemoryController *ctrl) override;
    void attachMetrics(const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void onActivate(int rank, BankId bank, RowId row, Cycle now) override;

    const PracConfig &config() const { return cfg; }
    /** Queued targeted refreshes in one rank's table (test hook). */
    const RefreshTable &table(int rank) const
    {
        return tables[static_cast<std::size_t>(rank)];
    }

  private:
    bool drain(Cycle now);

    PracConfig cfg;
    /** Per-(rank, bank) activation counters, keyed by row. */
    std::vector<std::unordered_map<RowId, int>> counters;
    std::vector<RefreshTable> tables;                //!< per rank
    /** Victim row per queued table entry id, per rank. */
    std::vector<std::unordered_map<std::uint64_t, RowId>> rowOf;
    Cycle slackCycles = 0;
    int rankCursor = 0;

    Counter *mPracTriggers = nullptr;      //!< threshold crossings
    HistogramMetric *mTableDepth = nullptr; //!< occupancy after insert
};

} // namespace hira

#endif // HIRA_MEM_PRAC_HH
