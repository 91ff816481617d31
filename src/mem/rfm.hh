/**
 * @file
 * RFM: DDR5 refresh management (JESD79-5 section 4.7) as a refresh
 * scheme.
 *
 * The DRAM keeps a per-bank Rolling Accumulated ACT (RAA) counter; when
 * it crosses the RAA Initial Management Threshold (RAAIMT) the
 * controller owes the bank an RFM command, during which the device
 * refreshes the rows most at risk — modeled here as targeted refreshes
 * of the last activated row's physical neighbors, queued in a bounded
 * per-bank VictimQueue and issued through the controller's refresh-open
 * machinery (ACT, tRAS restore, auto-PRE), which blocks the bank exactly
 * the way tRFM does. Periodic refresh stays on conventional rank-level
 * REF, inherited from BaselineRefresh.
 */

#ifndef HIRA_MEM_RFM_HH
#define HIRA_MEM_RFM_HH

#include <vector>

#include "mem/refresh.hh"
#include "mem/victim_queue.hh"

namespace hira {

/** RFM configuration. */
struct RfmConfig
{
    /** RAA Initial Management Threshold: ACTs per bank per RFM. */
    int raaimt = 32;
};

/** The RFM refresh scheme for one memory controller (channel). */
class RfmRefresh final : public BaselineRefresh
{
  public:
    explicit RfmRefresh(const RfmConfig &cfg);

    void attach(MemoryController *ctrl, const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void onActivate(std::size_t bank, RowId row, Cycle now) override;

    const RfmConfig &config() const { return cfg; }
    /** Victims currently queued across all banks (test hook). */
    std::uint64_t pendingVictims() const { return victims.pending(); }

  private:
    RfmConfig cfg;
    std::vector<int> raa; //!< per flat bank index
    VictimQueue victims;

    Counter *mRfmTriggers = nullptr; //!< RAAIMT crossings (null when off)
};

} // namespace hira

#endif // HIRA_MEM_RFM_HH
