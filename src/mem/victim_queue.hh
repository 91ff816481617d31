/**
 * @file
 * Per-bank bounded victim queues for the schemes that refresh the
 * physical neighbours of a triggering row (RFM, Graphene-TRR).
 *
 * Each bank holds up to a fixed number of victims, modelling
 * the device's bounded work list: a victim that finds its bank's queue
 * full is never refreshed and is counted as dropped, so every scheme
 * using the queue conserves generated = refreshed + pending + dropped.
 * Victims drain one command per call, round-robin across banks, through
 * the controller's refresh-open machinery: an open bank is precharged
 * first, then the victim gets a standalone ACT + auto-PRE refresh.
 */

#ifndef HIRA_MEM_VICTIM_QUEUE_HH
#define HIRA_MEM_VICTIM_QUEUE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "dram/bank_bits.hh"
#include "mem/refresh.hh"

namespace hira {

/** Bounded per-bank victim queues of one controller (channel). */
class VictimQueue
{
  public:
    /** Empty queues for @p banks (rank-major) banks, @p queue_cap deep. */
    void reset(std::size_t banks, int queue_cap);

    /**
     * Queue @p row's in-bank neighbours on bank index @p idx, counting
     * each in @p stats (generated, and dropped at a full queue).
     * Returns the number of victims generated.
     */
    int pushNeighbors(std::size_t idx, RowId row, RowId rows_per_bank,
                      RefreshStats &stats);

    /**
     * Issue at most one command toward the next drainable victim
     * (a PRE to close its bank, or its refresh ACT, which is counted
     * in @p stats as a standalone row refresh).
     */
    void drain(MemoryController &ctrl, Cycle now, RefreshStats &stats);

    /** Victims currently queued across all banks. */
    std::uint64_t pending() const { return pending_; }

  private:
    std::size_t cap = 0;
    std::vector<std::deque<RowId>> queues; //!< per flat bank index
    BankBits pendingBanks; //!< banks whose queue is non-empty
    std::uint64_t pending_ = 0;
    std::size_t cursor = 0; //!< bank index the next drain scan starts at
};

} // namespace hira

#endif // HIRA_MEM_VICTIM_QUEUE_HH
