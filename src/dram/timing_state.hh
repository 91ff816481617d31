/**
 * @file
 * Cycle-accurate DDR4 timing state machine for one memory channel.
 *
 * Tracks, per bank / rank / channel, the earliest cycle at which each
 * command may legally issue, and mutates that state as commands issue.
 * The HiRA operation (ACT - t1 - PRE - t2 - ACT, Section 3) is applied
 * atomically via issueHira(): the inner PRE and second ACT deliberately
 * violate tRAS / tRP (that is the whole point of HiRA), while both ACTs
 * still count against tRRD and tFAW (Section 5.2) and the first ACT obeys
 * all nominal inbound constraints.
 *
 * The model is deliberately independent of the request scheduler so that
 * tests/dram can drive it directly and tests/mem can audit controller
 * traces against TimingChecker, which re-derives legality from scratch.
 */

#ifndef HIRA_DRAM_TIMING_STATE_HH
#define HIRA_DRAM_TIMING_STATE_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "dram/geometry.hh"
#include "dram/timing.hh"

namespace hira {

/** All TimingParams pre-converted to bus cycles. */
struct TimingCycles
{
    Cycle rcd, rp, ras, rc;
    Cycle rrdS, rrdL, faw;
    Cycle cl, cwl, bl, ccdS, ccdL, rtp, wr, wtrS, wtrL, rtrs;
    Cycle refi, rfc;
    Cycle c1, c2; //!< HiRA t1, t2

    explicit TimingCycles(const TimingParams &tp);
    TimingCycles() = default;

    /** Bus cycles a full HiRA sequence spans (first ACT to second ACT). */
    Cycle hiraSpan() const { return c1 + c2; }
};

/** Per-bank timing state. */
struct BankState
{
    RowId openRow = kNoRow;
    Cycle actReady = 0; //!< earliest ACT (bank-local: tRC / tRP / tRFC)
    Cycle preReady = 0; //!< earliest PRE (tRAS / tRTP / write recovery)
    Cycle rdReady = 0;  //!< earliest RD (tRCD)
    Cycle wrReady = 0;  //!< earliest WR (tRCD)
};

/** Per-rank timing state. */
struct RankState
{
    Cycle actReadyS = 0;                  //!< tRRD_S from last ACT
    std::vector<Cycle> actReadyL;         //!< tRRD_L per bank group
    std::array<Cycle, 4> fawRing{kNeverCycle, kNeverCycle, kNeverCycle,
                                 kNeverCycle}; //!< last four ACT cycles
    int fawIdx = 0;                       //!< ring cursor (oldest entry)
    Cycle rdReadyS = 0;
    std::vector<Cycle> rdReadyL;          //!< tCCD_L per bank group
    Cycle wrReadyS = 0;
    std::vector<Cycle> wrReadyL;
    Cycle refBlockUntil = 0;              //!< end of tRFC window
};

/**
 * Timing model for one channel: per-bank, per-rank, and shared-bus
 * constraints. Flat bank indexing: rank * banksPerRank + bank.
 */
class ChannelTimingModel
{
  public:
    ChannelTimingModel(const Geometry &geom, const TimingParams &tp);

    const TimingCycles &cycles() const { return tc; }
    const Geometry &geometry() const { return geom; }

    // --- queries -----------------------------------------------------
    //
    // The earliest-command queries read struct-of-arrays horizons
    // (resolvedAct/Pre/Rd/Wr below, flat-indexed by bankIndex) that are
    // rebuilt in one pass over all banks the first time a query runs
    // after a mutation. The controller's wake scan and scheduling scans
    // query every bank with queued work per tick, so one batch rebuild
    // per issued command replaces many per-query max-chains.

    // Inline: the scheduler's queue walks read the open row once per
    // visited request, so this is the most-called query in the model.
    RowId
    openRow(int rank, BankId bank) const
    {
        return openRowAt(static_cast<std::size_t>(bankIndex(rank, bank)));
    }
    bool
    bankClosed(int rank, BankId bank) const
    {
        return openRow(rank, bank) == kNoRow;
    }

    /** Flat horizon-array index of (rank, bank). */
    int bankIndex(int rank, BankId bank) const
    {
        return rank * geom.banksPerRank() + static_cast<int>(bank);
    }

    /** Earliest cycle an ACT to (rank, bank) may issue. */
    Cycle earliestAct(int rank, BankId bank) const
    {
        return earliestActAt(static_cast<std::size_t>(bankIndex(rank, bank)));
    }
    /** Earliest cycle a PRE to (rank, bank) may issue. */
    Cycle earliestPre(int rank, BankId bank) const
    {
        return earliestPreAt(static_cast<std::size_t>(bankIndex(rank, bank)));
    }
    /** Earliest RD issue cycle (bank must be open; data bus checked). */
    Cycle earliestRd(int rank, BankId bank) const
    {
        return earliestRdAt(static_cast<std::size_t>(bankIndex(rank, bank)));
    }
    /** Earliest WR issue cycle. */
    Cycle earliestWr(int rank, BankId bank) const
    {
        return earliestWrAt(static_cast<std::size_t>(bankIndex(rank, bank)));
    }

    // Flat-index forms of the queries above, for callers that already
    // hold a bankIndex() (the controller's per-bank scheduling scans):
    // no rank * banksPerRank multiply per query.
    RowId openRowAt(std::size_t idx) const { return banks[idx].openRow; }
    Cycle earliestActAt(std::size_t idx) const
    {
        if (resolvedDirty)
            rebuildResolved();
        return resolvedAct[idx];
    }
    Cycle earliestPreAt(std::size_t idx) const
    {
        if (resolvedDirty)
            rebuildResolved();
        return resolvedPre[idx];
    }
    Cycle earliestRdAt(std::size_t idx) const
    {
        if (resolvedDirty)
            rebuildResolved();
        return resolvedRd[idx];
    }
    Cycle earliestWrAt(std::size_t idx) const
    {
        if (resolvedDirty)
            rebuildResolved();
        return resolvedWr[idx];
    }
    /** Earliest all-bank REF for the rank (all banks must be closed). */
    Cycle earliestRef(int rank) const;
    /**
     * Earliest first-ACT cycle of a HiRA sequence on (rank, bank): the
     * nominal ACT constraints plus room for the second ACT in the tFAW
     * window.
     */
    Cycle earliestHira(int rank, BankId bank) const
    {
        if (resolvedDirty)
            rebuildResolved();
        return resolvedHira[static_cast<std::size_t>(bankIndex(rank, bank))];
    }

    /**
     * Earliest cycle the bank's next row command could legally issue:
     * an ACT when the bank is closed, a PRE when a row is open. This is
     * the bank's scheduling horizon for the event-driven engine
     * (src/sim/system.cc): until this cycle, no controller decision on
     * the bank can change, so a quiescent controller may sleep to the
     * minimum of these horizons without diverging from per-cycle
     * polling.
     */
    Cycle earliestBankCommand(int rank, BankId bank) const
    {
        if (resolvedDirty)
            rebuildResolved();
        return resolvedBankCmd[static_cast<std::size_t>(
            bankIndex(rank, bank))];
    }

    // --- mutations ---------------------------------------------------

    void issueAct(int rank, BankId bank, RowId row, Cycle now);
    void issuePre(int rank, BankId bank, Cycle now);
    /** @return cycle at which read data has fully returned. */
    Cycle issueRd(int rank, BankId bank, Cycle now);
    Cycle issueWr(int rank, BankId bank, Cycle now);
    void issueRef(int rank, Cycle now);
    /**
     * Issue a full HiRA sequence starting at @p now: ACT(refresh_row),
     * +t1 PRE, +t2 ACT(second_row). Afterwards the bank behaves exactly
     * as if second_row had been activated at now + t1 + t2.
     * @return issue cycle of the second ACT.
     */
    Cycle issueHira(int rank, BankId bank, RowId refresh_row,
                    RowId second_row, Cycle now);

    /** Data-bus cycles the channel has transferred (utilization stat). */
    Cycle dataBusBusyCycles() const { return dataBusBusy; }

  private:
    BankState &bankRef(int rank, BankId bank);
    const BankState &bankRef(int rank, BankId bank) const;

    Cycle fawConstraint(const RankState &r, int slots_needed) const;
    void recordAct(int rank, BankId bank, Cycle now);
    void rebuildResolved() const;

    Geometry geom;
    TimingCycles tc;
    std::vector<BankState> banks;
    std::vector<RankState> ranks;

    // Resolved earliest-command horizons, flat parallel arrays indexed
    // by bankIndex(). Derived state only: rebuilt from banks/ranks/bus
    // on the first query after any mutation (resolvedDirty), so the
    // rebuild runs at most once per issued command.
    mutable std::vector<Cycle> resolvedAct, resolvedPre;
    mutable std::vector<Cycle> resolvedRd, resolvedWr;
    mutable std::vector<Cycle> resolvedHira, resolvedBankCmd;
    mutable bool resolvedDirty = true;

    // Shared data bus.
    Cycle dataBusFree = 0;
    int dataBusLastRank = -1;
    Cycle dataBusBusy = 0;
};

} // namespace hira

#endif // HIRA_DRAM_TIMING_STATE_HH
