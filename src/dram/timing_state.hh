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

#include <algorithm>
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

/**
 * Per-rank timing state. The bank-group terms (tRRD_L, tCCD_L) live in
 * ChannelTimingModel's flat per-(rank, group) arrays.
 */
struct RankState
{
    Cycle actReadyS = 0;                  //!< tRRD_S from last ACT
    std::array<Cycle, 4> fawRing{kNeverCycle, kNeverCycle, kNeverCycle,
                                 kNeverCycle}; //!< last four ACT cycles
    int fawIdx = 0;                       //!< ring cursor (oldest entry)
    Cycle rdReadyS = 0;
    Cycle wrReadyS = 0;
    Cycle refBlockUntil = 0;              //!< end of tRFC window
};

/**
 * The rank-common part of every earliest-command query, derived from
 * one RankState. Each mutation refreshes the terms of the rank it
 * touched (O(1)), so a query is a few max operations over the bank's
 * own state, these terms and its group's tRRD_L / tCCD_L entry.
 */
struct RankTerms
{
    Cycle act = 0;      //!< max(tRRD_S, refBlockUntil, tFAW one slot)
    Cycle faw2 = 0;     //!< tFAW bound of a two-ACT HiRA sequence
    Cycle rd = 0;       //!< max(rdReadyS, refBlockUntil)
    Cycle wr = 0;       //!< max(wrReadyS, refBlockUntil)
    Cycle refBlock = 0; //!< refBlockUntil
};

/**
 * Timing model for one channel: per-bank, per-rank, and shared-bus
 * constraints. A bank is addressed by its flat index within the
 * channel, rank * banksPerRank + bank (bankIndex()); only the
 * rank-level REF takes a rank.
 */
class ChannelTimingModel
{
  public:
    ChannelTimingModel(const Geometry &geom, const TimingParams &tp);

    const TimingCycles &cycles() const { return tc; }
    const Geometry &geometry() const { return geom; }

    // --- queries -----------------------------------------------------
    //
    // Every per-bank query and command takes the bank's flat index.
    // Each earliest-command query is computed when it is asked: the
    // bank's own BankState, its rank's RankTerms and its bank group's
    // tRRD_L / tCCD_L entry, found through tables the constructor
    // builds (no division), plus the shared data-bus term for column
    // commands. Nothing is cached across mutations, so an issued
    // command costs O(1) bookkeeping on the rank it touched and a
    // column command on one rank touches no other rank's state.

    /** Flat bank index of (rank, bank): rank * banksPerRank + bank. */
    std::size_t bankIndex(int rank, BankId bank) const
    {
        return static_cast<std::size_t>(rank) *
                   static_cast<std::size_t>(geom.banksPerRank()) +
               bank;
    }
    /** Rank of a flat bank index. */
    int rankOf(std::size_t idx) const { return bankRank[idx]; }
    /** Bank within its rank of a flat bank index. */
    BankId bankOf(std::size_t idx) const
    {
        return static_cast<BankId>(idx - bankIndex(bankRank[idx], 0));
    }

    // Inline: the scheduler's queue walks read the open row once per
    // visited request, so this is the most-called query in the model.
    RowId openRow(std::size_t idx) const { return banks[idx].openRow; }
    bool bankClosed(std::size_t idx) const { return openRow(idx) == kNoRow; }

    /** Earliest cycle an ACT to the bank may issue. */
    Cycle earliestAct(std::size_t idx) const
    {
        return std::max({banks[idx].actReady, termsOf(idx).act,
                         actReadyL[bankGroup[idx]]});
    }
    /** Earliest cycle a PRE to the bank may issue. */
    Cycle earliestPre(std::size_t idx) const
    {
        return std::max(banks[idx].preReady, termsOf(idx).refBlock);
    }
    /** Earliest RD issue cycle (bank must be open; data bus checked). */
    Cycle earliestRd(std::size_t idx) const
    {
        Cycle rd = std::max({banks[idx].rdReady, termsOf(idx).rd,
                             rdReadyL[bankGroup[idx]]});
        // Data bus: burst starts at rd + CL.
        Cycle bus_free = busFreeFor(idx);
        return bus_free > rd + tc.cl ? bus_free - tc.cl : rd;
    }
    /** Earliest WR issue cycle. */
    Cycle earliestWr(std::size_t idx) const
    {
        Cycle wr = std::max({banks[idx].wrReady, termsOf(idx).wr,
                             wrReadyL[bankGroup[idx]]});
        Cycle bus_free = busFreeFor(idx);
        return bus_free > wr + tc.cwl ? bus_free - tc.cwl : wr;
    }
    /** Earliest all-bank REF for the rank (all banks must be closed). */
    Cycle earliestRef(int rank) const;
    /**
     * Earliest first-ACT cycle of a HiRA sequence on the bank: the
     * nominal ACT constraints plus room for the second ACT in the tFAW
     * window.
     */
    Cycle earliestHira(std::size_t idx) const
    {
        return std::max(earliestAct(idx), termsOf(idx).faw2);
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
    Cycle earliestBankCommand(std::size_t idx) const
    {
        return banks[idx].openRow == kNoRow ? earliestAct(idx)
                                            : earliestPre(idx);
    }

    // --- mutations ---------------------------------------------------

    void issueAct(std::size_t idx, RowId row, Cycle now);
    void issuePre(std::size_t idx, Cycle now);
    /** @return cycle at which read data has fully returned. */
    Cycle issueRd(std::size_t idx, Cycle now);
    Cycle issueWr(std::size_t idx, Cycle now);
    void issueRef(int rank, Cycle now);
    /**
     * Issue a full HiRA sequence starting at @p now: ACT(refresh_row),
     * +t1 PRE, +t2 ACT(second_row). Afterwards the bank behaves exactly
     * as if second_row had been activated at now + t1 + t2.
     * @return issue cycle of the second ACT.
     */
    Cycle issueHira(std::size_t idx, RowId refresh_row, RowId second_row,
                    Cycle now);

    /** Data-bus cycles the channel has transferred (utilization stat). */
    Cycle dataBusBusyCycles() const { return dataBusBusy; }

  private:
    const RankTerms &termsOf(std::size_t idx) const
    {
        return terms[static_cast<std::size_t>(bankRank[idx])];
    }
    /**
     * First cycle the shared data bus is free for a burst from the
     * bank's rank: tRTRS is added on a rank switch.
     */
    Cycle busFreeFor(std::size_t idx) const
    {
        return dataBusLastRank >= 0 && dataBusLastRank != bankRank[idx]
                   ? dataBusFree + tc.rtrs
                   : dataBusFree;
    }

    Cycle fawConstraint(const RankState &r, int slots_needed) const;
    void recordAct(std::size_t idx, Cycle now);
    /** Re-derive terms[rank] after a mutation of ranks[rank]. */
    void refreshTerms(int rank);

    Geometry geom;
    TimingCycles tc;
    std::vector<BankState> banks;
    std::vector<RankState> ranks;
    std::vector<RankTerms> terms; //!< per rank, derived from ranks

    // Per-(rank, bank group) tRRD_L / tCCD_L horizons, flat-indexed by
    // rank * bankGroups + group.
    std::vector<Cycle> actReadyL, rdReadyL, wrReadyL;

    // Constructor-built lookup tables, flat-indexed by bankIndex(): the
    // bank's rank and its flat (rank, bank group) index. The only
    // flat index -> rank table of a channel; the controller and the
    // refresh schemes read it through rankOf().
    std::vector<int> bankRank;
    std::vector<std::size_t> bankGroup;

    // Shared data bus.
    Cycle dataBusFree = 0;
    int dataBusLastRank = -1;
    Cycle dataBusBusy = 0;
};

} // namespace hira

#endif // HIRA_DRAM_TIMING_STATE_HH
