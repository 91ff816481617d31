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
#include "dram/bank_bits.hh"
#include "dram/command.hh"
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
    /**
     * The refresh window as 8192 tREFI intervals (64 ms for DDR4),
     * which is when HiRA-MC's RefPtr table and Graphene-TRR's trackers
     * reset. Not tp.tREFW converted: 8192 x 7.8 us is 63.9 ms, 13
     * tREFI short of 64 ms.
     */
    Cycle refw;
    Cycle c1, c2; //!< HiRA t1, t2

    explicit TimingCycles(const TimingParams &tp);
    TimingCycles() = default;

    /** Bus cycles a full HiRA sequence spans (first ACT to second ACT). */
    Cycle hiraSpan() const { return c1 + c2; }
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
 * max and min that compile to no branch: the bank-mask queries apply
 * them to bank state no branch predictor can guess.
 */
inline Cycle
maxNoBranch(Cycle a, Cycle b)
{
    return a ^ ((a ^ b) & (Cycle(0) - static_cast<Cycle>(a < b)));
}
inline Cycle
minNoBranch(Cycle a, Cycle b)
{
    return b ^ ((a ^ b) & (Cycle(0) - static_cast<Cycle>(a < b)));
}

/**
 * One mask word of candidate banks per bank command kind (bit i: bank
 * 64w + i of word w), the argument of ChannelTimingModel's bank-mask
 * queries. A bank is a candidate for at most one kind.
 */
struct CommandWords
{
    std::uint64_t act = 0;
    std::uint64_t pre = 0;
    std::uint64_t rd = 0;
    std::uint64_t wr = 0;

    std::uint64_t any() const { return act | pre | rd | wr; }
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
    // Each earliest-command query, scalar or bank-mask, is one max: the
    // bank's own ready cycle for the kind and its (rank, bank group)'s
    // bound for the kind, groupBound, found through a table the
    // constructor builds (no division). groupBound folds the rank terms
    // (tRRD_S, tFAW, tCCD_S, tWTR_S, the tRFC window), the group's
    // tRRD_L / tCCD_L / tWTR_L and, for RD / WR, the shared data bus;
    // it is the model's only derived state. Each mutation re-derives it
    // for what it touched: the rank's groups, and for a column command
    // every group's RD / WR bound (the data bus is shared), so an
    // issued command costs O(groups) bookkeeping. The bound table is
    // pinned by dram_test_timing_property's digests, by the
    // TimingChecker audits of the controller's command streams and by
    // the command-stream goldens.

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
    RowId openRow(std::size_t idx) const { return openRows[idx]; }
    /** The banks with an open row. */
    const BankBits &openBanks() const { return openBits; }

    /** Earliest cycle an ACT to the bank may issue. */
    Cycle earliestAct(std::size_t idx) const { return earliestOf(kAct, idx); }
    /** Earliest cycle a PRE to the bank may issue. */
    Cycle earliestPre(std::size_t idx) const { return earliestOf(kPre, idx); }
    /** Earliest RD issue cycle (bank must be open; data bus checked). */
    Cycle earliestRd(std::size_t idx) const { return earliestOf(kRd, idx); }
    /** Earliest WR issue cycle (bank must be open; data bus checked). */
    Cycle earliestWr(std::size_t idx) const { return earliestOf(kWr, idx); }

    // --- bank-mask queries -------------------------------------------
    //
    // The scheduler's view of the same four queries: a whole word of
    // BankBits masks at once (word @p w holds banks 64w .. 64w + 63),
    // one candidate mask per command kind (CommandWords), each bank
    // answered by the same expression as the scalar query of its kind.

    /**
     * The banks of word @p w that may issue, at @p now, the command they
     * are a candidate for: bit i is set when bit i of cand.k is set and
     * earliest<k>(64w + i) <= now. The kinds' words must be disjoint.
     * Per candidate it compares max(bank-local ready cycle, the bound of
     * its (rank, group) for the kind) with @p now, without branches.
     */
    std::uint64_t readyMask(Cycle now, std::size_t w,
                            const CommandWords &cand) const;
    /**
     * The least earliest<k>(idx) over every kind k and every bank idx
     * of word @p w in cand.k; kNeverCycle when no bank is a candidate.
     * The kinds' words must be disjoint. Per candidate, one max and one
     * min, without branches.
     */
    Cycle earliest(std::size_t w, const CommandWords &cand) const;

    /** Earliest all-bank REF for the rank (all banks must be closed). */
    Cycle earliestRef(int rank) const;
    /**
     * Earliest first-ACT cycle of a HiRA sequence on the bank: the
     * nominal ACT constraints plus room for the second ACT in the tFAW
     * window (computed when asked; it binds only when t1 + t2 <
     * tFAW - 3 tRRD_S, which neither shipped standard reaches).
     */
    Cycle earliestHira(std::size_t idx) const;

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
        return openRows[idx] == kNoRow ? earliestAct(idx)
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
    /** Kinds of bank-local ready cycle, the index of readyOf. */
    enum Kind : std::size_t
    {
        kAct,
        kPre,
        kRd,
        kWr
    };
    Cycle readyOf(Kind k, std::size_t idx) const
    {
        return ready[k * nbanks + idx];
    }
    /**
     * earliest<k>(idx): max(the bank's kind-@p k ready cycle, its
     * (rank, group)'s kind-@p k bound), without branches.
     */
    Cycle earliestOf(std::size_t k, std::size_t idx) const
    {
        return maxNoBranch(ready[k * nbanks + idx],
                           groupBound[k * ngroups + bankGroup[idx]]);
    }
    /** Raise the bank's @p k ready cycle to at least @p c. */
    void
    raise(Kind k, std::size_t idx, Cycle c)
    {
        Cycle &r = ready[k * nbanks + idx];
        r = std::max(r, c);
    }
    /**
     * The kind each candidate of @p cand is asked about, for bank bit
     * @p b (the kinds are disjoint).
     */
    static std::size_t
    kindOf(const CommandWords &cand, int b)
    {
        return ((cand.pre >> b) & 1) + 2 * ((cand.rd >> b) & 1) +
               3 * ((cand.wr >> b) & 1);
    }

    /**
     * First cycle the shared data bus is free for a burst from
     * @p rank: tRTRS is added on a rank switch.
     */
    Cycle busFreeFor(int rank) const
    {
        return dataBusLastRank >= 0 && dataBusLastRank != rank
                   ? dataBusFree + tc.rtrs
                   : dataBusFree;
    }

    /**
     * earliest<k>(idx) of the bank at bit @p b of word base / 64, k being
     * the kind @p cand asks it about.
     */
    Cycle
    candidateEarliest(const CommandWords &cand, std::size_t base,
                      int b) const
    {
        return earliestOf(kindOf(cand, b),
                          base + static_cast<std::size_t>(b));
    }
    /**
     * Re-derive groupBound of every kind for the groups of @p rank from
     * its RankState, group horizons and the data bus, after a mutation
     * of them; and the RD / WR bounds of every group (the data-bus term
     * is shared by all ranks) when @p bus_moved.
     */
    void refreshBounds(int rank, bool bus_moved);

    Cycle fawConstraint(const RankState &r, int slots_needed) const;
    void recordAct(std::size_t idx, Cycle now);

    Geometry geom;
    TimingCycles tc;
    // Per-bank state, flat-indexed by bankIndex(): the open row (and
    // openBits, its mirror) and the bank-local earliest ACT (tRC / tRP /
    // tRFC), PRE (tRAS / tRTP / write recovery), RD and WR (tRCD), one
    // flat array per kind, kind-major in one vector: readyOf(k, idx).
    std::vector<RowId> openRows;
    std::size_t nbanks = 0;
    std::vector<Cycle> ready;
    BankBits openBits;
    std::vector<RankState> ranks;

    // Per-(rank, bank group) tRRD_L / tCCD_L horizons, flat-indexed by
    // rank * bankGroups + group.
    std::vector<Cycle> actReadyL, rdReadyL, wrReadyL;

    // Constructor-built lookup tables, flat-indexed by bankIndex(): the
    // bank's rank and its flat (rank, bank group) index. The only
    // flat index -> rank table of a channel; the controller and the
    // refresh schemes read it through rankOf().
    std::vector<int> bankRank;
    std::vector<std::size_t> bankGroup;
    // groupBound[k * ngroups + g]: the kind-k bound shared by the banks
    // of flat (rank, group) g, i.e. earliest<k>(idx) = max(ready cycle,
    // groupBound) for each bank idx of g. Kinds as in readyOf.
    std::size_t ngroups = 0;
    std::vector<Cycle> groupBound;

    // Shared data bus.
    Cycle dataBusFree = 0;
    int dataBusLastRank = -1;
    Cycle dataBusBusy = 0;
};

// The bank-mask queries are inline so that the kinds a caller never
// asks about (CommandWords fields it leaves 0) compile away.

inline __attribute__((always_inline)) std::uint64_t
ChannelTimingModel::readyMask(Cycle now, std::size_t w,
                              const CommandWords &cand) const
{
    const std::size_t base = w * 64;
    std::uint64_t ok = 0;
    for (std::uint64_t m = cand.any(); m != 0; m &= m - 1) {
        const int b = __builtin_ctzll(m);
        ok |= static_cast<std::uint64_t>(candidateEarliest(cand, base, b) <=
                                         now)
              << b;
    }
    return ok;
}

inline __attribute__((always_inline)) Cycle
ChannelTimingModel::earliest(std::size_t w, const CommandWords &cand) const
{
    const std::size_t base = w * 64;
    Cycle best = kNeverCycle;
    for (std::uint64_t m = cand.any(); m != 0; m &= m - 1)
        best = minNoBranch(best,
                           candidateEarliest(cand, base, __builtin_ctzll(m)));
    return best;
}

} // namespace hira

#endif // HIRA_DRAM_TIMING_STATE_HH
