#include "dram/timing_state.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hira {

TimingCycles::TimingCycles(const TimingParams &tp)
{
    rcd = tp.cycles(tp.tRCD);
    rp = tp.cycles(tp.tRP);
    ras = tp.cycles(tp.tRAS);
    rc = tp.cycles(tp.tRC);
    rrdS = tp.cycles(tp.tRRD_S);
    rrdL = tp.cycles(tp.tRRD_L);
    faw = tp.cycles(tp.tFAW);
    cl = tp.cycles(tp.tCL);
    cwl = tp.cycles(tp.tCWL);
    bl = tp.cycles(tp.tBL);
    ccdS = tp.cycles(tp.tCCD_S);
    ccdL = tp.cycles(tp.tCCD_L);
    rtp = tp.cycles(tp.tRTP);
    wr = tp.cycles(tp.tWR);
    wtrS = tp.cycles(tp.tWTR_S);
    wtrL = tp.cycles(tp.tWTR_L);
    rtrs = tp.cycles(tp.tRTRS);
    refi = tp.cycles(tp.tREFI);
    rfc = tp.cycles(tp.tRFC);
    c1 = tp.cycles(tp.t1);
    c2 = tp.cycles(tp.t2);
}

ChannelTimingModel::ChannelTimingModel(const Geometry &g,
                                       const TimingParams &tp)
    : geom(g), tc(tp)
{
    banks.resize(static_cast<std::size_t>(geom.ranksPerChannel) *
                 static_cast<std::size_t>(geom.banksPerRank()));
    ranks.resize(static_cast<std::size_t>(geom.ranksPerChannel));
    for (auto &r : ranks) {
        r.actReadyL.assign(static_cast<std::size_t>(geom.bankGroups), 0);
        r.rdReadyL.assign(static_cast<std::size_t>(geom.bankGroups), 0);
        r.wrReadyL.assign(static_cast<std::size_t>(geom.bankGroups), 0);
    }
    resolvedAct.resize(banks.size());
    resolvedPre.resize(banks.size());
    resolvedRd.resize(banks.size());
    resolvedWr.resize(banks.size());
    resolvedHira.resize(banks.size());
    resolvedBankCmd.resize(banks.size());
}

BankState &
ChannelTimingModel::bankRef(int rank, BankId bank)
{
    return banks[static_cast<std::size_t>(rank) *
                     static_cast<std::size_t>(geom.banksPerRank()) +
                 bank];
}

const BankState &
ChannelTimingModel::bankRef(int rank, BankId bank) const
{
    return banks[static_cast<std::size_t>(rank) *
                     static_cast<std::size_t>(geom.banksPerRank()) +
                 bank];
}

Cycle
ChannelTimingModel::fawConstraint(const RankState &r, int slots_needed) const
{
    // fawRing holds the last four ACT cycles; fawIdx points at the oldest.
    // An ACT at t requires t >= oldest + tFAW (so at most 4 ACTs fall in
    // any tFAW window). A HiRA op needs two slots: its second ACT, at
    // t + hiraSpan, must clear the *second*-oldest entry.
    hira_assert(slots_needed == 1 || slots_needed == 2);
    Cycle oldest = r.fawRing[static_cast<std::size_t>(r.fawIdx)];
    Cycle bound = oldest == kNeverCycle ? 0 : oldest + tc.faw;
    if (slots_needed == 2) {
        Cycle second = r.fawRing[static_cast<std::size_t>((r.fawIdx + 1) % 4)];
        if (second != kNeverCycle) {
            Cycle span = tc.hiraSpan();
            Cycle b2 = second + tc.faw;
            bound = std::max(bound, b2 > span ? b2 - span : 0);
        }
    }
    return bound;
}

void
ChannelTimingModel::recordAct(int rank, BankId bank, Cycle now)
{
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    int group = geom.bankGroupOf(bank);
    r.actReadyS = std::max(r.actReadyS, now + tc.rrdS);
    r.actReadyL[static_cast<std::size_t>(group)] =
        std::max(r.actReadyL[static_cast<std::size_t>(group)], now + tc.rrdL);
    r.fawRing[static_cast<std::size_t>(r.fawIdx)] = now;
    r.fawIdx = (r.fawIdx + 1) % 4;
}

void
ChannelTimingModel::rebuildResolved() const
{
    // One flat pass refreshing every bank's resolved horizons. Values
    // are identical to the retired per-query max-chains; hoisting the
    // rank-common terms out of the bank loop is what makes the pass
    // cheap enough to run after every issued command.
    const int bpr = geom.banksPerRank();
    for (int rank = 0; rank < geom.ranksPerChannel; ++rank) {
        const RankState &r = ranks[static_cast<std::size_t>(rank)];
        Cycle act_rank = std::max(r.actReadyS, r.refBlockUntil);
        act_rank = std::max(act_rank, fawConstraint(r, 1));
        Cycle faw2 = fawConstraint(r, 2);
        Cycle bus_free = dataBusFree;
        if (dataBusLastRank >= 0 && dataBusLastRank != rank)
            bus_free += tc.rtrs;
        Cycle rd_rank = std::max(r.rdReadyS, r.refBlockUntil);
        Cycle wr_rank = std::max(r.wrReadyS, r.refBlockUntil);
        std::size_t base = static_cast<std::size_t>(rank) *
                           static_cast<std::size_t>(bpr);
        for (int bank = 0; bank < bpr; ++bank) {
            std::size_t i = base + static_cast<std::size_t>(bank);
            const BankState &b = banks[i];
            std::size_t group = static_cast<std::size_t>(
                geom.bankGroupOf(static_cast<BankId>(bank)));

            Cycle act = std::max(b.actReady, act_rank);
            act = std::max(act, r.actReadyL[group]);
            resolvedAct[i] = act;
            resolvedHira[i] = std::max(act, faw2);

            Cycle pre = std::max(b.preReady, r.refBlockUntil);
            resolvedPre[i] = pre;
            resolvedBankCmd[i] = b.openRow == kNoRow ? act : pre;

            Cycle rd = std::max(b.rdReady, rd_rank);
            rd = std::max(rd, r.rdReadyL[group]);
            // Data bus: burst starts at rd + CL; honor rank switch
            // turnaround.
            if (bus_free > rd + tc.cl)
                rd = bus_free - tc.cl;
            resolvedRd[i] = rd;

            Cycle wr = std::max(b.wrReady, wr_rank);
            wr = std::max(wr, r.wrReadyL[group]);
            if (bus_free > wr + tc.cwl)
                wr = bus_free - tc.cwl;
            resolvedWr[i] = wr;
        }
    }
    resolvedDirty = false;
}

Cycle
ChannelTimingModel::earliestRef(int rank) const
{
    const RankState &r = ranks[static_cast<std::size_t>(rank)];
    Cycle t = r.refBlockUntil;
    for (BankId b = 0; b < static_cast<BankId>(geom.banksPerRank()); ++b) {
        const BankState &bs = bankRef(rank, b);
        hira_assert(bs.openRow == kNoRow); // caller precharges first
        t = std::max(t, bs.actReady);      // tRP after the last PRE
    }
    return t;
}

void
ChannelTimingModel::issueAct(int rank, BankId bank, RowId row, Cycle now)
{
    BankState &b = bankRef(rank, bank);
    hira_assert(b.openRow == kNoRow);
    hira_assert(now >= earliestAct(rank, bank));
    b.openRow = row;
    b.rdReady = std::max(b.rdReady, now + tc.rcd);
    b.wrReady = std::max(b.wrReady, now + tc.rcd);
    b.preReady = std::max(b.preReady, now + tc.ras);
    b.actReady = std::max(b.actReady, now + tc.rc);
    recordAct(rank, bank, now);
    resolvedDirty = true;
}

void
ChannelTimingModel::issuePre(int rank, BankId bank, Cycle now)
{
    BankState &b = bankRef(rank, bank);
    hira_assert(now >= earliestPre(rank, bank));
    b.openRow = kNoRow;
    b.actReady = std::max(b.actReady, now + tc.rp);
    resolvedDirty = true;
}

Cycle
ChannelTimingModel::issueRd(int rank, BankId bank, Cycle now)
{
    BankState &b = bankRef(rank, bank);
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    int group = geom.bankGroupOf(bank);
    hira_assert(b.openRow != kNoRow);
    hira_assert(now >= earliestRd(rank, bank));
    b.preReady = std::max(b.preReady, now + tc.rtp);
    r.rdReadyS = std::max(r.rdReadyS, now + tc.ccdS);
    r.rdReadyL[static_cast<std::size_t>(group)] =
        std::max(r.rdReadyL[static_cast<std::size_t>(group)],
                 now + tc.ccdL);
    // Read-to-write turnaround: WR data may start after the read burst
    // plus one bus turnaround slot.
    Cycle rd_end = now + tc.cl + tc.bl;
    Cycle wr_ok = rd_end + 1 > tc.cwl ? rd_end + 1 - tc.cwl : 0;
    r.wrReadyS = std::max(r.wrReadyS, wr_ok);
    dataBusFree = rd_end;
    dataBusLastRank = rank;
    dataBusBusy += tc.bl;
    resolvedDirty = true;
    return rd_end;
}

Cycle
ChannelTimingModel::issueWr(int rank, BankId bank, Cycle now)
{
    BankState &b = bankRef(rank, bank);
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    int group = geom.bankGroupOf(bank);
    hira_assert(b.openRow != kNoRow);
    hira_assert(now >= earliestWr(rank, bank));
    Cycle wr_end = now + tc.cwl + tc.bl;
    b.preReady = std::max(b.preReady, wr_end + tc.wr);
    r.wrReadyS = std::max(r.wrReadyS, now + tc.ccdS);
    r.wrReadyL[static_cast<std::size_t>(group)] =
        std::max(r.wrReadyL[static_cast<std::size_t>(group)],
                 now + tc.ccdL);
    // Write-to-read turnaround (tWTR counted from end of write burst).
    r.rdReadyS = std::max(r.rdReadyS, wr_end + tc.wtrS);
    for (auto &rl : r.rdReadyL)
        rl = std::max(rl, wr_end + tc.wtrS);
    r.rdReadyL[static_cast<std::size_t>(group)] =
        std::max(r.rdReadyL[static_cast<std::size_t>(group)],
                 wr_end + tc.wtrL);
    dataBusFree = wr_end;
    dataBusLastRank = rank;
    dataBusBusy += tc.bl;
    resolvedDirty = true;
    return wr_end;
}

void
ChannelTimingModel::issueRef(int rank, Cycle now)
{
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    hira_assert(now >= earliestRef(rank));
    r.refBlockUntil = now + tc.rfc;
    for (BankId b = 0; b < static_cast<BankId>(geom.banksPerRank()); ++b) {
        BankState &bs = bankRef(rank, b);
        bs.actReady = std::max(bs.actReady, now + tc.rfc);
    }
    resolvedDirty = true;
}

Cycle
ChannelTimingModel::issueHira(int rank, BankId bank, RowId refresh_row,
                              RowId second_row, Cycle now)
{
    BankState &b = bankRef(rank, bank);
    hira_assert(b.openRow == kNoRow);
    hira_assert(now >= earliestHira(rank, bank));
    (void)refresh_row;

    // First ACT: opens the refresh target; its restoration completes in
    // the shadow of the rest of the sequence (Section 3).
    recordAct(rank, bank, now);

    // Inner PRE at now + c1 and second ACT at now + c1 + c2 deliberately
    // violate tRAS / tRP; the second ACT is a nominal activation for all
    // downstream purposes.
    Cycle second = now + tc.hiraSpan();
    b.openRow = second_row;
    b.rdReady = std::max(b.rdReady, second + tc.rcd);
    b.wrReady = std::max(b.wrReady, second + tc.rcd);
    b.preReady = std::max(b.preReady, second + tc.ras);
    b.actReady = std::max(b.actReady, second + tc.rc);
    recordAct(rank, bank, second);
    resolvedDirty = true;
    return second;
}

} // namespace hira
