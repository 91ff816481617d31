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
    refw = refi * 8192;
    rfc = tp.cycles(tp.tRFC);
    c1 = tp.cycles(tp.t1);
    c2 = tp.cycles(tp.t2);
    // A HiRA op reserves the command-bus slots at now + c1 and later,
    // never the slot it issues in (MemoryController::busFree relies on
    // it).
    hira_assert(c1 >= 1);
}

ChannelTimingModel::ChannelTimingModel(const Geometry &g,
                                       const TimingParams &tp)
    : geom(g), tc(tp)
{
    const std::size_t nranks =
        static_cast<std::size_t>(geom.ranksPerChannel);
    ngroups = nranks * static_cast<std::size_t>(geom.bankGroups);
    nbanks = nranks * static_cast<std::size_t>(geom.banksPerRank());
    openRows.assign(nbanks, kNoRow);
    ready.assign(4 * nbanks, 0);
    openBits.resize(nbanks);
    ranks.resize(nranks);
    actReadyL.assign(ngroups, 0);
    rdReadyL.assign(ngroups, 0);
    wrReadyL.assign(ngroups, 0);
    bankRank.reserve(nbanks);
    bankGroup.reserve(nbanks);
    for (int rank = 0; rank < geom.ranksPerChannel; ++rank) {
        for (BankId b = 0; b < static_cast<BankId>(geom.banksPerRank());
             ++b) {
            bankRank.push_back(rank);
            bankGroup.push_back(
                static_cast<std::size_t>(rank * geom.bankGroups +
                                         geom.bankGroupOf(b)));
        }
    }
    // A fresh rank, its groups and an idle bus bound nothing.
    groupBound.assign(4 * ngroups, 0);
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
        Cycle second = r.fawRing[static_cast<std::size_t>((r.fawIdx + 1) & 3)];
        if (second != kNeverCycle) {
            Cycle span = tc.hiraSpan();
            Cycle b2 = second + tc.faw;
            bound = std::max(bound, b2 > span ? b2 - span : 0);
        }
    }
    return bound;
}

void
ChannelTimingModel::refreshBounds(int rank, bool bus_moved)
{
    const std::size_t groups = static_cast<std::size_t>(geom.bankGroups);
    const int lo = bus_moved ? 0 : rank;
    const int hi = bus_moved ? geom.ranksPerChannel : rank + 1;
    for (int r = lo; r < hi; ++r) {
        const RankState &s = ranks[static_cast<std::size_t>(r)];
        // The data bus as a bound on a column command: its burst starts
        // lead (CL / CWL) cycles after it, so it may issue at bus_free -
        // lead, clamped at 0.
        const Cycle bus_free = busFreeFor(r);
        const Cycle rd = std::max({s.rdReadyS, s.refBlockUntil,
                                   bus_free > tc.cl ? bus_free - tc.cl : 0});
        const Cycle wr = std::max({s.wrReadyS, s.refBlockUntil,
                                   bus_free > tc.cwl ? bus_free - tc.cwl : 0});
        const Cycle act =
            r == rank ? std::max({s.actReadyS, s.refBlockUntil,
                                  fawConstraint(s, 1)})
                      : 0;
        const std::size_t first = static_cast<std::size_t>(r) * groups;
        for (std::size_t g = first; g < first + groups; ++g) {
            if (r == rank) {
                groupBound[kAct * ngroups + g] = std::max(act, actReadyL[g]);
                groupBound[kPre * ngroups + g] = s.refBlockUntil;
            }
            groupBound[kRd * ngroups + g] = std::max(rd, rdReadyL[g]);
            groupBound[kWr * ngroups + g] = std::max(wr, wrReadyL[g]);
        }
    }
}

void
ChannelTimingModel::recordAct(std::size_t idx, Cycle now)
{
    const int rank = bankRank[idx];
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    std::size_t group = bankGroup[idx];
    r.actReadyS = std::max(r.actReadyS, now + tc.rrdS);
    actReadyL[group] = std::max(actReadyL[group], now + tc.rrdL);
    r.fawRing[static_cast<std::size_t>(r.fawIdx)] = now;
    r.fawIdx = r.fawIdx == 3 ? 0 : r.fawIdx + 1;
    refreshBounds(rank, false);
}

Cycle
ChannelTimingModel::earliestRef(int rank) const
{
    const RankState &r = ranks[static_cast<std::size_t>(rank)];
    Cycle t = r.refBlockUntil;
    const std::size_t first = bankIndex(rank, 0);
    const std::size_t end = first + geom.banksPerRank();
    for (std::size_t idx = first; idx < end; ++idx) {
        hira_assert(openRows[idx] == kNoRow); // caller precharges first
        t = std::max(t, readyOf(kAct, idx)); // tRP after the last PRE
    }
    return t;
}

Cycle
ChannelTimingModel::earliestHira(std::size_t idx) const
{
    const RankState &r = ranks[static_cast<std::size_t>(bankRank[idx])];
    return std::max(earliestAct(idx), fawConstraint(r, 2));
}

void
ChannelTimingModel::issueAct(std::size_t idx, RowId row, Cycle now)
{
    hira_assert(openRows[idx] == kNoRow);
    hira_assert(now >= earliestAct(idx));
    openRows[idx] = row;
    openBits.assign(idx, true);
    raise(kRd, idx, now + tc.rcd);
    raise(kWr, idx, now + tc.rcd);
    raise(kPre, idx, now + tc.ras);
    raise(kAct, idx, now + tc.rc);
    recordAct(idx, now);
}

void
ChannelTimingModel::issuePre(std::size_t idx, Cycle now)
{
    hira_assert(now >= earliestPre(idx));
    openRows[idx] = kNoRow;
    openBits.assign(idx, false);
    raise(kAct, idx, now + tc.rp);
}

Cycle
ChannelTimingModel::issueRd(std::size_t idx, Cycle now)
{
    const int rank = bankRank[idx];
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    std::size_t group = bankGroup[idx];
    hira_assert(openRows[idx] != kNoRow);
    hira_assert(now >= earliestRd(idx));
    raise(kPre, idx, now + tc.rtp);
    r.rdReadyS = std::max(r.rdReadyS, now + tc.ccdS);
    rdReadyL[group] = std::max(rdReadyL[group], now + tc.ccdL);
    // Read-to-write turnaround: WR data may start after the read burst
    // plus one bus turnaround slot.
    Cycle rd_end = now + tc.cl + tc.bl;
    Cycle wr_ok = rd_end + 1 > tc.cwl ? rd_end + 1 - tc.cwl : 0;
    r.wrReadyS = std::max(r.wrReadyS, wr_ok);
    dataBusFree = rd_end;
    dataBusLastRank = rank;
    dataBusBusy += tc.bl;
    refreshBounds(rank, true);
    return rd_end;
}

Cycle
ChannelTimingModel::issueWr(std::size_t idx, Cycle now)
{
    const int rank = bankRank[idx];
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    std::size_t group = bankGroup[idx];
    hira_assert(openRows[idx] != kNoRow);
    hira_assert(now >= earliestWr(idx));
    Cycle wr_end = now + tc.cwl + tc.bl;
    raise(kPre, idx, wr_end + tc.wr);
    r.wrReadyS = std::max(r.wrReadyS, now + tc.ccdS);
    wrReadyL[group] = std::max(wrReadyL[group], now + tc.ccdL);
    // Write-to-read turnaround (tWTR counted from end of write burst):
    // tWTR_S holds every group of the rank through rdReadyS, which
    // every RD query reads, and tWTR_L adds to this group alone.
    r.rdReadyS = std::max(r.rdReadyS, wr_end + tc.wtrS);
    rdReadyL[group] = std::max(rdReadyL[group], wr_end + tc.wtrL);
    dataBusFree = wr_end;
    dataBusLastRank = rank;
    dataBusBusy += tc.bl;
    refreshBounds(rank, true);
    return wr_end;
}

void
ChannelTimingModel::issueRef(int rank, Cycle now)
{
    RankState &r = ranks[static_cast<std::size_t>(rank)];
    hira_assert(now >= earliestRef(rank));
    r.refBlockUntil = now + tc.rfc;
    refreshBounds(rank, false);
    const std::size_t first = bankIndex(rank, 0);
    const std::size_t end = first + geom.banksPerRank();
    for (std::size_t idx = first; idx < end; ++idx)
        raise(kAct, idx, now + tc.rfc);
}

Cycle
ChannelTimingModel::issueHira(std::size_t idx, RowId refresh_row,
                              RowId second_row, Cycle now)
{
    hira_assert(openRows[idx] == kNoRow);
    hira_assert(now >= earliestHira(idx));
    (void)refresh_row;

    // First ACT: opens the refresh target; its restoration completes in
    // the shadow of the rest of the sequence (Section 3).
    recordAct(idx, now);

    // Inner PRE at now + c1 and second ACT at now + c1 + c2 deliberately
    // violate tRAS / tRP; the second ACT is a nominal activation for all
    // downstream purposes.
    Cycle second = now + tc.hiraSpan();
    openRows[idx] = second_row;
    openBits.assign(idx, true);
    raise(kRd, idx, second + tc.rcd);
    raise(kWr, idx, second + tc.rcd);
    raise(kPre, idx, second + tc.ras);
    raise(kAct, idx, second + tc.rc);
    recordAct(idx, second);
    return second;
}

} // namespace hira
