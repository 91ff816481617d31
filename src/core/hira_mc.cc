#include "core/hira_mc.hh"

#include <cmath>

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

namespace {

/** Case-2 urgency margin in units of tRC (paper: 1). */
constexpr Cycle kDeadlineMarginRc = 1;

} // namespace

HiraMc::HiraMc(const HiraMcConfig &config)
    : cfg(config), sampler(config.preventive)
{
    hira_assert(cfg.slackN >= 0);
}

void
HiraMc::attach(MemoryController *controller, const MetricScope &scope)
{
    BaselineRefresh::attach(controller, scope);
    const Geometry &geom = controller->geometry();
    const TimingCycles &tcy = controller->tc();

    spt_ = std::make_unique<SubarrayPairsTable>(geom, cfg.sptIsolation,
                                                cfg.seed);
    slackCycles = static_cast<Cycle>(cfg.slackN) * tcy.rc;
    marginCycles = kDeadlineMarginRc * tcy.rc;
    windowCycles = tcy.refw;
    nextWindowReset = windowCycles;

    std::uint32_t groups_per_sub =
        geom.refreshGroupsPerBank / geom.subarraysPerBank;
    if (groups_per_sub == 0)
        groups_per_sub = 1;

    // §6 sizing: slack-bounded periodic entries per rank plus a full
    // PR-FIFO per bank (68 at tRefSlack = 4 tRC).
    tables.assign(static_cast<std::size_t>(geom.ranksPerChannel),
                  RefreshTable(
                      static_cast<std::size_t>(std::max(cfg.slackN, 4)) +
                      kPrFifoDepth *
                          static_cast<std::size_t>(geom.banksPerRank())));
    const int total_banks = geom.banksPerChannel();
    refptrs = std::make_unique<RefPtrTable>(
        total_banks, geom.subarraysPerBank, groups_per_sub);
    prFifoSize.assign(static_cast<std::size_t>(total_banks), 0);

    // Periodic generation: one row-refresh request per bank every
    // tREFW / refreshGroupsPerBank, staggered across the rank's banks
    // (Section 5.1.1's 60.9 ns example).
    genIntervalCycles =
        static_cast<double>(windowCycles) /
        static_cast<double>(geom.refreshGroupsPerBank);
    nextGen.assign(static_cast<std::size_t>(total_banks), 0.0);
    for (int i = 0; i < total_banks; ++i) {
        nextGen[static_cast<std::size_t>(i)] =
            genIntervalCycles * static_cast<double>(i + 1) /
            static_cast<double>(total_banks);
    }
    nextGenMinValid = false;

    // PR-FIFOs hold kPrFifoDepth = 4 entries; one extra bin keeps the
    // full-FIFO occupancy distinguishable from near-full.
    mPrFifoDepth = scope.histogram("pr_fifo_depth", 0.0, 5.0, 5);
    mRefptrResets = scope.counter("refptr_resets");
}

double
HiraMc::earliestGen() const
{
    if (!nextGenMinValid) {
        nextGenMin = nextGen.empty() ? 0.0 : nextGen[0];
        for (double g : nextGen) {
            if (g < nextGenMin)
                nextGenMin = g;
        }
        nextGenMinValid = true;
    }
    return nextGenMin;
}

void
HiraMc::generatePeriodic(Cycle now)
{
    // No bank's generation instant has passed: nothing to insert.
    if (static_cast<double>(now) < earliestGen())
        return;
    for (std::size_t bank = 0; bank < nextGen.size(); ++bank) {
        while (nextGen[bank] <= static_cast<double>(now)) {
            Cycle gen = static_cast<Cycle>(nextGen[bank]);
            tables[ctrl->rankOf(bank)].insert(gen + slackCycles, bank,
                                              RefreshType::Periodic);
            nextGen[bank] += genIntervalCycles;
            nextGenMinValid = false;
        }
    }
}

HiraMc::Target
HiraMc::targetFor(const RefreshEntry &e, SubarrayId pair_with) const
{
    Target t;
    if (e.type == RefreshType::Periodic) {
        RefPtrPick pick = refptrs->peek(e.bank, pair_with, *spt_);
        t.row = pick.row;
        t.subarray = pick.subarray;
        return t;
    }
    SubarrayId sub = spt_->subarrayOf(e.row);
    if (pair_with != kAnySubarray && !spt_->isolated(sub, pair_with))
        return t;
    t.row = e.row;
    t.subarray = sub;
    return t;
}

void
HiraMc::commit(const RefreshEntry &e, const Target &t, Cycle now)
{
    // A refresh is late when it completes more than the case-2 margin
    // past its deadline; sub-tRC scheduling latency (inevitable at
    // tRefSlack = 0, where the deadline equals the generation instant)
    // is not a retention hazard.
    if (now > e.deadline + marginCycles)
        ++stats_.deadlineMisses;
    if (e.type == RefreshType::Periodic) {
        refptrs->advance(e.bank, t.subarray);
    } else {
        --prFifoSize[e.bank];
    }
    ++stats_.rowRefreshes;
    bool removed = tables[ctrl->rankOf(e.bank)].remove(e.id);
    hira_assert(removed);
}

void
HiraMc::tick(Cycle now)
{
    if (now >= nextWindowReset) {
        refptrs->resetWindow();
        nextWindowReset += windowCycles;
        count(mRefptrResets);
    }

    if (cfg.periodicViaHira) {
        generatePeriodic(now);
    } else {
        BaselineRefresh::tick(now);
        if (!ctrl->busFree(now))
            return;
    }
    caseTwo(now);
}

Cycle
HiraMc::nextEventCycle(Cycle now) const
{
    // The refptr tREFW window reset is a state change and must execute
    // at the same tick in both engines. The scan bails at the floor:
    // no horizon can pull the wake below the next cycle.
    const Cycle floor = now + 1;
    Cycle wake = nextWindowReset;
    auto consider = [&wake, floor](Cycle c) {
        if (c < wake)
            wake = c;
        return wake <= floor;
    };

    // Queued refresh requests: not-yet-due entries sleep until their
    // case-2 urgency instant; due entries wait on their bank's timing
    // horizon. Blocked banks (refresh row open awaiting auto-PRE) are
    // unblocked by an issue, after which the controller polls densely.
    const ChannelTimingModel &model = ctrl->timing();
    for (const RefreshTable &table : tables) {
        for (const RefreshEntry &e : table.all()) {
            if (e.deadline > now + marginCycles) {
                if (consider(e.deadline - marginCycles))
                    return floor;
                continue;
            }
            if (ctrl->bankBlocked(e.bank))
                continue;
            if (consider(model.earliestBankCommand(e.bank)))
                return floor;
        }
    }

    if (cfg.periodicViaHira) {
        // First cycle c with min(nextGen) <= c, i.e. ceil of the next
        // generation instant (exact: instants stay far below 2^53).
        // ceil is monotone, so caching the double min is equivalent.
        if (consider(static_cast<Cycle>(std::ceil(earliestGen()))))
            return floor;
    } else if (consider(BaselineRefresh::nextEventCycle(now))) {
        return floor;
    }
    return wake;
}

bool
HiraMc::caseTwo(Cycle now)
{
    const Geometry &geom = ctrl->geometry();
    int nranks = geom.ranksPerChannel;
    for (int i = 0; i < nranks; ++i) {
        int rank = (rankCursor + i) % nranks;
        const RefreshEntry *e = tables[rank].earliestActionable(
            now + marginCycles,
            [this](std::size_t b) { return ctrl->bankBlocked(b); });
        if (e == nullptr)
            continue;
        const std::size_t bank = e->bank;

        const ChannelTimingModel &model = ctrl->timing();
        if (model.openRow(bank) != kNoRow) {
            // Step 7 of Fig. 8: precharge the target bank first.
            if (ctrl->tryPre(bank, now)) {
                rankCursor = rank + 1;
                return true;
            }
            continue;
        }

        // Copy the entry: commits mutate the table.
        RefreshEntry first = *e;
        // Every refresh below needs an ACT now (a HiRA pair's first ACT
        // is no earlier than a plain one), so until the bank can take
        // one, skip the target search instead of picking and dropping.
        if (ctrl->rankHeld(rank) || model.earliestAct(bank) > now)
            continue;
        Target tc_first = targetFor(first, kAnySubarray);

        if (cfg.enableRefreshPairing && cfg.enablePullAhead &&
            first.type == RefreshType::Periodic &&
            tables[rank].pairCandidate(first) == nullptr) {
            // No queued partner: pull the bank's next scheduled periodic
            // refresh forward and pair the two (see HiraMcConfig).
            Target ahead = targetFor(first, tc_first.subarray);
            if (ahead.valid() &&
                ctrl->tryHiraRefreshPair(bank, tc_first.row, ahead.row,
                                         now)) {
                commit(first, tc_first, now);
                refptrs->advance(bank, ahead.subarray);
                ++stats_.rowRefreshes;
                stats_.refreshPaired += 2;
                nextGen[bank] += genIntervalCycles;
                nextGenMinValid = false;
                rankCursor = rank + 1;
                return true;
            }
        }

        if (cfg.enableRefreshPairing) {
            const RefreshEntry *e2 = tables[rank].pairCandidate(first);
            if (e2 != nullptr) {
                RefreshEntry second = *e2;
                Target tc_second = targetFor(second, tc_first.subarray);
                if (tc_second.valid() &&
                    ctrl->tryHiraRefreshPair(bank, tc_first.row,
                                             tc_second.row, now)) {
                    commit(first, tc_first, now);
                    commit(second, tc_second, now);
                    stats_.refreshPaired += 2;
                    rankCursor = rank + 1;
                    return true;
                }
            }
        }

        if (ctrl->tryRefreshAct(bank, tc_first.row, now)) {
            commit(first, tc_first, now);
            ++stats_.standalone;
            rankCursor = rank + 1;
            return true;
        }
    }
    return false;
}

RowId
HiraMc::takeHiddenRefresh(std::size_t bank, RowId row_a, Cycle now)
{
    if (!cfg.enableAccessPairing)
        return kNoRow;
    const RefreshEntry *e = tables[ctrl->rankOf(bank)].earliestForBank(bank);
    if (e == nullptr)
        return kNoRow;
    Target t = targetFor(*e, spt_->subarrayOf(row_a));
    if (!t.valid())
        return kNoRow;
    commit(RefreshEntry(*e), t, now); // a copy: commit removes the entry
    ++stats_.accessPaired;
    return t.row;
}

void
HiraMc::onActivate(std::size_t bank, RowId row, Cycle now)
{
    if (!cfg.preventive.enabled)
        return;
    RowId victim =
        sampler.sample(row, ctrl->geometry().rowsPerBank);
    if (victim == kNoRow)
        return;
    ++stats_.preventiveGenerated;
    std::size_t &queued = prFifoSize[bank];
    if (queued >= kPrFifoDepth) {
        // The bank's PR-FIFO is full: the hardware has nowhere to put
        // the victim, so it is never refreshed.
        ++stats_.preventiveDropped;
        return;
    }
    ++queued;
    observe(mPrFifoDepth, static_cast<double>(queued));
    tables[ctrl->rankOf(bank)].insert(now + slackCycles, bank,
                                      RefreshType::Preventive, victim);
}

} // namespace hira
