#include "mem/graphene_trr.hh"

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

GrapheneTrr::GrapheneTrr(const GrapheneConfig &config) : cfg(config)
{
    hira_assert(cfg.trackerSize > 0);
    hira_assert(cfg.threshold > 0);
}

void
GrapheneTrr::attach(MemoryController *controller, const MetricScope &scope)
{
    BaselineRefresh::attach(controller, scope);
    const Geometry &geom = controller->geometry();
    const TimingCycles &tcy = controller->tc();
    std::size_t nbanks = static_cast<std::size_t>(geom.banksPerChannel());
    trackers.assign(nbanks, {});
    for (auto &t : trackers)
        t.reserve(static_cast<std::size_t>(cfg.trackerSize));
    victims.reset(nbanks);
    windowCycles = tcy.refw;
    nextWindowReset = windowCycles;
    // TRR selection once per tREFI per rank, staggered like the
    // baseline REF schedule so multi-rank channels don't burst.
    nextTrrAt.assign(static_cast<std::size_t>(geom.ranksPerChannel), 0);
    for (int r = 0; r < geom.ranksPerChannel; ++r)
        nextTrrAt[static_cast<std::size_t>(r)] = firstRefAt(r);
    mTrrSelections = scope.counter("trr_selections");
    mTrackerDepth = scope.histogram(
        "tracker_depth", 0.0, static_cast<double>(cfg.trackerSize + 1),
        static_cast<std::size_t>(cfg.trackerSize + 1));
}

void
GrapheneTrr::onActivate(std::size_t bank, RowId row, Cycle now)
{
    (void)now;
    std::vector<Tracked> &t = trackers[bank];
    for (Tracked &e : t) {
        if (e.row == row) {
            ++e.hits;
            return;
        }
    }
    if (t.size() < static_cast<std::size_t>(cfg.trackerSize)) {
        t.push_back({row, 1});
        return;
    }
    // Misra-Gries spill: decrement every counter; zeroed entries free
    // their slot for later rows. The untracked activation is absorbed.
    std::size_t kept = 0;
    for (Tracked &e : t) {
        if (--e.hits > 0)
            t[kept++] = e;
    }
    t.resize(kept);
}

void
GrapheneTrr::trrSelect(int rank)
{
    // Hottest tracked row at or above the threshold across the rank's
    // banks; deterministic tie-break on (bank, then tracker order —
    // itself deterministic, insertion-ordered).
    const Geometry &geom = ctrl->geometry();
    int banks = geom.banksPerRank();
    Tracked *best = nullptr;
    std::size_t bestIdx = 0;
    for (BankId bank = 0; bank < static_cast<BankId>(banks); ++bank) {
        std::size_t idx = ctrl->bankIndex(rank, bank);
        for (Tracked &e : trackers[idx]) {
            if (e.hits < cfg.threshold)
                continue;
            if (best == nullptr || e.hits > best->hits) {
                best = &e;
                bestIdx = idx;
            }
        }
    }
    if (best == nullptr)
        return;
    observe(mTrackerDepth,
            static_cast<double>(trackers[bestIdx].size()));
    RowId row = best->row;
    best->hits = 0; // refreshed neighbors: restart the count
    count(mTrrSelections,
          victims.pushNeighbors(bestIdx, row, geom.rowsPerBank, stats_));
}

void
GrapheneTrr::tick(Cycle now)
{
    // Time-triggered state changes first, un-gated by the bus: both
    // engines must apply them at exactly this tick. The while loops
    // catch up across ticks suppressed by an earlier issue or a
    // reserved HiRA bus slot.
    while (now >= nextWindowReset) {
        for (auto &t : trackers)
            t.clear();
        nextWindowReset += windowCycles;
    }
    for (std::size_t r = 0; r < nextTrrAt.size(); ++r) {
        while (now >= nextTrrAt[r]) {
            trrSelect(static_cast<int>(r));
            nextTrrAt[r] += ctrl->tc().refi;
        }
    }

    BaselineRefresh::tick(now);
    if (ctrl->busFree(now))
        victims.drain(*ctrl, now, stats_);
}

Cycle
GrapheneTrr::nextEventCycle(Cycle now) const
{
    // Queued victims drain against per-bank timing gates: poll densely
    // while any are pending. Otherwise the next state change is the
    // earliest of the per-rank TRR selection instants, the tracker
    // window reset, and the inherited REF schedule (tracker counters
    // only change via onActivate, i.e. on issues, which force a poll).
    if (victims.pending() > 0)
        return now + 1;
    Cycle wake = nextWindowReset;
    for (Cycle t : nextTrrAt) {
        if (t < wake)
            wake = t;
    }
    Cycle b = BaselineRefresh::nextEventCycle(now);
    if (b < wake)
        wake = b;
    return wake;
}

} // namespace hira
