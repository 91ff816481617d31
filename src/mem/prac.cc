#include "mem/prac.hh"

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

PracRefresh::PracRefresh(const PracConfig &config) : cfg(config)
{
    hira_assert(cfg.threshold > 0);
    hira_assert(cfg.slackRc >= 0);
}

void
PracRefresh::attach(MemoryController *controller)
{
    BaselineRefresh::attach(controller);
    const Geometry &geom = controller->geometry();
    slackCycles = static_cast<Cycle>(cfg.slackRc) * controller->tc().rc;
    std::size_t nbanks = static_cast<std::size_t>(geom.banksPerChannel());
    counters.assign(nbanks, {});
    tables.clear();
    rowOf.clear();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        // Same shape as HiRA-MC's §6 sizing: up to 4 queued targeted
        // refreshes per bank.
        tables.emplace_back(4 *
                            static_cast<std::size_t>(geom.banksPerRank()));
        rowOf.emplace_back();
    }
    rankCursor = 0;
}

void
PracRefresh::attachMetrics(const MetricScope &scope)
{
    mPracTriggers = scope.counter("prac_triggers");
    mTableDepth = scope.histogram(
        "table_depth", 0.0,
        static_cast<double>(tables.empty() ? 64 : tables[0].capacity() + 1),
        16);
}

void
PracRefresh::onActivate(int rank, BankId bank, RowId row, Cycle now)
{
    std::size_t idx = ctrl->bankIndex(rank, bank);
    int &c = counters[idx][row];
    if (++c < cfg.threshold)
        return;
    // Threshold crossed: back off the counter and queue targeted
    // refreshes for both physical neighbors.
    c = 0;
    count(mPracTriggers);
    RefreshTable &table = tables[static_cast<std::size_t>(rank)];
    RowId rows = ctrl->geometry().rowsPerBank;
    RowId neighbors[2] = {row > 0 ? row - 1 : kNoRow,
                          row + 1 < rows ? row + 1 : kNoRow};
    for (RowId victim : neighbors) {
        if (victim == kNoRow)
            continue;
        ++stats_.preventiveGenerated;
        if (table.size() >= table.capacity()) {
            // RefreshTable::insert stores past capacity (overflow
            // accounting for force-drain callers); PRAC instead models
            // a hard hardware bound, so guard before inserting and
            // count the never-refreshed victim as dropped.
            ++stats_.preventiveDropped;
            continue;
        }
        std::uint64_t id = 0;
        table.insert(now + slackCycles, rank, bank,
                     RefreshType::Preventive, &id);
        rowOf[static_cast<std::size_t>(rank)][id] = victim;
        observe(mTableDepth, static_cast<double>(table.size()));
    }
}

bool
PracRefresh::drain(Cycle now)
{
    const Geometry &geom = ctrl->geometry();
    int nranks = geom.ranksPerChannel;
    for (int i = 0; i < nranks; ++i) {
        int rank = (rankCursor + i) % nranks;
        RefreshTable &table = tables[static_cast<std::size_t>(rank)];
        if (table.empty())
            continue;
        // Earliest-deadline entry whose bank is actionable (skipping
        // blocked banks avoids head-of-line blocking behind an
        // in-flight refresh's auto-PRE).
        const RefreshEntry *e = nullptr;
        for (const RefreshEntry &cand : table.all()) {
            if (ctrl->bankBlocked(rank, cand.bank))
                continue;
            if (e == nullptr || cand.deadline < e->deadline)
                e = &cand;
        }
        if (e == nullptr)
            continue;
        // Copy the entry: the refresh ACT below re-enters onActivate,
        // which can insert into (and reallocate) this same table.
        RefreshEntry entry = *e;
        if (ctrl->timing().openRow(rank, entry.bank) != kNoRow) {
            if (ctrl->tryPre(rank, entry.bank, now)) {
                rankCursor = rank + 1;
                return true;
            }
            continue;
        }
        auto &rows = rowOf[static_cast<std::size_t>(rank)];
        RowId victim = rows.at(entry.id);
        if (ctrl->tryRefreshAct(rank, entry.bank, victim, now)) {
            if (now > entry.deadline)
                ++stats_.deadlineMisses;
            ++stats_.rowRefreshes;
            ++stats_.standalone;
            bool removed = table.remove(entry.id);
            hira_assert(removed);
            rows.erase(entry.id);
            rankCursor = rank + 1;
            return true;
        }
    }
    return false;
}

void
PracRefresh::tick(Cycle now)
{
    BaselineRefresh::tick(now);
    if (ctrl->busFree(now))
        drain(now);
}

Cycle
PracRefresh::nextEventCycle(Cycle now) const
{
    // Queued targeted refreshes drain against per-bank timing gates;
    // poll densely while any are queued (tables cap at 4 per bank, so
    // the dense window is short). Counters only change via onActivate,
    // i.e. on issues, which force a poll anyway.
    for (const RefreshTable &table : tables) {
        if (!table.empty())
            return now + 1;
    }
    return BaselineRefresh::nextEventCycle(now);
}

} // namespace hira
