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
PracRefresh::attach(MemoryController *controller, const MetricScope &scope)
{
    BaselineRefresh::attach(controller, scope);
    const Geometry &geom = controller->geometry();
    slackCycles = static_cast<Cycle>(cfg.slackRc) * controller->tc().rc;
    counters.assign(static_cast<std::size_t>(geom.banksPerChannel()), {});
    // Same shape as HiRA-MC's §6 sizing: up to 4 queued targeted
    // refreshes per bank.
    const std::size_t cap = 4 * static_cast<std::size_t>(geom.banksPerRank());
    tables.assign(static_cast<std::size_t>(geom.ranksPerChannel),
                  RefreshTable(cap));
    rankCursor = 0;
    mPracTriggers = scope.counter("prac_triggers");
    mTableDepth = scope.histogram("table_depth", 0.0,
                                  static_cast<double>(cap + 1), 16);
}

std::size_t
PracRefresh::pendingTargets() const
{
    std::size_t n = 0;
    for (const RefreshTable &t : tables)
        n += t.size();
    return n;
}

void
PracRefresh::onActivate(std::size_t bank, RowId row, Cycle now)
{
    int &c = counters[bank][row];
    if (++c < cfg.threshold)
        return;
    // Threshold crossed: back off the counter and queue targeted
    // refreshes for both physical neighbors.
    c = 0;
    count(mPracTriggers);
    RefreshTable &table =
        tables[static_cast<std::size_t>(ctrl->rankOf(bank))];
    RowId rows = ctrl->geometry().rowsPerBank;
    RowId neighbors[2] = {row > 0 ? row - 1 : kNoRow,
                          row + 1 < rows ? row + 1 : kNoRow};
    for (RowId victim : neighbors) {
        if (victim == kNoRow)
            continue;
        ++stats_.preventiveGenerated;
        if (table.size() >= table.capacity()) {
            // The table models a hard hardware bound: the victim is
            // never refreshed and counts as dropped.
            ++stats_.preventiveDropped;
            continue;
        }
        table.insert(now + slackCycles, bank, RefreshType::Preventive,
                     victim);
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
        const RefreshEntry *pick = table.earliestActionable(
            kNeverCycle,
            [this](std::size_t b) { return ctrl->bankBlocked(b); });
        if (pick == nullptr)
            continue;
        // Copy the entry: the refresh ACT below re-enters onActivate,
        // which can insert into (and reallocate) this same table.
        const RefreshEntry t = *pick;
        if (ctrl->timing().openRow(t.bank) != kNoRow) {
            if (ctrl->tryPre(t.bank, now)) {
                rankCursor = rank + 1;
                return true;
            }
            continue;
        }
        if (ctrl->tryRefreshAct(t.bank, t.row, now)) {
            if (now > t.deadline)
                ++stats_.deadlineMisses;
            ++stats_.rowRefreshes;
            ++stats_.standalone;
            table.remove(t.id);
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
