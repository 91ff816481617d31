#include "mem/victim_queue.hh"

#include "mem/controller.hh"

namespace hira {

void
VictimQueue::reset(std::size_t banks, int queue_cap)
{
    cap = static_cast<std::size_t>(queue_cap);
    queues.assign(banks, {});
    pendingBanks.resize(banks);
    pending_ = 0;
    cursor = 0;
}

int
VictimQueue::pushNeighbors(std::size_t idx, RowId row, RowId rows_per_bank,
                           RefreshStats &stats)
{
    RowId neighbors[2] = {row > 0 ? row - 1 : kNoRow,
                          row + 1 < rows_per_bank ? row + 1 : kNoRow};
    int generated = 0;
    for (RowId victim : neighbors) {
        if (victim == kNoRow)
            continue;
        ++generated;
        ++stats.preventiveGenerated;
        if (queues[idx].size() >= cap) {
            ++stats.preventiveDropped;
            continue;
        }
        queues[idx].push_back(victim);
        pendingBanks.assign(idx, true);
        ++pending_;
    }
    return generated;
}

void
VictimQueue::drain(MemoryController &ctrl, Cycle now, RefreshStats &stats)
{
    // Round-robin from the cursor over the banks holding victims, in
    // flat (rank, bank) order: the bits at or above it, then below.
    pendingBanks.anyOfFrom(cursor, [&](std::size_t idx) {
        if (ctrl.bankBlocked(idx))
            return false;
        std::deque<RowId> &q = queues[idx];
        if (ctrl.timing().openRow(idx) != kNoRow) {
            if (!ctrl.tryPre(idx, now))
                return false;
        } else {
            if (!ctrl.tryRefreshAct(idx, q.front(), now))
                return false;
            q.pop_front();
            if (q.empty())
                pendingBanks.assign(idx, false);
            --pending_;
            ++stats.rowRefreshes;
            ++stats.standalone;
        }
        cursor = idx + 1;
        return true;
    });
}

} // namespace hira
