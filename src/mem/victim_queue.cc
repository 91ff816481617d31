#include "mem/victim_queue.hh"

#include "mem/controller.hh"

namespace hira {

void
VictimQueue::reset(std::size_t banks, int queue_cap)
{
    cap = static_cast<std::size_t>(queue_cap);
    queues.assign(banks, {});
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
        ++pending_;
    }
    return generated;
}

void
VictimQueue::drain(MemoryController &ctrl, Cycle now, RefreshStats &stats)
{
    if (pending_ == 0)
        return;
    int banks_per_rank = ctrl.geometry().banksPerRank();
    int nbanks = static_cast<int>(queues.size());
    for (int i = 0; i < nbanks; ++i) {
        int idx = (cursor + i) % nbanks;
        int rank = idx / banks_per_rank;
        BankId bank = static_cast<BankId>(idx % banks_per_rank);
        std::deque<RowId> &q = queues[static_cast<std::size_t>(idx)];
        if (q.empty() || ctrl.bankBlocked(rank, bank))
            continue;
        if (ctrl.timing().openRow(rank, bank) != kNoRow) {
            if (ctrl.tryPre(rank, bank, now)) {
                cursor = idx + 1;
                return;
            }
            continue;
        }
        if (ctrl.tryRefreshAct(rank, bank, q.front(), now)) {
            q.pop_front();
            --pending_;
            ++stats.rowRefreshes;
            ++stats.standalone;
            cursor = idx + 1;
            return;
        }
    }
}

} // namespace hira
