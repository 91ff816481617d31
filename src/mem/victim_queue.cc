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
    // Round-robin from the cursor, in flat (rank, bank) order; the
    // index wraps and rank / bank step by compare-and-reset.
    const int banks_per_rank = ctrl.geometry().banksPerRank();
    const std::size_t nbanks = queues.size();
    std::size_t idx = cursor == nbanks ? 0 : cursor;
    int rank = static_cast<int>(idx / static_cast<std::size_t>(banks_per_rank));
    int bank = static_cast<int>(idx) - rank * banks_per_rank;
    for (std::size_t i = 0; i < nbanks; ++i) {
        std::deque<RowId> &q = queues[idx];
        BankId b = static_cast<BankId>(bank);
        if (!q.empty() && !ctrl.bankBlocked(rank, b)) {
            if (ctrl.timing().openRow(rank, b) != kNoRow) {
                if (ctrl.tryPre(rank, b, now)) {
                    cursor = idx + 1;
                    return;
                }
            } else if (ctrl.tryRefreshAct(rank, b, q.front(), now)) {
                q.pop_front();
                --pending_;
                ++stats.rowRefreshes;
                ++stats.standalone;
                cursor = idx + 1;
                return;
            }
        }
        if (++idx == nbanks) {
            idx = 0;
            rank = 0;
            bank = 0;
        } else if (++bank == banks_per_rank) {
            bank = 0;
            ++rank;
        }
    }
}

} // namespace hira
