/**
 * @file
 * The RefPtr Table (Section 5, component 1): one next-row-to-refresh
 * pointer per subarray per bank, plus a per-window refreshed-row count
 * so HiRA-MC can advance all subarrays in a balanced manner while
 * exploiting subarray-level parallelism (Section 5.1.3, case 1b).
 */

#ifndef HIRA_CORE_REFPTR_TABLE_HH
#define HIRA_CORE_REFPTR_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "core/spt.hh"

namespace hira {

/** A picked (subarray, row) periodic-refresh target. */
struct RefPtrPick
{
    SubarrayId subarray = kAnySubarray;
    RowId row = kNoRow;

    bool valid() const { return row != kNoRow; }
};

/** Per-rank RefPtr table. */
class RefPtrTable
{
  public:
    /**
     * @param bank_count banks per rank
     * @param subarrays subarrays per bank
     * @param rows_per_subarray rows (refresh groups) per subarray
     */
    RefPtrTable(int bank_count, std::uint32_t subarrays,
                std::uint32_t rows_per_subarray)
        : banks(bank_count), subs(subarrays), rowsPerSub(rows_per_subarray)
    {
        hira_assert(banks > 0 && subs > 0 && rowsPerSub > 0);
        ptr.assign(static_cast<std::size_t>(banks) * subs, 0);
        count.assign(static_cast<std::size_t>(banks) * subs, 0);
    }

    /**
     * Peek the next periodic-refresh row for the bank: among subarrays
     * isolated from @p pair_with (or all subarrays for kAnySubarray),
     * the one with the fewest refreshes this window. Does not advance.
     */
    RefPtrPick
    peek(BankId bank, SubarrayId pair_with,
         const SubarrayPairsTable &spt) const
    {
        RefPtrPick best;
        std::uint64_t best_count = ~std::uint64_t(0);
        for (SubarrayId s = 0; s < subs; ++s) {
            if (pair_with != kAnySubarray && !spt.isolated(s, pair_with))
                continue;
            std::uint64_t c = count[index(bank, s)];
            if (c < best_count) {
                best_count = c;
                best.subarray = s;
                best.row = s * spt.rowsPerSubarray() + ptr[index(bank, s)];
            }
        }
        return best;
    }

    /** Commit a refresh of the picked subarray's next row. */
    void
    advance(BankId bank, SubarrayId subarray)
    {
        std::size_t i = index(bank, subarray);
        // Wraps by compare-and-reset, so every pointer stays below
        // rowsPerSub and peek reads it as is.
        if (++ptr[i] == rowsPerSub)
            ptr[i] = 0;
        ++count[i];
    }

    /** Start a new refresh window: clear the per-window counts. */
    void
    resetWindow()
    {
        std::fill(count.begin(), count.end(), 0);
    }

    std::uint64_t
    windowCount(BankId bank, SubarrayId s) const
    {
        return count[index(bank, s)];
    }

    std::uint32_t
    pointer(BankId bank, SubarrayId s) const
    {
        return ptr[index(bank, s)];
    }

  private:
    std::size_t
    index(BankId bank, SubarrayId s) const
    {
        hira_assert(bank < static_cast<BankId>(banks) && s < subs);
        return static_cast<std::size_t>(bank) * subs + s;
    }

    int banks;
    std::uint32_t subs;
    std::uint32_t rowsPerSub;
    std::vector<std::uint32_t> ptr;
    std::vector<std::uint64_t> count;
};

} // namespace hira

#endif // HIRA_CORE_REFPTR_TABLE_HH
