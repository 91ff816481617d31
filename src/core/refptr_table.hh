/**
 * @file
 * The RefPtr Table (Section 5, component 1): one next-row-to-refresh
 * pointer per subarray per bank, plus a per-window refreshed-row count
 * so HiRA-MC can advance all subarrays in a balanced manner while
 * exploiting subarray-level parallelism (Section 5.1.3, case 1b).
 */

#ifndef HIRA_CORE_REFPTR_TABLE_HH
#define HIRA_CORE_REFPTR_TABLE_HH

#include <algorithm>
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

/**
 * Per-rank RefPtr table.
 *
 * peek is O(words) instead of O(subarrays): each bank keeps the least
 * window count over its subarrays and a bitmap of the subarrays at that
 * count (the min set). It is never empty. advance clears the advanced
 * subarray's bit, and when the set empties, every count has reached
 * min + 1, so the set is rebuilt at min + 1 (one O(subarrays) pass per
 * round of advances over the bank).
 */
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
        : banks(bank_count), subs(subarrays), rowsPerSub(rows_per_subarray),
          words((subarrays + 63) / 64)
    {
        hira_assert(banks > 0 && subs > 0 && rowsPerSub > 0);
        ptr.assign(static_cast<std::size_t>(banks) * subs, 0);
        count.assign(static_cast<std::size_t>(banks) * subs, 0);
        minCount.assign(static_cast<std::size_t>(banks), 0);
        minSet.assign(static_cast<std::size_t>(banks) * words, 0);
        resetWindow();
    }

    /**
     * Peek the next periodic-refresh row for the bank: among subarrays
     * isolated from @p pair_with (or all subarrays for kAnySubarray),
     * the one with the fewest refreshes this window, the lowest-numbered
     * on a tie. Does not advance.
     */
    RefPtrPick
    peek(BankId bank, SubarrayId pair_with,
         const SubarrayPairsTable &spt) const
    {
        const std::uint64_t *least = minSetOf(bank);
        SubarrayId s;
        if (pair_with == kAnySubarray) {
            s = firstSet(least, nullptr);
        } else {
            hira_assert(spt.subarrays() == subs);
            const std::uint64_t *partners = spt.map().partnerBits(pair_with);
            // A partner in the min set has the least count among the
            // partners; otherwise scan the partners' counts.
            s = firstSet(least, partners);
            if (s == kAnySubarray)
                s = leastCounted(bank, partners);
            if (s == kAnySubarray)
                return {};
        }
        RefPtrPick pick;
        pick.subarray = s;
        pick.row = s * spt.rowsPerSubarray() + ptr[index(bank, s)];
        return pick;
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
        // Every count is at least the bank's min, so the subarray is in
        // the min set exactly when its count equals the min.
        if (count[i]++ != minCount[bank])
            return;
        std::uint64_t *least = &minSet[static_cast<std::size_t>(bank) * words];
        least[subarray / 64] &= ~(std::uint64_t(1) << (subarray % 64));
        for (std::uint32_t w = 0; w < words; ++w) {
            if (least[w] != 0)
                return;
        }
        const std::uint64_t next = ++minCount[bank];
        for (SubarrayId s = 0; s < subs; ++s) {
            if (count[index(bank, s)] == next)
                least[s / 64] |= std::uint64_t(1) << (s % 64);
        }
    }

    /** Start a new refresh window: clear the per-window counts. */
    void
    resetWindow()
    {
        std::fill(count.begin(), count.end(), 0);
        std::fill(minCount.begin(), minCount.end(), 0);
        // Every subarray is at the min; the last word holds subs % 64
        // bits when subs is not a multiple of 64.
        for (std::size_t b = 0; b < minCount.size(); ++b) {
            std::uint64_t *least = &minSet[b * words];
            std::fill(least, least + words, ~std::uint64_t(0));
            if (subs % 64 != 0)
                least[words - 1] = (std::uint64_t(1) << (subs % 64)) - 1;
        }
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

    const std::uint64_t *
    minSetOf(BankId bank) const
    {
        hira_assert(bank < static_cast<BankId>(banks));
        return &minSet[static_cast<std::size_t>(bank) * words];
    }

    /** Lowest bit set in @p a (and in @p mask, if given), or none. */
    SubarrayId
    firstSet(const std::uint64_t *a, const std::uint64_t *mask) const
    {
        for (std::uint32_t w = 0; w < words; ++w) {
            std::uint64_t m = mask != nullptr ? a[w] & mask[w] : a[w];
            if (m != 0)
                return w * 64 + static_cast<SubarrayId>(__builtin_ctzll(m));
        }
        return kAnySubarray;
    }

    /** Lowest-numbered subarray of @p set with the least count, or none. */
    SubarrayId
    leastCounted(BankId bank, const std::uint64_t *set) const
    {
        SubarrayId best = kAnySubarray;
        std::uint64_t best_count = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < words; ++w) {
            for (std::uint64_t m = set[w]; m != 0; m &= m - 1) {
                SubarrayId s =
                    w * 64 + static_cast<SubarrayId>(__builtin_ctzll(m));
                std::uint64_t c = count[index(bank, s)];
                if (c < best_count) {
                    best_count = c;
                    best = s;
                }
            }
        }
        return best;
    }

    int banks;
    std::uint32_t subs;
    std::uint32_t rowsPerSub;
    std::uint32_t words;                  //!< 64-bit words per bitmap
    std::vector<std::uint32_t> ptr;
    std::vector<std::uint64_t> count;
    std::vector<std::uint64_t> minCount;  //!< per bank
    std::vector<std::uint64_t> minSet;    //!< per bank, `words` each
};

} // namespace hira

#endif // HIRA_CORE_REFPTR_TABLE_HH
