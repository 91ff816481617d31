/**
 * @file
 * Per-bank bit words: one bit per flat bank index of a channel.
 */

#ifndef HIRA_MEM_BANK_BITS_HH
#define HIRA_MEM_BANK_BITS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hira {

/**
 * One bit per flat bank index (MemoryController::bankIndex order, so
 * ascending index is (rank, bank) order), 64 banks per word. The
 * scheduler keeps its per-bank state here so that a scan visits only
 * the banks whose bit is set.
 */
class BankBits
{
  public:
    void resize(std::size_t nbanks) { words.assign((nbanks + 63) / 64, 0); }

    bool
    test(std::size_t idx) const
    {
        return ((words[idx >> 6] >> (idx & 63)) & 1u) != 0;
    }

    void
    assign(std::size_t idx, bool on)
    {
        const std::uint64_t bit = std::uint64_t(1) << (idx & 63);
        std::uint64_t &w = words[idx >> 6];
        w = on ? (w | bit) : (w & ~bit);
    }

    /**
     * Call @p f(idx) on the set bits in ascending order until it returns
     * true; returns whether it did.
     */
    template <typename F>
    bool
    anyOf(F &&f) const
    {
        for (std::size_t w = 0; w < words.size(); ++w) {
            if (anyOfWord(w, words[w], f))
                return true;
        }
        return false;
    }

    /**
     * anyOf over the bits set in any of @p a, @p b and @p c (all the
     * same size), each visited once, in ascending order.
     */
    template <typename F>
    static bool
    anyOfUnion(const BankBits &a, const BankBits &b, const BankBits &c,
               F &&f)
    {
        for (std::size_t w = 0; w < a.words.size(); ++w) {
            if (anyOfWord(w, a.words[w] | b.words[w] | c.words[w], f))
                return true;
        }
        return false;
    }

    /**
     * anyOf in rotating order: the set bits at or above @p start
     * ascending, then those below it (@p start may equal the size).
     */
    template <typename F>
    bool
    anyOfFrom(std::size_t start, F &&f) const
    {
        const std::size_t sw = start >> 6;
        const std::uint64_t below = (std::uint64_t(1) << (start & 63)) - 1;
        for (std::size_t w = sw; w < words.size(); ++w) {
            if (anyOfWord(w, w == sw ? words[w] & ~below : words[w], f))
                return true;
        }
        for (std::size_t w = 0; w <= sw && w < words.size(); ++w) {
            if (anyOfWord(w, w == sw ? words[w] & below : words[w], f))
                return true;
        }
        return false;
    }

  private:
    /** anyOf over the set bits @p m of word @p w. */
    template <typename F>
    static bool
    anyOfWord(std::size_t w, std::uint64_t m, F &f)
    {
        for (; m != 0; m &= m - 1) {
            if (f(w * 64 + static_cast<std::size_t>(__builtin_ctzll(m))))
                return true;
        }
        return false;
    }

    std::vector<std::uint64_t> words;
};

} // namespace hira

#endif // HIRA_MEM_BANK_BITS_HH
