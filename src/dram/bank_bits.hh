/**
 * @file
 * Per-bank bit words: one bit per flat bank index of a channel.
 */

#ifndef HIRA_DRAM_BANK_BITS_HH
#define HIRA_DRAM_BANK_BITS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hira {

/**
 * One bit per flat bank index (ChannelTimingModel::bankIndex order, so
 * ascending index is (rank, bank) order), 64 banks per word: bank idx
 * is bit idx % 64 of word idx / 64. The scheduler keeps its per-bank
 * state here and combines it word by word (AND, OR, NOT), so that a
 * scan visits only the banks whose bit is set in the result. Bits past
 * the last bank are always clear.
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

    std::size_t wordCount() const { return words.size(); }
    std::uint64_t word(std::size_t w) const { return words[w]; }

    void
    assign(std::size_t idx, bool on)
    {
        const std::uint64_t bit = std::uint64_t(1) << (idx & 63);
        std::uint64_t &w = words[idx >> 6];
        w = on ? (w | bit) : (w & ~bit);
    }

    /**
     * Call @p f(idx) on the set bits in rotating order until it returns
     * true, and return whether it did: the set bits at or above
     * @p start ascending, then those below it (@p start may equal the
     * size).
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

#endif // HIRA_DRAM_BANK_BITS_HH
