/**
 * @file
 * Design-level subarray isolation map.
 *
 * In the open-bitline architecture (Section 2.1), vertically adjacent
 * subarrays share sense amplifiers, so they can never host a HiRA pair.
 * Beyond adjacency, whether two subarrays' charge-restoration circuits
 * are electrically isolated is a property of the (proprietary) chip
 * design; the paper observes the resulting pair set to be identical
 * across all banks of a module (Section 4.4.1). We model it as a
 * deterministic per-module map whose isolated-pair density matches the
 * module's measured HiRA coverage (Table 4).
 */

#ifndef HIRA_CHIP_DESIGN_HH
#define HIRA_CHIP_DESIGN_HH

#include <cstdint>
#include <vector>

#include "chip/config.hh"

namespace hira {

/** Immutable isolation map for one module design. */
class IsolationMap
{
  public:
    explicit IsolationMap(const ChipConfig &cfg);

    /** True if the two subarrays share no bitline or sense amplifier. */
    bool
    isolated(SubarrayId a, SubarrayId b) const
    {
        return (partnerBits(a)[b / 64] >> (b % 64)) & 1;
    }

    /**
     * Subarray @p a's partner bitmap (its SPT entry, §5.1.4): bit b of
     * word b / 64 is set iff isolated(a, b). partnerWords() words; the
     * bits past subarrays() and bit a itself are always clear.
     */
    const std::uint64_t *
    partnerBits(SubarrayId a) const
    {
        return &partners[static_cast<std::size_t>(a) * words];
    }

    /** 64-bit words per partner bitmap: ceil(subarrays() / 64). */
    std::uint32_t partnerWords() const { return words; }

    /** True if two *rows* may form a HiRA pair at the circuit level. */
    bool
    rowsIsolated(RowId a, RowId b) const
    {
        return isolated(cfg.subarrayOf(a), cfg.subarrayOf(b));
    }

    std::uint32_t subarrays() const { return count; }

    /** Fraction of (ordered) peer subarrays isolated from @p a. */
    double isolatedFraction(SubarrayId a) const;

    /** Mean isolated fraction over all subarrays. */
    double meanIsolatedFraction() const;

    /** List of subarrays isolated from @p a (the SPT entry, §5.1.4). */
    std::vector<SubarrayId> partnersOf(SubarrayId a) const;

  private:
    ChipConfig cfg;
    std::uint32_t count;
    std::uint32_t words;
    std::vector<std::uint64_t> partners; //!< count bitmaps, symmetric
};

} // namespace hira

#endif // HIRA_CHIP_DESIGN_HH
