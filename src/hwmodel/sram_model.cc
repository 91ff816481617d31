#include "hwmodel/sram_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace hira {

namespace {

// Fit constants (22 nm, anchored to CACTI 7 results).
constexpr double kBaseAreaUm2 = 100.0;   //!< fixed periphery
constexpr double kAreaPerBitUm2 = 0.115; //!< cell + array overhead
constexpr double kAreaPerEntryUm2 = 2.1; //!< decoder / wordline driver
constexpr double kBaseLatNs = 0.05;
constexpr double kLatPerSqrtEntry = 0.0013;
constexpr double kLatPerSqrtBit = 0.002;

} // namespace

SramEstimate
estimateSram(std::uint32_t entries, std::uint32_t bits_per_entry)
{
    hira_assert(entries > 0 && bits_per_entry > 0);
    SramEstimate e;
    e.entries = entries;
    e.bitsPerEntry = bits_per_entry;
    double bits = static_cast<double>(entries) * bits_per_entry;
    double um2 = kBaseAreaUm2 + kAreaPerBitUm2 * bits +
                 kAreaPerEntryUm2 * entries;
    e.areaMm2 = um2 * 1e-6;
    e.accessNs = kBaseLatNs +
                 kLatPerSqrtEntry * std::sqrt(static_cast<double>(entries)) +
                 kLatPerSqrtBit *
                     std::sqrt(static_cast<double>(bits_per_entry));
    return e;
}

double
HiraMcCost::totalAreaMm2() const
{
    return refreshTable.sram.areaMm2 + refPtrTable.sram.areaMm2 +
           prFifo.sram.areaMm2 + spt.sram.areaMm2;
}

double
HiraMcCost::worstCaseQueryNs() const
{
    // §6.2: 68 pipelined {Refresh Table, SPT} iterations bounded by the
    // slower of the two per iteration, then one RefPtr Table access for
    // the row address of the winning periodic refresh.
    double per_iter =
        std::max(refreshTable.sram.accessNs, spt.sram.accessNs);
    return static_cast<double>(refreshTable.sram.entries) * per_iter +
           refPtrTable.sram.accessNs;
}

double
HiraMcCost::dieFraction() const
{
    // 22 nm Intel processor die [172]; the paper's 0.0023 % of 0.00923
    // mm^2 implies ~400 mm^2.
    constexpr double kDieMm2 = 400.0;
    return totalAreaMm2() / kDieMm2;
}

std::vector<const ComponentCost *>
HiraMcCost::components() const
{
    return {&refreshTable, &refPtrTable, &prFifo, &spt};
}

HiraMcCost
hiraMcCost(int banks_per_rank, int subarrays_per_bank,
           int refresh_table_entries, int pr_fifo_per_bank)
{
    HiraMcCost c;
    // Refresh Table: 10-bit deadline + 4-bit bank id + 2-bit type.
    c.refreshTable = {"Refresh Table",
                      estimateSram(
                          static_cast<std::uint32_t>(refresh_table_entries),
                          16),
                      0.00031, 0.07};
    // RefPtr Table: one 10-bit next-row pointer per subarray per bank.
    c.refPtrTable = {
        "RefPtr Table",
        estimateSram(static_cast<std::uint32_t>(banks_per_rank *
                                                subarrays_per_bank),
                     10),
        0.00683, 0.12};
    // PR-FIFO: 4 victim-row entries per bank (16-bit row + valid).
    c.prFifo = {"PR-FIFO",
                estimateSram(static_cast<std::uint32_t>(banks_per_rank *
                                                        pr_fifo_per_bank),
                             17),
                0.00029, 0.07};
    // SPT: per-subarray bitmap of isolated partner subarrays.
    c.spt = {"Subarray Pairs Table (SPT)",
             estimateSram(static_cast<std::uint32_t>(subarrays_per_bank),
                          static_cast<std::uint32_t>(subarrays_per_bank)),
             0.00180, 0.09};
    return c;
}

} // namespace hira
