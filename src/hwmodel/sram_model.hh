/**
 * @file
 * Analytic 22 nm SRAM area / latency model and the HiRA-MC hardware cost
 * table (Section 6, Table 2).
 *
 * Substitute for CACTI 7.0 [8]: a two-term analytic model (cell array +
 * entry-proportional periphery; wire-delay-dominated access time) with
 * constants anchored to published CACTI 22 nm results. Table 2 needs
 * only order-of-magnitude-correct per-structure costs plus the §6.2
 * pipelined-traversal argument, both of which this captures.
 */

#ifndef HIRA_HWMODEL_SRAM_MODEL_HH
#define HIRA_HWMODEL_SRAM_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hira {

/** Area / latency estimate of one SRAM array at 22 nm. */
struct SramEstimate
{
    std::uint32_t entries;
    std::uint32_t bitsPerEntry;
    double areaMm2;
    double accessNs;
};

/** Estimate one direct-mapped SRAM array. */
SramEstimate estimateSram(std::uint32_t entries,
                          std::uint32_t bits_per_entry);

/** One row of Table 2. */
struct ComponentCost
{
    std::string name;
    SramEstimate sram;
    double paperAreaMm2;   //!< published value, for reporting
    double paperAccessNs;  //!< published value, for reporting
};

/** HiRA-MC's full hardware cost breakdown (per DRAM rank). */
struct HiraMcCost
{
    ComponentCost refreshTable;
    ComponentCost refPtrTable;
    ComponentCost prFifo;
    ComponentCost spt;

    double totalAreaMm2() const;

    /**
     * Worst-case query latency (§6.2): the Concurrent Refresh Finder
     * iterates all 68 Refresh Table entries, reading the Refresh Table
     * and the SPT in a pipeline, then one RefPtr Table access.
     */
    double worstCaseQueryNs() const;

    /** Fraction of a 22 nm processor die (~400 mm^2, [172]). */
    double dieFraction() const;

    std::vector<const ComponentCost *> components() const;
};

/**
 * Build the Table 2 cost model for the given geometry parameters.
 * Defaults follow Section 6: tRefSlack = 4 tRC => 68 Refresh Table
 * entries; 128 subarrays x 16 banks RefPtr; 4-entry PR-FIFO per bank.
 * This models the paper's hardware, not the simulator's data layout
 * (which keeps a bank's PR-FIFO rows in its Refresh Table entries), so
 * its costs do not depend on how the simulator stores them.
 */
HiraMcCost hiraMcCost(int banks_per_rank = 16, int subarrays_per_bank = 128,
                      int refresh_table_entries = 68,
                      int pr_fifo_per_bank = 4);

} // namespace hira

#endif // HIRA_HWMODEL_SRAM_MODEL_HH
