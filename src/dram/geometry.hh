/**
 * @file
 * DRAM system geometry: channels, ranks, bank groups, banks, subarrays,
 * rows, columns, and the capacity-scaling rules used by the evaluation.
 */

#ifndef HIRA_DRAM_GEOMETRY_HH
#define HIRA_DRAM_GEOMETRY_HH

#include <cstdint>

#include "common/types.hh"

namespace hira {

/**
 * Geometry of the simulated memory system. Defaults follow Table 3 of the
 * paper: 1 channel, 1 rank, 4 bank groups x 4 banks, 64K rows per bank for
 * an 8 Gb chip, 8 KB rows (128 64-byte cache lines).
 */
struct Geometry
{
    int channels = 1;
    int ranksPerChannel = 1;
    int bankGroups = 4;
    int banksPerGroup = 4;
    std::uint32_t rowsPerBank = 65536;
    std::uint32_t subarraysPerBank = 128;
    std::uint32_t colsPerRow = 128;    //!< 64 B cache lines per 8 KB row
    std::uint32_t lineBytes = 64;
    double capacityGb = 8.0;           //!< per-chip capacity

    /**
     * Number of externally visible row-refresh operations per bank per
     * refresh window when refresh is performed with per-row commands
     * (HiRA). Scales as capacity^0.3, an exponent calibrated to HiRA-0's
     * 19.4 % overhead at 128 Gb (see geometry.cc and ROADMAP.md item 2).
     * 64K at 8 Gb.
     */
    std::uint32_t refreshGroupsPerBank = 65536;

    int banksPerRank() const { return bankGroups * banksPerGroup; }
    int banksPerChannel() const { return ranksPerChannel * banksPerRank(); }
    int totalBanks() const { return channels * banksPerChannel(); }
    std::uint32_t rowsPerSubarray() const
    {
        return rowsPerBank / subarraysPerBank;
    }

    std::uint64_t
    bytesPerBank() const
    {
        return std::uint64_t(rowsPerBank) * colsPerRow * lineBytes;
    }

    std::uint64_t
    totalBytes() const
    {
        return bytesPerBank() * static_cast<std::uint64_t>(totalBanks());
    }

    /** Bank group of a flat per-rank bank id. */
    int bankGroupOf(BankId bank) const
    {
        return static_cast<int>(bank) / banksPerGroup;
    }

    /**
     * Geometry for a given per-chip capacity (gigabits), holding row size
     * and bank count fixed and scaling the row count, as DDR4 generations
     * do. refreshGroupsPerBank scales as capacity^0.3 (ROADMAP.md
     * item 2).
     */
    static Geometry forCapacityGb(double capacity_gb);
};

} // namespace hira

#endif // HIRA_DRAM_GEOMETRY_HH
