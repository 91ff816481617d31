#include "dram/geometry.hh"

#include <cmath>

#include "common/logging.hh"

namespace {
constexpr double kRefreshWorkExponent = 0.3;
}

namespace hira {

Geometry
Geometry::forCapacityGb(double capacity_gb)
{
    hira_assert(capacity_gb > 0.0);
    Geometry g;
    g.capacityGb = capacity_gb;
    double scale = capacity_gb / 8.0;
    double rows = 65536.0 * scale;
    hira_assert(rows >= 1024.0);
    g.rowsPerBank = static_cast<std::uint32_t>(std::lround(rows));
    // External refresh work scales as C^0.3 (ROADMAP.md item 2: the
    // exponent is calibrated so HiRA-0's overhead at 128 Gb matches
    // the paper's reported 19.4 %; Expression 1's C^0.6 governs
    // the baseline's internal refresh time, not the number of
    // externally issued row refreshes). For chips below the 8 Gb anchor
    // the model would exceed one op per row; an external refresh never
    // covers less than one row, so clamp to the row count.
    g.refreshGroupsPerBank = static_cast<std::uint32_t>(
        std::lround(65536.0 * std::pow(scale, kRefreshWorkExponent)));
    if (g.refreshGroupsPerBank > g.rowsPerBank)
        g.refreshGroupsPerBank = g.rowsPerBank;
    // Keep the subarray count fixed at 128 (the paper's RefPtr Table size)
    // as long as each subarray still holds at least one row.
    g.subarraysPerBank = 128;
    if (g.rowsPerBank < g.subarraysPerBank)
        g.subarraysPerBank = g.rowsPerBank;
    return g;
}

} // namespace hira
