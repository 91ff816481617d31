/**
 * @file
 * DDR4 timing parameters.
 *
 * All primary values are stored in nanoseconds (as DRAM datasheets specify
 * them) and converted to memory-bus clock cycles with ceil rounding, the
 * conservative direction a real memory controller uses. The default set
 * models DDR4-2400 CL17 with the paper's Table 3 values (tRC = 46.25 ns,
 * tFAW = 16 ns, t1 = t2 = 3 ns) and the tRFC capacity-scaling model of
 * Expression 1: tRFC = 110 * C^0.6 ns for a chip of capacity C gigabits.
 */

#ifndef HIRA_DRAM_TIMING_HH
#define HIRA_DRAM_TIMING_HH

#include <cmath>

#include "common/types.hh"

namespace hira {

/** Complete DDR4 timing parameter set plus the HiRA custom timings. */
struct TimingParams
{
    // Clock.
    double tCK = 1.0 / 1.2;       //!< bus clock period, ns (DDR4-2400)

    // Row / bank core timings (Table 3 of the paper).
    double tRCD = 14.25;          //!< ACT to RD/WR
    double tRP = 14.25;           //!< PRE to ACT
    double tRAS = 32.0;           //!< ACT to PRE (charge restoration)
    double tRC = 46.25;           //!< ACT to ACT, same bank

    // Activation rate limits.
    double tRRD_S = 3.3;          //!< ACT to ACT, different bank group
    double tRRD_L = 4.9;          //!< ACT to ACT, same bank group
    double tFAW = 16.0;           //!< four-activation window (Table 3)

    // Column timings (DDR4-2400 CL17).
    double tCL = 14.16;           //!< read latency (17 tCK)
    double tCWL = 10.0;           //!< write latency (12 tCK)
    double tBL = 3.33;            //!< burst of 8 occupies 4 tCK
    double tCCD_S = 3.33;         //!< CAS to CAS, different bank group
    double tCCD_L = 5.0;          //!< CAS to CAS, same bank group
    double tRTP = 7.5;            //!< RD to PRE
    double tWR = 15.0;            //!< write recovery (end of burst to PRE)
    double tWTR_S = 2.5;          //!< write-to-read, different bank group
    double tWTR_L = 7.5;          //!< write-to-read, same bank group
    double tRTRS = 1.67;          //!< rank-to-rank data bus switch (2 tCK)

    // Refresh.
    double tREFI = 7800.0;        //!< REF command interval
    double tRFC = 350.0;          //!< REF latency (set by setCapacityGb)
    double tREFW = 64.0e6;        //!< refresh window, 64 ms

    // HiRA custom timings (Section 4.2: reliable point t1 = t2 = 3 ns).
    double t1 = 3.0;              //!< HiRA first ACT to PRE
    double t2 = 3.0;              //!< HiRA PRE to second ACT

    /** Convert a ns value to bus cycles, rounding up. */
    Cycle
    cycles(double ns) const
    {
        return static_cast<Cycle>(std::ceil(ns / tCK - 1e-9));
    }

    /** Convert bus cycles back to ns. */
    double ns(Cycle c) const { return static_cast<double>(c) * tCK; }

    /**
     * Expression 1 of the paper: projected refresh latency for a chip of
     * the given capacity in gigabits.
     */
    static double
    scaledRfc(double capacity_gb)
    {
        return 110.0 * std::pow(capacity_gb, 0.6);
    }

    /** Apply the Expression-1 tRFC for the given chip capacity. */
    void setCapacityGb(double capacity_gb) { tRFC = scaledRfc(capacity_gb); }

    /**
     * Latency of refreshing two rows in the same bank with nominal
     * commands: ACT, wait tRAS, PRE, wait tRP, ACT, wait tRAS
     * (78.25 ns for Table 3 timings; see footnote 2).
     */
    double nominalTwoRowRefreshNs() const { return 2 * tRAS + tRP; }

    /**
     * Latency of refreshing two rows with one HiRA operation:
     * t1 + t2 + tRAS (38 ns; Section 4.2).
     */
    double hiraTwoRowRefreshNs() const { return t1 + t2 + tRAS; }

    /** Headline latency reduction of Section 4.2 (51.4 %). */
    double
    hiraLatencyReduction() const
    {
        return 1.0 - hiraTwoRowRefreshNs() / nominalTwoRowRefreshNs();
    }
};

/** DDR4-2400 defaults with tRFC set for the given chip capacity. */
TimingParams ddr4_2400(double capacity_gb = 8.0);

/**
 * DDR5-4800 preset (JESD79-5 [61], approximate datasheet values): twice
 * the bus clock, half the refresh window (32 ms) and interval (3.9 us).
 * Core row timings barely move across generations.
 */
TimingParams ddr5_4800(double capacity_gb = 16.0);

} // namespace hira

#endif // HIRA_DRAM_TIMING_HH
