#include "dram/timing.hh"

namespace hira {

TimingParams
ddr4_2400(double capacity_gb)
{
    TimingParams tp;
    tp.setCapacityGb(capacity_gb);
    return tp;
}

TimingParams
ddr5_4800(double capacity_gb)
{
    TimingParams tp;
    tp.tCK = 1.0 / 2.4;
    tp.tRCD = 14.16;
    tp.tRP = 14.16;
    tp.tRAS = 32.0;
    tp.tRC = 46.16;
    tp.tRRD_S = 2.5;
    tp.tRRD_L = 5.0;
    tp.tFAW = 13.33;   // 32 tCK for x8 devices
    tp.tCL = 14.16;    // CL34
    tp.tCWL = 13.33;
    tp.tBL = 3.33;     // BL16 at double the data rate
    tp.tCCD_S = 3.33;
    tp.tCCD_L = 5.0;
    tp.tRTP = 7.5;
    tp.tWR = 30.0;
    tp.tWTR_S = 2.5;
    tp.tWTR_L = 10.0;
    tp.tRTRS = 0.83;
    tp.tREFI = 3900.0; // half of DDR4 (Section 2.3)
    tp.tREFW = 32.0e6;
    tp.setCapacityGb(capacity_gb);
    return tp;
}

} // namespace hira
