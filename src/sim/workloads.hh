/**
 * @file
 * The synthetic benchmark pool (SPEC CPU2006-inspired; see BUILDING.md,
 * "Trace-driven workloads") and the multiprogrammed mix generator (the
 * paper's 125 randomly chosen 8-core workloads, Section 7).
 */

#ifndef HIRA_SIM_WORKLOADS_HH
#define HIRA_SIM_WORKLOADS_HH

#include <vector>

#include "sim/trace.hh"

namespace hira {

/** The full benchmark pool (18 profiles spanning the SPEC spectrum). */
const std::vector<BenchmarkProfile> &benchmarkPool();

/** Look up a profile by name; fatal on unknown names. */
const BenchmarkProfile &benchmarkByName(const std::string &name);

/** One multiprogrammed workload: benchmark names, one per core. */
using WorkloadMix = std::vector<std::string>;

/**
 * Generate @p count random mixes of @p cores benchmarks each, seeded
 * (mix i is identical across runs and machines).
 */
std::vector<WorkloadMix> makeMixes(int count, int cores,
                                   std::uint64_t seed = 0x5eed5);

} // namespace hira

#endif // HIRA_SIM_WORKLOADS_HH
