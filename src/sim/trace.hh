/**
 * @file
 * Synthetic instruction-trace generation.
 *
 * Substitute for SPEC CPU2006 traces (DESIGN.md): each benchmark profile
 * fixes the statistics that matter to the memory system — memory
 * intensity, read/write mix, sequential-stream fraction (row-buffer
 * locality), cache-resident hot-set fraction, and footprint. Each core
 * draws an independent, seeded stream over a private slice of the
 * physical address space (multiprogrammed workloads share nothing).
 */

#ifndef HIRA_SIM_TRACE_HH
#define HIRA_SIM_TRACE_HH

#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/trace_source.hh"

namespace hira {

/** Memory-behavior profile of one synthetic benchmark. */
struct BenchmarkProfile
{
    std::string name;
    double memPerInstr;       //!< P(instruction accesses memory)
    double writeFraction;     //!< of memory accesses
    double streamFraction;    //!< sequential-stream accesses (row locality)
    double hotFraction;       //!< accesses to the cache-resident hot set
    std::uint64_t footprintLines; //!< total working set, 64 B lines
    std::uint64_t hotLines;       //!< hot-set size, 64 B lines
};

/** Deterministic synthetic trace generator for one core. */
class TraceGen final : public TraceSource
{
  public:
    /**
     * @param profile benchmark statistics
     * @param seed per-core stream seed
     * @param base_addr start of the core's private address slice
     * @param slice_bytes size of the slice (footprint clamps to it)
     *
     * Fatal, naming the profile, when one of its fractions is not a
     * probability in [0, 1] (NaN and infinities included).
     */
    TraceGen(const BenchmarkProfile &profile, std::uint64_t seed,
             Addr base_addr, Addr slice_bytes);

    /** Generate the next instruction. */
    TraceInst next() override;

    /**
     * Generate the next record: the same draws as next() in a tight
     * loop, the non-memory run capped at kMaxRun so that a profile
     * with memPerInstr = 0 still returns.
     */
    TraceRecord nextRecord() override;

    static constexpr std::uint64_t kMaxRun = std::uint64_t(1) << 16;

    Addr regionBase() const override { return base; }

    const BenchmarkProfile &profile() const { return prof; }

  private:
    /** The draws of one memory access (after the memory-or-not draw). */
    TraceInst drawAccess();

    /** Address of line @p line_index; the index is below footprint. */
    Addr
    lineAddr(std::uint64_t line_index) const
    {
        return base + line_index * 64;
    }

    BenchmarkProfile prof;
    Rng rng;
    Addr base;
    std::uint64_t footprint;  //!< lines, clamped to the slice
    std::uint64_t hot;        //!< lines, at most footprint
    std::uint64_t streamPtr = 0; //!< always below footprint
    // Rng::chanceThreshold of the profile's fractions, for the draws.
    std::uint64_t memThreshold = 0;
    std::uint64_t writeThreshold = 0;
    std::uint64_t hotThreshold = 0;    //!< kind draw: hot set below this
    std::uint64_t streamThreshold = 0; //!< then the stream below this
};

} // namespace hira

#endif // HIRA_SIM_TRACE_HH
