/**
 * @file
 * The polymorphic instruction-trace source interface.
 *
 * A TraceSource yields one TraceInst per next() call, or one TraceRecord
 * (a run of non-memory instructions, then at most one access) per
 * nextRecord() call, forever. Implementations are the synthetic
 * TraceGen (src/sim/trace.hh), the on-disk FileTraceSource, and the
 * pass-through TraceRecorder (src/workload/file_trace.hh). Cores pull
 * records from the interface and never care where the stream comes
 * from.
 */

#ifndef HIRA_WORKLOAD_TRACE_SOURCE_HH
#define HIRA_WORKLOAD_TRACE_SOURCE_HH

#include "common/types.hh"

namespace hira {

/** One trace instruction. */
struct TraceInst
{
    bool isMem = false;
    bool isWrite = false;
    Addr addr = 0; //!< line-aligned, within the source's address region
};

/**
 * One record of an instruction stream, the unit both trace file
 * formats store: nonMem non-memory instructions, then the access when
 * access.isMem holds. Records a source returns are never empty.
 */
struct TraceRecord
{
    std::uint64_t nonMem = 0;
    TraceInst access;
};

/** Abstract source of an instruction stream for one core. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction. Infinite: finite sources that have
     * run out (see exhausted()) keep returning non-memory instructions.
     */
    virtual TraceInst next() = 0;

    /**
     * Produce the next record; expanding the records gives the same
     * instruction stream as next() would, and the two calls share one
     * stream. The default pulls one next() per record, so a source
     * that does not override it (TraceRecorder) sees each instruction
     * pulled exactly when its consumer needs it.
     */
    virtual TraceRecord
    nextRecord()
    {
        TraceRecord rec;
        TraceInst inst = next();
        if (inst.isMem)
            rec.access = inst;
        else
            rec.nonMem = 1;
        return rec;
    }

    /**
     * Start of the address region memory accesses are mapped into.
     * TraceRecorder subtracts this when writing, so trace files store
     * region-relative addresses and replay into any core's slice.
     */
    virtual Addr regionBase() const { return 0; }

    /**
     * True once a finite, non-looping source has run dry (its next()
     * and nextRecord() now yield only non-memory instructions).
     * Unbounded sources always return false.
     */
    virtual bool exhausted() const { return false; }
};

} // namespace hira

#endif // HIRA_WORKLOAD_TRACE_SOURCE_HH
