/**
 * @file
 * Trace-driven core model (Table 3: 3.2 GHz, 4-wide issue, 128-entry
 * instruction window), at the same modeling altitude as Ramulator's
 * simple OOO core: non-memory instructions retire at full width, loads
 * occupy a window slot until their data returns, stores are posted.
 *
 * The window is kept as runs: a ring of entries, each a count of
 * consecutive instructions that share their completion state. The
 * non-memory instructions and stores one tick dispatches in a row
 * share one entry (they complete at that tick); each load has its own,
 * and its entry's sequence number is the tag its data return carries.
 */

#ifndef HIRA_SIM_CORE_HH
#define HIRA_SIM_CORE_HH

#include <vector>

#include "common/metrics.hh"
#include "sim/cache.hh"
#include "workload/trace_source.hh"

namespace hira {

/** One simulated core. */
class CoreModel
{
  public:
    /**
     * @param core_id core id
     * @param trace this core's trace source (owned by caller)
     * @param shared_llc the shared LLC
     * @param issue_width issue/retire width (4)
     * @param window instruction-window entries (128)
     */
    CoreModel(int core_id, TraceSource &trace, Llc &shared_llc,
              int issue_width = 4, int window = 128);

    /** Advance one CPU cycle (@p mem_now is the memory-clock time). */
    void tick(Cycle mem_now);

    /**
     * Event-engine probe: how many upcoming CPU cycles tick() is
     * guaranteed to evolve in closed form, so the event kernel can
     * fast-forward them in bulk. Two closed-form regimes exist:
     *
     * - Stalled: dispatch is blocked (window full, or the pending
     *   memory instruction is LLC-blocked) and the window head cannot
     *   retire. Each tick is exactly {++cpuCycle, ++stallCycles}.
     *   Returns the tick count until the head's readyAt unblocks
     *   retirement, or kNeverCycle when only an external data return
     *   can end the stall (the kernel wakes at the completion's cycle).
     * - Exhausted steady run: the trace has run dry (only non-memory
     *   instructions remain, per the TraceSource contract), nothing
     *   waits on memory, and every window entry is retirable. Each tick
     *   retires and re-dispatches exactly `width` instructions with no
     *   LLC interaction. Returns kNeverCycle (bounded by the caller).
     *
     * Returns 0 when the next tick must run normally. The caller must
     * invoke fastForward() with at most this many ticks before any
     * other core/LLC/controller activity occurs.
     *
     * Inline: the event kernel probes every core every executed cycle.
     */
    Cycle
    skipTicks() const
    {
        if (steadyExhausted())
            return kNeverCycle;
        // Stall regime: dispatch blocked and no retirement possible.
        bool blocked =
            occupancy >= static_cast<std::size_t>(windowSize) ||
            blockedCached;
        if (!blocked)
            return 0;
        if (occupancy == 0)
            return kNeverCycle; // LLC-blocked with an empty window
        const Entry &h = entryAt(headSeq);
        if (!h.done)
            return kNeverCycle; // head waits on memory: external wake only
        if (h.readyAt <= cpuCycle + 1)
            return 0; // next tick retires the head
        return h.readyAt - cpuCycle - 1;
    }

    /** Apply @p nticks closed-form ticks (see skipTicks()). */
    void fastForward(Cycle nticks);

    /**
     * Register this core's dense-vs-skipped observability counters
     * under @p scope ("core<i>."). ff_ticks counts CPU ticks applied in
     * closed form by fastForward(); ff_calls counts the bulk
     * applications. Retired/loads/stores/stalls are mirrored into the
     * registry at snapshot time instead (zero hot-path cost).
     */
    void
    attachMetrics(const MetricScope &scope)
    {
        ffTicksMetric = scope.counter("ff_ticks");
        ffCallsMetric = scope.counter("ff_calls");
    }

    /**
     * A missed load's data returned (tag from the access). Fatal when
     * @p tag names no load waiting in the window.
     */
    void onDataReturn(std::uint64_t tag);

    /** Begin the measurement interval. */
    void resetStats();

    std::uint64_t retiredInstructions() const { return retired; }
    Cycle cpuCycles() const { return cpuCycle; }
    double
    ipc() const
    {
        return cpuCycle == 0
                   ? 0.0
                   : static_cast<double>(retired) /
                         static_cast<double>(cpuCycle);
    }

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t stallCycles = 0; //!< cycles with zero dispatch

  private:
    /** A run of window instructions that retire alike (file comment). */
    struct Entry
    {
        std::uint32_t count = 0; //!< instructions, at least 1 while live
        bool done = false;       //!< false only for a load awaiting data
        Cycle readyAt = 0;       //!< CPU cycle the run can retire from
    };

    bool
    steadyExhausted() const
    {
        // All conditions together guarantee a closed-form tick: only
        // non-memory instructions remain (TraceSource contract once
        // exhausted() holds), nothing waits on memory, every window
        // entry is retirable (maxReadyAt is a monotone
        // over-approximation), and the window is deep enough that each
        // tick retires and re-dispatches exactly `width` instructions.
        // Ordered cheapest-reject-first; the virtual exhausted() call
        // comes last.
        return waitingMemCount == 0 && !blockedCached && !access.isMem &&
               maxReadyAt <= cpuCycle &&
               occupancy >= static_cast<std::size_t>(width) &&
               windowSize >= width && gen.exhausted();
    }

    const Entry &
    entryAt(std::uint64_t seq) const
    {
        return ring[seq & ringMask];
    }
    Entry &entryAt(std::uint64_t seq) { return ring[seq & ringMask]; }

    /** Append an entry at the tail. */
    void pushEntry(std::uint64_t count, bool done, Cycle ready_at);
    /** Retire @p n instructions from the head (all must be retirable). */
    void popInstructions(std::uint64_t n);
    /**
     * Dispatch @p n instructions that complete at this tick, into the
     * tick's shared tail entry when @p shared already names one.
     */
    void dispatchDone(std::uint64_t n, bool &shared);

    int id;
    TraceSource &gen;
    Llc &llc;
    int width;
    int windowSize;
    /** Power-of-two ring; live entries are [headSeq, tailSeq). */
    std::vector<Entry> ring;
    std::uint64_t ringMask = 0;
    std::uint64_t headSeq = 0, tailSeq = 0;
    std::size_t occupancy = 0; //!< instructions in the window
    // The trace record being dispatched: runLeft non-memory
    // instructions, then `access` while access.isMem holds.
    std::uint64_t runLeft = 0;
    TraceInst access;
    // Blocked-dispatch memo: the pending access was Blocked by the LLC
    // at capacityGeneration() == blockedGen. Until that counter moves,
    // re-probing llc.access() provably returns Blocked again (capacity
    // only shrinks between generation bumps), so tick() skips the
    // probe. Between ticks it also marks the only way an undispatched
    // instruction holds up dispatch. Pure per-core state driven by
    // deterministic LLC events: identical in both engines.
    bool blockedCached = false;
    std::uint64_t blockedGen = 0;

    // Event-engine bookkeeping: outstanding memory waits, and a
    // monotone upper bound on every readyAt ever assigned (conservative
    // retirability test without walking the window).
    std::size_t waitingMemCount = 0;
    Cycle maxReadyAt = 0;

    Cycle cpuCycle = 0;
    std::uint64_t retired = 0;

    // Observability (nullptr when metrics are off; see attachMetrics).
    Counter *ffTicksMetric = nullptr;
    Counter *ffCallsMetric = nullptr;
};

} // namespace hira

#endif // HIRA_SIM_CORE_HH
