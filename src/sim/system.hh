/**
 * @file
 * Full-system wiring: cores -> shared LLC -> per-channel memory
 * controllers, with the 3.2 GHz core / 1.2 GHz DDR4-2400 bus clock
 * crossing (8 CPU cycles per 3 memory cycles).
 *
 * Two simulation-loop engines share the wiring (SimEngine, HIRA_ENGINE
 * knob): the legacy dense loop ticks every component every bus cycle;
 * the event-driven kernel advances straight to the earliest of the
 * controllers' cached nextEvent() bounds and the cores' stall state,
 * fast-forwarding the skipped CPU ticks in bulk. The two
 * are bitwise-equivalent at the SystemResult level (see BUILDING.md
 * "The event-driven simulation kernel" for the component contract).
 */

#ifndef HIRA_SIM_SYSTEM_HH
#define HIRA_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/metrics.hh"
#include "core/hira_mc.hh"
#include "dram/addrmap.hh"
#include "mem/controller.hh"
#include "mem/graphene_trr.hh"
#include "mem/prac.hh"
#include "mem/rfm.hh"
#include "sim/core.hh"
#include "sim/workloads.hh"
#include "workload/file_trace.hh"

namespace hira {

class TraceEventLog;

/**
 * Simulation-loop engine. Both engines produce bitwise-identical
 * SystemResult values (pinned by tests/sim/test_engine_diff.cc); they
 * differ only in wall clock.
 */
enum class SimEngine
{
    CycleLoop, //!< legacy dense loop: tick every component every bus cycle
    EventLoop, //!< skip-ahead kernel driven by nextEvent() bounds
};

/**
 * Engine selected by the HIRA_ENGINE environment variable ("cycle" or
 * "event"; default "event"). Read on every call so tests can flip the
 * variable between runs; unknown values warn once and fall back to the
 * default.
 */
SimEngine defaultSimEngine();

/** Display name ("cycle" / "event") for logs and HIRA_JSON artifacts. */
const char *simEngineName(SimEngine engine);

/** Which refresh scheme the controllers run. */
enum class SchemeKind
{
    NoRefresh, //!< ideal, no periodic refresh (Fig. 9a baseline)
    Baseline,  //!< rank-level REF every tREFI
    HiraMc,    //!< HiRA-MC (HiRA-N via HiraMcConfig::slackN)
    Rfm,       //!< DDR5 refresh management (per-bank RAA counters)
    Prac,      //!< per-row activation counters, threshold refresh
    Graphene,  //!< Misra-Gries tracker with per-tREFI TRR refreshes
};

/** Full system configuration. */
struct SystemConfig
{
    Geometry geom = Geometry::forCapacityGb(8.0);
    TimingParams tp = ddr4_2400(8.0);
    /**
     * Registry name of the memory standard tp was built from (see
     * dram/standard.hh). Purely descriptive at the System level — tp
     * carries the actual numbers — but stamped into bench artifacts so
     * every figure names the standard it ran on.
     */
    std::string standard = "ddr4_2400";
    SchemeKind scheme = SchemeKind::Baseline;
    HiraMcConfig hira;          //!< used when scheme == HiraMc
    RfmConfig rfm;              //!< used when scheme == Rfm
    PracConfig prac;            //!< used when scheme == Prac
    GrapheneConfig graphene;    //!< used when scheme == Graphene
    ParaConfig para;            //!< immediate PARA (non-HiRA preventive)
    WorkloadMix mix;            //!< workload spec per core (registry syntax)
    std::uint64_t seed = 1;
    LlcConfig llc;
    int coreWidth = 4;
    int windowEntries = 128;
    bool recordTraces = false;  //!< feed TimingChecker recorders

    /**
     * When non-empty, dump each core's instruction stream to
     * <traceDumpDir>/core<i>.trace (text) or .bin (binary) for replay
     * through "file:" mix specs. The directory must exist; files are
     * complete once the System is destroyed.
     */
    std::string traceDumpDir;
    TraceFormat traceDumpFormat = TraceFormat::Text;

    /** Simulation-loop engine (defaults to the HIRA_ENGINE knob). */
    SimEngine engine = defaultSimEngine();

    /**
     * Instrumentation level (defaults to the HIRA_METRICS knob). Off
     * registers nothing and every metric hook degenerates to one null
     * test; Counters/Full never change simulation behavior (pinned by
     * tests/sim/test_metrics_equivalence.cc).
     */
    MetricsLevel metricsLevel = defaultMetricsLevel();
};

/**
 * Channel @p ch's controller configuration: the system's geometry and
 * timing, its PARA parameters seeded per channel, and immediate PARA
 * off for HiRA-MC (whose PreventiveRC does its own sampling). Metrics
 * stay off; System gives each controller its scope.
 */
ControllerConfig controllerConfig(const SystemConfig &cfg, int ch);

/** Post-run summary. */
struct SystemResult
{
    std::vector<double> ipc;            //!< per core, measurement interval
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    double avgReadLatencyCycles = 0.0;
    RefreshStats refresh;               //!< summed over channels
    ControllerStats controller;         //!< summed over channels
    std::uint64_t llcHits = 0, llcMisses = 0;
};

/**
 * Simulation-loop observability (not part of the cycle/event
 * equivalence contract, which covers SystemResult only). The
 * skip-ahead regression guard in tests/sim/test_engine_diff.cc asserts
 * executedCycles < simulatedCycles on an idle-heavy config.
 */
struct SimLoopStats
{
    std::uint64_t simulatedCycles = 0; //!< bus cycles advanced in total
    std::uint64_t executedCycles = 0;  //!< loop iterations that ran phases
    std::uint64_t skippedCycles = 0;   //!< bus cycles fast-forwarded
    std::uint64_t ctrlTicks = 0;       //!< MemoryController::tick calls
};

/** The simulated system. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /** Advance @p cycles memory-bus cycles. */
    void run(Cycle cycles);

    /** Reset measurement statistics (end of warmup). */
    void resetStats();

    /** Collect the post-run summary. */
    SystemResult result() const;

    MemoryController &controller(int ch) { return *controllers[ch]; }
    int channels() const { return static_cast<int>(controllers.size()); }
    CoreModel &core(int i) { return *cores[i]; }
    Cycle now() const { return memCycle; }
    SimEngine engine() const { return cfg.engine; }
    const SimLoopStats &loopStats() const { return loopStats_; }

    /**
     * Capture the full metrics state: live counters (kernel skip
     * lengths, controller row hits, PR-FIFO depths, ...) plus
     * snapshot-time mirrors of every stats struct the simulator already
     * keeps (ControllerStats command mix, RefreshStats, LLC, per-core
     * retire/stall counts, SimLoopStats) — the mirrors cost nothing on
     * the hot path. Empty when metricsLevel is Off. Values are
     * cumulative since construction; callers scope intervals with
     * MetricsSnapshot::diff.
     */
    MetricsSnapshot metricsSnapshot();
    MetricsLevel metricsLevel() const { return cfg.metricsLevel; }

  private:
    std::unique_ptr<RefreshScheme> makeScheme() const;
    bool route(const Request &req);
    void runCycle(Cycle cycles);
    void runEvent(Cycle cycles);
    void executeCycle(bool all_controllers);
    void drainCompletions(MemoryController &ctrl);
    Cycle firstActionableCycle() const;

    SystemConfig cfg;
    AddressMapper mapper;
    std::vector<std::unique_ptr<MemoryController>> controllers;
    std::unique_ptr<Llc> llc;
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<std::unique_ptr<CoreModel>> cores;

    Cycle memCycle = 0;
    std::uint64_t cpuAccum = 0; //!< 8/3 clock-ratio accumulator
    SimLoopStats loopStats_;

    // Observability. The registry is owned per System instance (not
    // thread-safe; concurrent sweeps each own theirs) and is null when
    // metrics are Off. The kernel's live metrics are only touched on
    // the event engine's skip/execute decisions; everything else is
    // mirrored in at metricsSnapshot() time.
    std::unique_ptr<MetricRegistry> metrics_;
    HistogramMetric *mSkipLen = nullptr; //!< bus cycles per bulk skip
    Counter *mLlcStallSkips = nullptr;   //!< skips w/ rejection accrual
    // Trace-event sampling: cached pointer to the enabled global log
    // (null when tracing is off) and a countdown on executed cycles.
    TraceEventLog *tracer_ = nullptr;
    std::uint64_t traceSampleCountdown_ = 0;
};

} // namespace hira

#endif // HIRA_SIM_SYSTEM_HH
