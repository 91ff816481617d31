/**
 * @file
 * Experiment runner for the evaluation sweeps (Sections 7-10): builds
 * systems from compact specs, runs warmup + measurement, computes
 * weighted speedup [31, 156] against cached single-core IPC-alone runs,
 * and shards whole sweep grids over a persistent thread pool.
 */

#ifndef HIRA_SIM_EXPERIMENT_HH
#define HIRA_SIM_EXPERIMENT_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/knobs.hh"
#include "common/rng.hh"
#include "common/worker_pool.hh"
#include "dram/standard.hh"
#include "security/para_analysis.hh"
#include "sim/system.hh"

namespace hira {

class ResultCache;

/** Memory-system geometry of one experiment point. */
struct GeomSpec
{
    double capacityGb = 8.0;
    int channels = 1;
    int ranks = 1;
    /**
     * Memory-standard registry name (dram/standard.hh) the timing
     * parameters come from. Defaults to the HIRA_STANDARD knob (or
     * DDR4-2400), so every bench driver sweeps the selected standard
     * without its own plumbing.
     */
    std::string standard = defaultStandardName();

    Geometry toGeometry() const;
    TimingParams toTiming() const;
    std::string key() const;
};

/** Refresh / defense configuration of one experiment point. */
struct SchemeSpec
{
    SchemeKind kind = SchemeKind::Baseline;
    int slackN = 2;            //!< HiRA-N

    bool paraEnabled = false;  //!< PARA preventive refreshes
    double nrh = 1024.0;       //!< RowHammer threshold for pth
    bool preventiveViaHira = false; //!< PreventiveRC vs immediate PARA

    // Ablation switches.
    bool accessPairing = true;
    bool refreshPairing = true;
    bool pullAhead = true;
    double sptIsolation = 0.32;

    // Mitigation-zoo knobs (covered by the registry's seed-key
    // suffixes; see sim/scheme_registry.hh).
    int raaimt = 32;         //!< RFM: ACTs per bank per RFM
    int pracThreshold = 256; //!< PRAC: per-row activation threshold
    int trackerSize = 16;    //!< Graphene: Misra-Gries entries per bank

    std::string label() const;

    /**
     * Deterministic key of every behavior-affecting field, used to
     * seed per-run RNG streams. label() is for humans and collapses
     * distinct points (e.g. all Baseline+PARA(HiRA) thresholds share
     * one label), so it must never feed the seed.
     */
    std::string seedKey() const;

    /**
     * Fatal, naming @p where, unless the spec runs as labelled. Two
     * combinations would silently run something else: immediate PARA
     * on HiRA-MC (its controller samples the victims and discards
     * them, leaving PARA to PreventiveRC) and PARA(HiRA) on anything
     * but Baseline or HiRA-MC (it would run Baseline REF plus HiRA-MC's
     * PARA sampler under the original scheme's label).
     */
    void validate(const std::string &where) const;
};

/** Result of one (mix, geometry, scheme) simulation. */
struct RunResult
{
    SystemResult sys;
    /** Wall clock spent simulating (construction + warmup + run). */
    double wallSeconds = 0.0;
    /** Memory-bus cycles simulated (warmup + measurement). */
    std::uint64_t simCycles = 0;
    /**
     * Metrics scoped to the measurement interval (the post-warmup
     * snapshot is diffed away). Empty when HIRA_METRICS is off.
     */
    MetricsSnapshot metrics;
};

/** One (geometry, scheme) point of a sweep grid. */
struct SweepPoint
{
    GeomSpec geom;
    SchemeSpec scheme;

    /**
     * Canonical result-cache key of this point when evaluated with
     * @p knobs over @p mixes: a multi-line string covering every
     * behavior-affecting input (code revision, geometry key and
     * standard, scheme seed-key, engine/metrics selection, warmup and
     * measured cycles, and the fully-resolved mix specs — see
     * sim/result_cache.hh). Tools, hira_sweep, and SweepRunner all
     * derive keys through this one function so they can never disagree
     * on field ordering; golden strings are pinned in
     * tests/sim/test_result_cache.cc. Thread count is deliberately
     * absent (results are bitwise thread-count-independent), as is
     * knobs.rows (unused by sweep simulations).
     */
    std::string cacheKey(const BenchKnobs &knobs,
                         const std::vector<WorkloadMix> &mixes) const;
};

/** Per-point outcome of SweepRunner::runPoints(). */
struct PointResult
{
    double meanWs = 0.0;   //!< mean weighted speedup over the mixes
    RefreshStats refresh;  //!< refresh stats summed over the mixes
    /**
     * Wall clock summed over the point's mix simulations (CPU-seconds
     * when the pool shards them across threads; IPC-alone warmups are
     * shared across points and not attributed). With simCycles this
     * gives the point's cycles/second — the perf trajectory HIRA_JSON
     * artifacts record per sweep point (bench/bench_util.hh).
     */
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0; //!< bus cycles summed over the mixes
    /**
     * Per-run metrics merged over the point's mixes in mix order
     * (counters and histogram bins sum). Empty when HIRA_METRICS is
     * off. HIRA_JSON drivers surface this as the point's "metrics"
     * object (bench/bench_util.hh).
     */
    MetricsSnapshot metrics;
    /**
     * True when the point was served from the result cache instead of
     * simulated. Not part of the cached payload (a stored entry always
     * re-loads with cacheHit = true); on a hit, wallSeconds/simCycles
     * report the ORIGINAL simulation's cost, with this flag marking the
     * row as replayed (bench timing rows record it as "cache_hit").
     */
    bool cacheHit = false;
};

/**
 * The "refresh" JSON object of HIRA_JSON artifacts
 * (bench/bench_util.hh) and hira_sweep results: every RefreshStats
 * counter under its field-list name, {"ref_commands": N, ...}.
 */
std::string refreshStatsJson(const RefreshStats &rs);

/**
 * RNG seed of mix @p mixIndex at one (geometry, scheme) sweep point.
 *
 * The geometry key and the scheme's seedKey() are folded in so that no
 * two distinct sweep points share per-mix RNG streams (they did before
 * PR 3, correlating every point of a sweep). Pure function of its
 * inputs — the golden values in tests/sim/test_experiment.cc pin it on
 * every platform.
 */
inline std::uint64_t
sweepRunSeed(const std::string &geomKey, const std::string &schemeKey,
             std::size_t mixIndex)
{
    return hashCombine(hashCombine(hashString(geomKey),
                                   hashString(schemeKey)),
                       hashCombine(0x9152, mixIndex));
}

/**
 * Cache/seed key of the IPC-alone run of workload @p bench on @p geom.
 * SweepRunner::aloneIpc keys its cache and seeds the reference run
 * with hashString() of this string; tools/hira_tracegen replicates it
 * so a manifest's alone-IPC prior equals what a sweep would measure.
 */
inline std::string
aloneIpcCacheKey(const std::string &bench, const GeomSpec &geom)
{
    return bench + "|" + geom.key();
}

/** Assemble a SystemConfig from the compact specs. */
SystemConfig makeSystemConfig(const GeomSpec &geom, const SchemeSpec &scheme,
                              const WorkloadMix &mix, std::uint64_t seed);

/** Run one simulation (warmup + measurement). */
RunResult runOne(const SystemConfig &cfg, Cycle warmup, Cycle measure);

/**
 * Weighted speedup: sum_i IPC_shared_i / IPC_alone_i. Fatal on
 * non-positive or non-finite alone IPC (a degenerate workload, e.g. an
 * instantly-exhausted "file:" trace) instead of returning inf/NaN;
 * @p context names the offending run in the diagnostic.
 */
double weightedSpeedup(const std::vector<double> &ipc_shared,
                       const std::vector<double> &ipc_alone,
                       const std::string &context = std::string());

/**
 * Sweep executor: drivers declare a grid of (geometry, scheme) points
 * and the runner flattens (point x mix) simulations — plus the
 * deduplicated IPC-alone warmup runs — into one queue drained by a
 * single persistent worker pool (knobs.threads wide). The IPC-alone
 * cache is shared across all points of the runner, keyed
 * "bench|geom", with single-flight per key so concurrent shards never
 * duplicate an alone run.
 *
 * Results are bitwise independent of the thread count: every
 * simulation's seed is a pure function of (geometry, scheme, mix
 * index) via sweepRunSeed(), results land in per-index slots, and
 * reductions run on the calling thread in index order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const BenchKnobs &knobs);

    /**
     * Evaluate an explicit mix set instead of the generated one. Mix
     * entries are workload specs (pool names or "file:" traces, see
     * src/workload/registry.hh); synthetic and file-backed workloads
     * can share a mix.
     */
    SweepRunner(const BenchKnobs &knobs, std::vector<WorkloadMix> mixes);

    ~SweepRunner(); // out of line: ResultCache is incomplete here

    /** The mixes this runner evaluates (knobs.mixes of the 125). */
    const std::vector<WorkloadMix> &mixes() const { return mixes_; }

    /**
     * Evaluate every point of the plan, sharding all (point x mix)
     * work items across the worker pool at once. Results are in plan
     * order. Worker exceptions are rethrown on the calling thread
     * (first one wins); a fatal() in a worker still exits the process.
     */
    std::vector<PointResult> runPoints(const std::vector<SweepPoint> &plan);

    /**
     * Mean weighted speedup of the scheme on the geometry across the
     * runner's mixes. Thin wrapper over a single-point runPoints().
     */
    double meanWs(const GeomSpec &geom, const SchemeSpec &scheme);

    /**
     * Cached single-core IPC of @p bench alone on @p geom (the
     * weighted-speedup denominator). A "corpus:" workload whose
     * manifest entry carries an alone-IPC prior resolves to the prior
     * without simulating (the prior is the trace's geometry-independent
     * reference IPC; see src/workload/corpus.hh). Otherwise computes
     * and caches on miss; concurrent callers of the same key block on
     * the one in-flight run (single-flight). Fatal if the run yields a
     * non-positive or non-finite IPC, naming the benchmark and
     * geometry.
     */
    double aloneIpc(const std::string &bench, const GeomSpec &geom);

    /** IPC-alone simulations actually run (test hook: cache/dedup). */
    std::uint64_t aloneRunCount() const { return aloneRuns.load(); }

    /**
     * Replace the result cache (tests and the daemon pass an explicit
     * directory; nullptr disables caching). Both constructors install
     * ResultCache::fromEnv(), so HIRA_RESULT_CACHE enables caching for
     * every runner with no driver changes.
     */
    void setResultCache(std::unique_ptr<ResultCache> cache);

    /** The active result cache, or nullptr (stats/metrics access). */
    ResultCache *resultCache() const { return resultCache_.get(); }

    /** Plan points actually simulated by runPoints() (cache misses). */
    std::uint64_t pointsSimulated() const { return pointsSimulated_.load(); }

    /** Plan points served from the result cache by runPoints(). */
    std::uint64_t pointsFromCache() const { return pointsFromCache_.load(); }

  private:
    /**
     * Install workload @p bench's manifest alone-IPC prior (if any)
     * into the cache as a ready slot under @p key; true on install.
     * Caller must hold cacheMutex. The single cache-seeding path for
     * both aloneIpc() and the runPoints() prescan.
     */
    bool primePriorLocked(const std::string &key, const std::string &bench);

    BenchKnobs knobs;
    std::vector<WorkloadMix> mixes_;
    WorkerPool pool;

    /** Single-flight IPC-alone cache slot ("bench|geom" key). */
    struct AloneSlot
    {
        double ipc = 0.0;
        bool ready = false; //!< false: leader still computing
    };
    std::map<std::string, AloneSlot> aloneCache;
    std::mutex cacheMutex;
    std::condition_variable cacheCv;
    std::atomic<std::uint64_t> aloneRuns{0};

    /** Persistent cross-run result cache (nullptr when disabled). */
    std::unique_ptr<ResultCache> resultCache_;
    std::atomic<std::uint64_t> pointsSimulated_{0};
    std::atomic<std::uint64_t> pointsFromCache_{0};
};

} // namespace hira

#endif // HIRA_SIM_EXPERIMENT_HH
