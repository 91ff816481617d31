/**
 * @file
 * Content-addressed, file-backed cache of sweep results.
 *
 * The determinism work of PRs 3/5 made every simulation a pure
 * function of its inputs: per-run seeds derive injectively from
 * (geometry key, scheme seed-key, mix index), the event engine is
 * bitwise-equivalent to its dense-loop oracle, and trace files are
 * keyed by their identity on disk. That is what makes memoizing
 * PointResults sound — and this cache is that memo, shared across
 * processes through a directory of single-file entries committed by
 * atomic rename.
 *
 * Keys are canonical multi-line strings covering every
 * behavior-affecting input (see SweepPoint::cacheKey in
 * sim/experiment.hh and aloneResultCacheKey below): run seeds (via the
 * geometry/scheme keys they derive from), the fully-resolved mix specs
 * including trace-file size and mtime and "?once" options, warmup and
 * measured cycles, metrics level, the memory standard, and a
 * code-revision stamp (the configure-time git rev, so a rebuilt
 * simulator never serves stale numbers). The entry file stores
 * the full key and is rejected as stale when it does not match the
 * lookup key — a hash collision or a tampered file can never alias.
 *
 * Knob: HIRA_RESULT_CACHE=<dir> enables the cache, reading and
 * writing, for every SweepRunner in the process; unset, there is no
 * cache. Corrupt or truncated entries are treated as misses (warned
 * once, counted), never trusted.
 */

#ifndef HIRA_SIM_RESULT_CACHE_HH
#define HIRA_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.hh"
#include "sim/experiment.hh"

namespace hira {

/**
 * The code-revision stamp folded into every cache key: the
 * HIRA_CACHE_REV environment variable when set (tests pin golden keys
 * with it), else the configure-time git revision compiled into the
 * library — the same stamp HIRA_JSON artifacts carry.
 */
std::string codeRevision();

/** Lookup/store counters (also exposed as a metrics snapshot). */
struct ResultCacheStats
{
    std::uint64_t hits = 0;    //!< lookups served
    std::uint64_t misses = 0;  //!< lookups with no entry on disk
    std::uint64_t stale = 0;   //!< entries rejected on key mismatch
    std::uint64_t corrupt = 0; //!< entries rejected as unparseable
    std::uint64_t writes = 0;  //!< entries committed
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
};

/**
 * The cache: a directory of content-addressed entry files (the key's
 * hash names the file; the file repeats the key for verification).
 * Thread-safe; one instance may be shared by every thread of a sweep.
 * Concurrent writers — including other processes sharing the
 * directory — are safe because entries are written to a temp file and
 * committed by rename(2), and any two writers of one key write
 * identical bytes (determinism).
 */
class ResultCache
{
  public:
    explicit ResultCache(std::string dir);

    /**
     * Cache configured by the environment: nullptr unless
     * HIRA_RESULT_CACHE names a directory.
     */
    static std::unique_ptr<ResultCache> fromEnv();

    const std::string &dir() const { return dir_; }

    /** Point-result lookup; true and fills @p out on a hit. */
    bool lookupPoint(const std::string &key, PointResult &out);

    /** Persist @p r under @p key. */
    void storePoint(const std::string &key, const PointResult &r);

    /** Alone-IPC lookup; true and fills @p ipc on a hit. */
    bool lookupAlone(const std::string &key, double &ipc);

    /** Persist an alone-IPC value. */
    void storeAlone(const std::string &key, double ipc);

    ResultCacheStats stats() const;

    /**
     * The counters as a PR-7 metrics snapshot ("result_cache.hits",
     * ...), mergeable into sweep artifacts.
     */
    MetricsSnapshot metricsSnapshot() const;

    // Entry-file paths for a key (test hooks: stale/corrupt injection).
    std::string pointPath(const std::string &key) const;
    std::string alonePath(const std::string &key) const;

  private:
    bool lookupEntry(const std::string &key, bool is_point,
                     PointResult &point, double &ipc);
    void storeEntry(const std::string &key, bool is_point,
                    const PointResult &point, double ipc);

    std::string dir_;

    mutable std::mutex mutex_;
    ResultCacheStats stats_;
};

/**
 * Canonical key of one mix-spec entry as it contributes to a cache
 * key: synthetic pool names verbatim; "file:" and "corpus:" specs
 * (with or without options) with the size and nanosecond mtime of the
 * trace file they resolve to folded in, plus the manifest's file and
 * intensity class for a corpus spec. A trace rewritten in place, or
 * two corpora giving one name to different traces, therefore never
 * share cache entries. Fatal, naming the spec, when the trace file
 * cannot be stat'ed, or when a corpus spec has no active corpus or
 * unknown name, like the workload registry itself.
 */
std::string resolvedMixSpecKey(const std::string &spec);

/**
 * Canonical cache key of the IPC-alone run of @p bench on @p geom
 * (the persistent companion of aloneIpcCacheKey(), which keys the
 * in-memory single-flight cache). Golden strings are pinned in
 * tests/sim/test_result_cache.cc.
 */
std::string aloneResultCacheKey(const std::string &bench,
                                const GeomSpec &geom,
                                const BenchKnobs &knobs);

} // namespace hira

#endif // HIRA_SIM_RESULT_CACHE_HH
