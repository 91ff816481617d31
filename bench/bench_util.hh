/**
 * @file
 * Shared helpers for the benchmark harnesses: headered series printing
 * in the layout of the paper's tables/figures, and paper-vs-measured
 * annotation.
 *
 * When HIRA_JSON=<dir> is set, every series the driver prints is also
 * captured and written to <dir>/BENCH_<driver>.json on footer() —
 * title, knob scale, git revision (configure-time), sections with
 * columns and rows — so figure trajectories can be tracked across PRs
 * without scraping stdout.
 */

#ifndef HIRA_BENCH_BENCH_UTIL_HH
#define HIRA_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "common/json.hh"
#include "common/knobs.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace_events.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "workload/corpus.hh"

#ifndef HIRA_GIT_REV
#define HIRA_GIT_REV "unknown"
#endif

namespace hira {
namespace benchutil {

using hira::strprintf;

namespace detail {

/** One seriesHeader() + its seriesRow()s. */
struct JsonSection
{
    std::string label;
    std::vector<std::string> columns;
    std::vector<std::pair<std::string, std::vector<double>>> rows;
};

/** One sweep point's wall-clock record (see recordPointTiming). */
struct TimingRow
{
    std::string label;
    std::string point; //!< unique point id (see pointId)
    double simSeconds = 0.0;
    std::uint64_t simulatedCycles = 0;
    bool cacheHit = false; //!< served from the result cache
};

/** Result-cache outcome of a driver's sweeps (see recordCacheStats). */
struct CacheRecord
{
    bool have = false;   //!< a cache-enabled runner was recorded
    std::string mode;    //!< "readwrite" with a cache, else "off"
    ResultCacheStats stats;
    std::uint64_t pointsSimulated = 0;
    std::uint64_t pointsFromCache = 0;
};

/** One sweep point's stats record (see recordPointStats). */
struct PointRow
{
    std::string label;
    std::string point; //!< unique point id (see pointId)
    RefreshStats refresh;
    MetricsSnapshot metrics; //!< empty unless HIRA_METRICS is on
};

/** Capture state for the optional BENCH_<driver>.json artifact. */
struct JsonCapture
{
    std::string dir;   //!< empty: capture disabled
    std::string title;
    std::string paperRef;
    bool haveKnobs = false;
    BenchKnobs knobs;
    std::vector<JsonSection> sections;
    std::vector<std::string> notes;
    std::vector<TimingRow> timing;
    std::vector<PointRow> points;
    CacheRecord cache;
    bool written = false;
};

inline JsonCapture &
capture()
{
    static JsonCapture c;
    return c;
}

inline std::string
driverName()
{
#if defined(__GLIBC__)
    return program_invocation_short_name;
#elif defined(__APPLE__) || defined(__FreeBSD__)
    return getprogname();
#else
    return "bench"; // unknown libc: drivers share one JSON file
#endif
}

/** JSON has no NaN/Inf literals; emit null for them. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    return strprintf("%.9g", v);
}

inline void
writeJson()
{
    JsonCapture &cap = capture();
    if (cap.dir.empty() || cap.written)
        return;
    cap.written = true;
    // Best-effort: a missing directory is created one level deep.
    ::mkdir(cap.dir.c_str(), 0777);
    std::string path = cap.dir + "/BENCH_" + driverName() + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("HIRA_JSON: cannot write %s: %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    std::fprintf(f, "{\n  \"driver\": \"%s\",\n  \"git_rev\": \"%s\",\n",
                 jsonEscape(driverName()).c_str(),
                 jsonEscape(HIRA_GIT_REV).c_str());
    std::fprintf(f, "  \"title\": \"%s\",\n  \"reproduces\": \"%s\",\n",
                 jsonEscape(cap.title).c_str(),
                 jsonEscape(cap.paperRef).c_str());
    std::fprintf(f, "  \"engine\": \"%s\",\n",
                 simEngineName(defaultSimEngine()));
    std::fprintf(f, "  \"metrics_level\": \"%s\",\n",
                 metricsLevelName(defaultMetricsLevel()));
    // Always present so artifact consumers (the CI warm-cache check)
    // never have to special-case its absence: mode "off" when no
    // cache-enabled runner was recorded.
    if (cap.cache.have) {
        const ResultCacheStats &cs = cap.cache.stats;
        std::fprintf(
            f,
            "  \"result_cache\": {\"mode\": \"%s\", "
            "\"points_simulated\": %llu, \"points_from_cache\": %llu, "
            "\"hits\": %llu, \"misses\": %llu, \"stale\": %llu, "
            "\"corrupt\": %llu, \"writes\": %llu, "
            "\"bytes_read\": %llu, \"bytes_written\": %llu},\n",
            jsonEscape(cap.cache.mode).c_str(),
            static_cast<unsigned long long>(cap.cache.pointsSimulated),
            static_cast<unsigned long long>(cap.cache.pointsFromCache),
            static_cast<unsigned long long>(cs.hits),
            static_cast<unsigned long long>(cs.misses),
            static_cast<unsigned long long>(cs.stale),
            static_cast<unsigned long long>(cs.corrupt),
            static_cast<unsigned long long>(cs.writes),
            static_cast<unsigned long long>(cs.bytesRead),
            static_cast<unsigned long long>(cs.bytesWritten));
    } else {
        std::fprintf(f, "  \"result_cache\": {\"mode\": \"off\"},\n");
    }
    if (cap.haveKnobs) {
        std::fprintf(f,
                     "  \"knobs\": {\"mixes\": %d, \"cycles\": %lld, "
                     "\"warmup\": %lld, \"rows\": %d, \"threads\": %d, "
                     "\"cores\": %d},\n",
                     cap.knobs.mixes,
                     static_cast<long long>(cap.knobs.cycles),
                     static_cast<long long>(cap.knobs.warmup),
                     cap.knobs.rows, cap.knobs.threads, cap.knobs.cores);
    }
    std::fprintf(f, "  \"notes\": [");
    for (std::size_t i = 0; i < cap.notes.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                     jsonEscape(cap.notes[i]).c_str());
    }
    std::fprintf(f, "],\n");
    // Per-sweep-point wall clock: the perf trajectory across PRs.
    std::fprintf(f, "  \"timing\": [\n");
    double total_sec = 0.0;
    std::uint64_t total_cycles = 0;
    for (std::size_t i = 0; i < cap.timing.size(); ++i) {
        const TimingRow &t = cap.timing[i];
        total_sec += t.simSeconds;
        total_cycles += t.simulatedCycles;
        double rate = t.simSeconds > 0.0
                          ? static_cast<double>(t.simulatedCycles) /
                                t.simSeconds
                          : 0.0;
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"point\": \"%s\", "
                     "\"sim_seconds\": %s, "
                     "\"simulated_cycles\": %llu, "
                     "\"cycles_per_sec\": %s, \"cache_hit\": %s},\n",
                     jsonEscape(t.label).c_str(),
                     jsonEscape(t.point).c_str(),
                     jsonNumber(t.simSeconds).c_str(),
                     static_cast<unsigned long long>(t.simulatedCycles),
                     jsonNumber(rate).c_str(),
                     t.cacheHit ? "true" : "false");
    }
    std::fprintf(f,
                 "    {\"label\": \"total\", \"sim_seconds\": %s, "
                 "\"simulated_cycles\": %llu, \"cycles_per_sec\": %s}\n"
                 "  ],\n",
                 jsonNumber(total_sec).c_str(),
                 static_cast<unsigned long long>(total_cycles),
                 jsonNumber(total_sec > 0.0
                                ? static_cast<double>(total_cycles) /
                                      total_sec
                                : 0.0)
                     .c_str());
    // Per-sweep-point simulator stats: the PR 4/6 fidelity counters
    // (RefreshStats, including preventive_dropped) always, plus the
    // HIRA_METRICS registry snapshot when one was captured. The CI
    // bitwise metrics-on/off check compares "sections" only — these
    // records are allowed (and expected) to differ with the knob.
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < cap.points.size(); ++i) {
        const PointRow &p = cap.points[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"point\": \"%s\", "
                     "\"refresh\": %s",
                     jsonEscape(p.label).c_str(), jsonEscape(p.point).c_str(),
                     refreshStatsJson(p.refresh).c_str());
        if (!p.metrics.empty()) {
            std::fprintf(f, ",\n     \"metrics\": {");
            bool first = true;
            for (const auto &kv : p.metrics.values) {
                const MetricValue &v = kv.second;
                std::fprintf(f, "%s\n      \"%s\": ", first ? "" : ",",
                             jsonEscape(kv.first).c_str());
                first = false;
                switch (v.kind) {
                  case MetricValue::Kind::Counter:
                    std::fprintf(
                        f, "%llu",
                        static_cast<unsigned long long>(v.count));
                    break;
                  case MetricValue::Kind::Gauge:
                    std::fprintf(f, "%s", jsonNumber(v.value).c_str());
                    break;
                  case MetricValue::Kind::Histogram:
                    std::fprintf(
                        f,
                        "{\"count\": %llu, \"sum\": %s, \"lo\": %s, "
                        "\"hi\": %s, \"bins\": [",
                        static_cast<unsigned long long>(v.count),
                        jsonNumber(v.value).c_str(),
                        jsonNumber(v.lo).c_str(),
                        jsonNumber(v.hi).c_str());
                    for (std::size_t b = 0; b < v.bins.size(); ++b) {
                        std::fprintf(
                            f, "%s%llu", b > 0 ? ", " : "",
                            static_cast<unsigned long long>(v.bins[b]));
                    }
                    std::fprintf(f, "]}");
                    break;
                }
            }
            std::fprintf(f, "\n     }");
        }
        std::fprintf(f, "}%s\n", i + 1 < cap.points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"sections\": [\n");
    for (std::size_t s = 0; s < cap.sections.size(); ++s) {
        const JsonSection &sec = cap.sections[s];
        std::fprintf(f, "    {\"label\": \"%s\", \"columns\": [",
                     jsonEscape(sec.label).c_str());
        for (std::size_t i = 0; i < sec.columns.size(); ++i) {
            std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                         jsonEscape(sec.columns[i]).c_str());
        }
        std::fprintf(f, "], \"rows\": [\n");
        for (std::size_t r = 0; r < sec.rows.size(); ++r) {
            std::fprintf(f, "      {\"label\": \"%s\", \"values\": [",
                         jsonEscape(sec.rows[r].first).c_str());
            const std::vector<double> &vals = sec.rows[r].second;
            for (std::size_t i = 0; i < vals.size(); ++i) {
                std::fprintf(f, "%s%s", i > 0 ? ", " : "",
                             jsonNumber(vals[i]).c_str());
            }
            std::fprintf(f, "]}%s\n", r + 1 < sec.rows.size() ? "," : "");
        }
        std::fprintf(f, "    ]}%s\n",
                     s + 1 < cap.sections.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    inform("HIRA_JSON: wrote %s", path.c_str());
}

} // namespace detail

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("-----------------------------------------------------------"
                "---------------------\n");
    detail::JsonCapture &cap = detail::capture();
    const char *dir = std::getenv("HIRA_JSON");
    cap.dir = dir != nullptr ? dir : "";
    cap.title = title;
    cap.paperRef = paper_ref;
}

inline void
knobsLine(const BenchKnobs &k)
{
    std::printf("scale: HIRA_MIXES=%d HIRA_CYCLES=%lld HIRA_WARMUP=%lld "
                "HIRA_ROWS=%d HIRA_THREADS=%d HIRA_CORES=%d (paper scale: "
                "125 mixes, 200M instrs, 6K rows, 8 cores)\n",
                k.mixes, static_cast<long long>(k.cycles),
                static_cast<long long>(k.warmup), k.rows, k.threads,
                k.cores);
    detail::capture().knobs = k;
    detail::capture().haveKnobs = true;
}

inline void
seriesHeader(const std::string &label,
             const std::vector<std::string> &columns)
{
    std::printf("%-24s", label.c_str());
    for (const std::string &c : columns)
        std::printf("%9s", c.c_str());
    std::printf("\n");
    detail::JsonSection sec;
    sec.label = label;
    sec.columns = columns;
    detail::capture().sections.push_back(std::move(sec));
}

/** Print one row of a fixed-width series table. */
inline void
seriesRow(const std::string &label, const std::vector<double> &values,
          const char *fmt = "%9.3f")
{
    std::printf("%-24s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
    detail::JsonCapture &cap = detail::capture();
    if (cap.sections.empty())
        cap.sections.push_back(detail::JsonSection{});
    cap.sections.back().rows.emplace_back(label, values);
}

inline void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
    detail::capture().notes.push_back(text);
}

/**
 * Unique identity of a sweep point in artifacts: the geometry key plus
 * the scheme seed-key, which together cover every behavior-affecting
 * field (labels do not: "Baseline+PARA" names every NRH).
 */
inline std::string
pointId(const SweepPoint &p)
{
    return p.geom.key() + "|" + p.scheme.seedKey();
}

/**
 * Record one sweep point's wall clock for the HIRA_JSON artifact's
 * "timing" block (sim seconds, simulated cycles; cycles/sec and a
 * total row are derived at write time). SweepGrid::run() records every
 * plan point automatically; call directly for hand-rolled sweeps.
 * @p point is the point's pointId().
 */
inline void
recordPointTiming(const std::string &label, const std::string &point,
                  double sim_seconds, std::uint64_t simulated_cycles,
                  bool cache_hit = false)
{
    detail::TimingRow t;
    t.label = label;
    t.point = point;
    t.simSeconds = sim_seconds;
    t.simulatedCycles = simulated_cycles;
    t.cacheHit = cache_hit;
    detail::capture().timing.push_back(std::move(t));
}

/**
 * Record @p runner's result-cache outcome for the HIRA_JSON artifact's
 * "result_cache" block (mode, hit/miss/stale/corrupt/write counters,
 * and the points simulated vs served from cache). SweepGrid::run()
 * records automatically; call directly after hand-rolled runPoints()
 * sweeps. Cumulative per runner, so the last call per driver wins —
 * which is what a multi-sweep driver sharing one runner wants.
 */
inline void
recordCacheStats(const SweepRunner &runner)
{
    detail::CacheRecord &rec = detail::capture().cache;
    const ResultCache *cache = runner.resultCache();
    rec.have = true;
    rec.mode = cache != nullptr ? "readwrite" : "off";
    rec.stats = cache != nullptr ? cache->stats() : ResultCacheStats{};
    rec.pointsSimulated = runner.pointsSimulated();
    rec.pointsFromCache = runner.pointsFromCache();
}

/**
 * Record one sweep point's stats for the HIRA_JSON artifact's "points"
 * block: the mix-summed RefreshStats always (so preventive drops and
 * deadline misses reach artifacts even with metrics off) and the
 * point's merged metrics snapshot when HIRA_METRICS captured one.
 * SweepGrid::run() records every plan point automatically.
 */
inline void
recordPointStats(const std::string &label, const std::string &point,
                 const RefreshStats &refresh, const MetricsSnapshot &metrics)
{
    detail::PointRow p;
    p.label = label;
    p.point = point;
    p.refresh = refresh;
    p.metrics = metrics;
    detail::capture().points.push_back(std::move(p));
}

/**
 * Periodic-refresh scheme from its display label ("Baseline" or
 * "HiRA-<N>"), as swept by the fig13/fig14 geometry drivers.
 */
inline SchemeSpec
periodicScheme(const std::string &label)
{
    SchemeSpec s;
    if (label == "Baseline") {
        s.kind = SchemeKind::Baseline;
    } else {
        hira_assert(label.rfind("HiRA-", 0) == 0);
        s.kind = SchemeKind::HiraMc;
        s.slackN = std::atoi(label.c_str() + 5);
    }
    return s;
}

/**
 * PARA preventive-refresh scheme at RowHammer threshold @p nrh:
 * plain immediate PARA for @p slack < 0 (label "PARA"), HiRA-served
 * with tRefSlack = slack * tRC otherwise (label "HiRA-<slack>").
 * Periodic refresh stays on REF commands (Section 9.2), as swept by
 * the fig12/fig15/fig16 drivers.
 */
inline SchemeSpec
paraScheme(double nrh, int slack)
{
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    s.paraEnabled = true;
    s.nrh = nrh;
    if (slack >= 0) {
        s.preventiveViaHira = true;
        s.slackN = slack;
    }
    return s;
}

/** Display label matching paraScheme(nrh, slack). */
inline std::string
paraSchemeLabel(int slack)
{
    return slack < 0 ? std::string("PARA") : strprintf("HiRA-%d", slack);
}

/**
 * The workload mixes a driver should sweep: the intensity-binned mixes
 * of the HIRA_CORPUS trace corpus when that is set (noted in the
 * output and the JSON artifact), else the generated synthetic mixes.
 * Pass the result to the explicit-mixes SweepRunner constructor; call
 * after banner() so the corpus note lands in the capture.
 *
 * HIRA_CORPUS_ONCE=1 switches corpus mixes to fixed-work mode: every
 * spec gets the "?once" suffix, so each core executes its trace once
 * and then idles on non-memory instructions instead of looping. This
 * is the standard run-N-instructions trace methodology, and its long
 * idle tails are where the event engine's skip-ahead pays off most.
 */
inline std::vector<WorkloadMix>
mixesFromEnv(const BenchKnobs &k)
{
    const char *dir = std::getenv("HIRA_CORPUS");
    if (dir == nullptr || *dir == '\0')
        return makeMixes(k.mixes, k.cores);
    std::shared_ptr<const Corpus> corpus =
        Corpus::activeOrFatal("HIRA_CORPUS");
    std::size_t priors = 0;
    for (const CorpusEntry &e : corpus->entries())
        priors += e.hasAloneIpc() ? 1 : 0;
    note(strprintf("corpus: %s (%zu traces, %zu with alone-IPC priors)",
                   corpus->dir().c_str(), corpus->size(), priors));
    std::vector<WorkloadMix> mixes =
        makeCorpusMixes(k.mixes, k.cores, *corpus);
    if (envKnob("HIRA_CORPUS_ONCE", 0) != 0) {
        note("corpus mixes run in fixed-work (?once) mode");
        for (WorkloadMix &mix : mixes)
            for (std::string &spec : mix)
                spec += "?once";
    }
    return mixes;
}

/**
 * Incrementally-built sweep plan with handle-based result lookup.
 *
 * Drivers add() every (geometry, scheme) point of their grid up
 * front, keeping the returned handles, then run() the whole plan
 * through SweepRunner::runPoints() — one sharded drain of all
 * (point x mix) simulations instead of a pool + barrier per point.
 */
class SweepGrid
{
  public:
    /** Queue one sweep point; the handle indexes its result. */
    std::size_t
    add(const GeomSpec &geom, const SchemeSpec &scheme)
    {
        points_.push_back(SweepPoint{geom, scheme});
        return points_.size() - 1;
    }

    /** Evaluate every queued point (once, before any at()/ws()). */
    void
    run(SweepRunner &runner)
    {
        results_ = runner.runPoints(points_);
        for (std::size_t i = 0; i < results_.size(); ++i) {
            std::string label =
                strprintf("%s @ %s", points_[i].scheme.label().c_str(),
                          points_[i].geom.key().c_str());
            std::string point = pointId(points_[i]);
            recordPointTiming(label, point, results_[i].wallSeconds,
                              results_[i].simCycles, results_[i].cacheHit);
            recordPointStats(label, point, results_[i].refresh,
                             results_[i].metrics);
        }
        recordCacheStats(runner);
    }

    const PointResult &
    at(std::size_t handle) const
    {
        hira_assert(handle < results_.size());
        return results_[handle];
    }

    double ws(std::size_t handle) const { return at(handle).meanWs; }

    std::size_t size() const { return points_.size(); }

  private:
    std::vector<SweepPoint> points_;
    std::vector<PointResult> results_;
};

inline void
footer()
{
    std::printf("==========================================================="
                "=====================\n\n");
    detail::writeJson();
    // Write the HIRA_TRACE_EVENTS file (if any) while the driver is
    // still alive; the at-exit flush is only a fallback.
    TraceEventLog::global().flush();
}

} // namespace benchutil
} // namespace hira

#endif // HIRA_BENCH_BENCH_UTIL_HH
