#include "sim/experiment.hh"

#include <chrono>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/trace_events.hh"
#include "sim/result_cache.hh"
#include "sim/scheme_registry.hh"

namespace hira {

Geometry
GeomSpec::toGeometry() const
{
    Geometry g = Geometry::forCapacityGb(capacityGb);
    g.channels = channels;
    g.ranksPerChannel = ranks;
    return g;
}

TimingParams
GeomSpec::toTiming() const
{
    // Unknown standard names are fatal inside standardByName, listing
    // the registry, so a typo in a sweep spec or HIRA_STANDARD value
    // can never silently run DDR4 timings under a DDR5 label.
    return standardByName(standard).make(capacityGb);
}

std::string
GeomSpec::key() const
{
    // %.17g round-trips capacityGb exactly: a %.1f key would collapse
    // distinct capacities (8.0 vs 8.04) onto one alone-IPC cache slot
    // and one RNG stream. The key feeds caching, seeding, and
    // diagnostics, so it must be injective over geometries.
    std::string k = strprintf("c%.17g-ch%d-rk%d", capacityGb, channels,
                              ranks);
    // Appended only for non-default standards so the pre-registry
    // golden seeds (tests/sim/test_experiment.cc) stay valid; a DDR5
    // point still gets its own alone-IPC cache slot and RNG streams.
    if (standard != "ddr4_2400")
        k += "-s" + standard;
    return k;
}

std::string
SchemeSpec::label() const
{
    std::string base = schemeEntryByKind(kind).labelBase(*this);
    if (paraEnabled) {
        base += preventiveViaHira ? "+PARA(HiRA)" : "+PARA";
    }
    return base;
}

std::string
SchemeSpec::seedKey() const
{
    // Every field that changes simulation behavior appears here: two
    // sweep points may share RNG streams only if they are identical.
    // %.17g round-trips doubles exactly, so the key (and with it the
    // golden seeds) is platform-independent. The registry appends the
    // scheme-specific knobs the base key does not cover (empty for the
    // pre-registry schemes, preserving their golden seeds). "post0"
    // and "pvh1" are the retired elastic-refresh bound and
    // periodic-via-HiRA switch, pinned at their only values so golden
    // seeds and result-cache keys do not move.
    return strprintf("k%d-n%d-post0-pvh1-para%d-nrh%.17g-prev%d-"
                     "ap%d-rp%d-pull%d-spt%.17g",
                     static_cast<int>(kind), slackN,
                     paraEnabled ? 1 : 0, nrh,
                     preventiveViaHira ? 1 : 0, accessPairing ? 1 : 0,
                     refreshPairing ? 1 : 0, pullAhead ? 1 : 0,
                     sptIsolation) +
           schemeEntryByKind(kind).seedKeySuffix(*this);
}

void
SchemeSpec::validate(const std::string &where) const
{
    if (!paraEnabled)
        return;
    if (!preventiveViaHira && kind == SchemeKind::HiraMc) {
        fatal("%s: scheme '%s' is not runnable: HiRA-MC serves PARA only "
              "through PreventiveRC (set preventive_via_hira)",
              where.c_str(), label().c_str());
    }
    if (preventiveViaHira && kind != SchemeKind::Baseline &&
        kind != SchemeKind::HiraMc) {
        fatal("%s: scheme '%s' is not runnable: PARA(HiRA) needs periodic "
              "refresh from Baseline or HiRA-MC",
              where.c_str(), label().c_str());
    }
}

SystemConfig
makeSystemConfig(const GeomSpec &geom, const SchemeSpec &scheme,
                 const WorkloadMix &mix, std::uint64_t seed)
{
    scheme.validate("makeSystemConfig");

    SystemConfig cfg;
    cfg.geom = geom.toGeometry();
    cfg.tp = geom.toTiming();
    cfg.standard = geom.standard;
    cfg.mix = mix;
    cfg.seed = seed;

    // PreventiveRC promotes Baseline onto the HiRA-MC machinery; the
    // registry entry's configure hook does the scheme-specific wiring.
    const SchemeRegistryEntry &entry =
        (scheme.paraEnabled && scheme.preventiveViaHira)
            ? schemeEntryByKind(SchemeKind::HiraMc)
            : schemeEntryByKind(scheme.kind);
    entry.configure(cfg, scheme, seed);

    if (scheme.paraEnabled && !scheme.preventiveViaHira) {
        cfg.para.enabled = true;
        cfg.para.pth = solvePth(scheme.nrh, 0.0);
        cfg.para.seed = hashCombine(seed, 0x9b1);
    }
    return cfg;
}

RunResult
runOne(const SystemConfig &cfg, Cycle warmup, Cycle measure)
{
    auto t0 = std::chrono::steady_clock::now();
    System sys(cfg);
    {
        TraceSpan span("warmup", "kernel");
        sys.run(warmup);
    }
    sys.resetStats();
    // Snapshot after resetStats so the diff below scopes every metric
    // to the measurement interval (mirrored core stats restart at zero
    // with the reset; monotone mirrors subtract away cleanly).
    MetricsSnapshot base = sys.metricsSnapshot();
    {
        TraceSpan span("measure", "kernel");
        sys.run(measure);
    }
    RunResult r;
    r.sys = sys.result();
    r.metrics = sys.metricsSnapshot().diff(base);
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    r.simCycles = warmup + measure;
    return r;
}

std::string
refreshStatsJson(const RefreshStats &rs)
{
    std::string out = "{";
    RefreshStats::forEachField([&](const char *name, auto m) {
        out += strprintf("%s\"%s\": %llu", out.size() > 1 ? ", " : "", name,
                         static_cast<unsigned long long>(rs.*m));
    });
    return out + "}";
}

double
weightedSpeedup(const std::vector<double> &ipc_shared,
                const std::vector<double> &ipc_alone,
                const std::string &context)
{
    hira_assert(ipc_shared.size() == ipc_alone.size());
    double ws = 0.0;
    for (std::size_t i = 0; i < ipc_shared.size(); ++i) {
        if (!(ipc_alone[i] > 0.0) || !std::isfinite(ipc_alone[i])) {
            fatal("weightedSpeedup%s%s: ipc_alone[%zu] = %g is not a "
                  "positive finite IPC; the alone run of that workload "
                  "made no progress (empty or instantly-exhausted "
                  "'file:' trace?)",
                  context.empty() ? "" : " for ", context.c_str(), i,
                  ipc_alone[i]);
        }
        ws += ipc_shared[i] / ipc_alone[i];
    }
    return ws;
}

SweepRunner::SweepRunner(const BenchKnobs &k)
    : knobs(k), pool(k.threads), resultCache_(ResultCache::fromEnv())
{
    mixes_ = makeMixes(knobs.mixes, knobs.cores);
}

SweepRunner::SweepRunner(const BenchKnobs &k, std::vector<WorkloadMix> mixes)
    : knobs(k), mixes_(std::move(mixes)), pool(k.threads),
      resultCache_(ResultCache::fromEnv())
{
    hira_assert(!mixes_.empty());
}

SweepRunner::~SweepRunner() = default;

void
SweepRunner::setResultCache(std::unique_ptr<ResultCache> cache)
{
    resultCache_ = std::move(cache);
}

double
SweepRunner::aloneIpc(const std::string &bench, const GeomSpec &geom)
{
    std::string key = aloneIpcCacheKey(bench, geom);
    for (;;) {
        std::unique_lock<std::mutex> lock(cacheMutex);
        auto it = aloneCache.find(key);
        if (it != aloneCache.end()) {
            if (it->second.ready)
                return it->second.ipc;
            // Another thread is computing this key: wait for it
            // instead of duplicating the run (single-flight).
            cacheCv.wait(lock);
            continue;
        }
        // Leader: publish a not-ready slot, run outside the lock.
        aloneCache.emplace(key, AloneSlot{});
        lock.unlock();
        double ipc = 0.0;
        bool fromDisk = false;
        std::string diskKey;
        try {
            // The persistent layer under the in-memory single-flight
            // cache: a previous process's alone run (same canonical
            // key, see aloneResultCacheKey) replaces the simulation.
            if (resultCache_ != nullptr) {
                diskKey = aloneResultCacheKey(bench, geom, knobs);
                fromDisk = resultCache_->lookupAlone(diskKey, ipc);
            }
            if (!fromDisk) {
                SchemeSpec none;
                none.kind = SchemeKind::NoRefresh;
                WorkloadMix solo = {bench};
                SystemConfig cfg =
                    makeSystemConfig(geom, none, solo, hashString(key));
                aloneRuns.fetch_add(1);
                RunResult r =
                    runOne(cfg, static_cast<Cycle>(knobs.warmup),
                           static_cast<Cycle>(knobs.cycles));
                ipc = r.sys.ipc.at(0);
            }
        } catch (...) {
            // Drop the placeholder so waiters retry (and one of them
            // becomes the new leader) rather than blocking forever.
            lock.lock();
            aloneCache.erase(key);
            cacheCv.notify_all();
            throw;
        }
        if (!(ipc > 0.0) || !std::isfinite(ipc)) {
            fatal("IPC-alone run of benchmark '%s' on geometry %s "
                  "yielded IPC = %g; weighted speedup would divide by "
                  "zero. The workload made no progress — check the mix "
                  "spec (empty or instantly-exhausted 'file:' trace?)",
                  bench.c_str(), geom.key().c_str(), ipc);
        }
        if (resultCache_ != nullptr && !fromDisk)
            resultCache_->storeAlone(diskKey, ipc);
        lock.lock();
        AloneSlot &slot = aloneCache[key];
        slot.ipc = ipc;
        slot.ready = true;
        cacheCv.notify_all();
        return ipc;
    }
}

std::vector<PointResult>
SweepRunner::runPoints(const std::vector<SweepPoint> &plan)
{
    if (plan.empty())
        return {};

    // Result-cache consult: hits fill their slots directly and the
    // simulation queue below is built from the misses only. Keys are
    // computed once and reused for the post-reduction store, so lookup
    // and store can never disagree.
    std::vector<PointResult> out(plan.size());
    std::vector<std::size_t> missIdx;
    std::vector<std::string> missKeys;
    missIdx.reserve(plan.size());
    if (resultCache_ != nullptr) {
        for (std::size_t pi = 0; pi < plan.size(); ++pi) {
            std::string key = plan[pi].cacheKey(knobs, mixes_);
            if (resultCache_->lookupPoint(key, out[pi])) {
                out[pi].cacheHit = true;
                pointsFromCache_.fetch_add(1);
            } else {
                missIdx.push_back(pi);
                missKeys.push_back(std::move(key));
            }
        }
    } else {
        for (std::size_t pi = 0; pi < plan.size(); ++pi)
            missIdx.push_back(pi);
    }
    pointsSimulated_.fetch_add(missIdx.size());
    if (missIdx.empty())
        return out; // fully-warm plan: no simulation, no alone warmups

    // Deduplicated IPC-alone warmup items: one per (bench, geometry)
    // key — of the cache-miss points only — that is neither cached nor
    // already queued for this plan. aloneIpc() itself is single-flight,
    // so a key raced in by a concurrent caller is simply waited on,
    // never re-run.
    struct AloneItem
    {
        std::string bench;
        const GeomSpec *geom;
    };
    std::vector<AloneItem> aloneItems;
    {
        std::set<std::string> queued;
        std::lock_guard<std::mutex> lock(cacheMutex);
        for (std::size_t pi : missIdx) {
            const SweepPoint &p = plan[pi];
            for (const WorkloadMix &mix : mixes_) {
                for (const std::string &b : mix) {
                    std::string key = aloneIpcCacheKey(b, p.geom);
                    if (aloneCache.count(key) == 0 &&
                        queued.insert(key).second) {
                        aloneItems.push_back(AloneItem{b, &p.geom});
                    }
                }
            }
        }
    }

    // One flat queue: the alone warmups, then every cache-miss
    // (point, mix) simulation. All items are independent simulations,
    // so the pool drains them with no barrier in between.
    const std::size_t nAlone = aloneItems.size();
    const std::size_t nMixes = mixes_.size();
    std::vector<std::vector<RunResult>> runs(
        missIdx.size(), std::vector<RunResult>(nMixes));
    // Per-work-item trace spans: each item records an X event with its
    // own run time plus how long it sat queued behind the pool
    // (queue_wait_us = dispatch minus plan submission). Observational
    // only; results are byte-identical with tracing on or off.
    TraceEventLog &tlog = TraceEventLog::global();
    const bool tracing = tlog.enabled();
    const double tSubmit = tracing ? tlog.nowUs() : 0.0;
    pool.parallelFor(nAlone + missIdx.size() * nMixes, [&](std::size_t i) {
        const double tStart = tracing ? tlog.nowUs() : 0.0;
        std::string label;
        if (i < nAlone) {
            if (tracing)
                label = "alone:" + aloneItems[i].bench;
            aloneIpc(aloneItems[i].bench, *aloneItems[i].geom);
        } else {
            std::size_t flat = i - nAlone;
            std::size_t k = flat / nMixes;
            std::size_t mi = flat % nMixes;
            const SweepPoint &p = plan[missIdx[k]];
            if (tracing) {
                label = strprintf("%s mix%zu",
                                  p.scheme.label().c_str(), mi);
            }
            SystemConfig cfg = makeSystemConfig(
                p.geom, p.scheme, mixes_[mi],
                sweepRunSeed(p.geom.key(), p.scheme.seedKey(), mi));
            runs[k][mi] = runOne(cfg, static_cast<Cycle>(knobs.warmup),
                                 static_cast<Cycle>(knobs.cycles));
        }
        if (tracing) {
            tlog.complete(
                label, "sweep", tStart, tlog.nowUs() - tStart,
                strprintf("\"queue_wait_us\": %.3f", tStart - tSubmit));
        }
    });

    // Reduce the miss points on the calling thread in plan/mix order,
    // so the floating point summation order is fixed regardless of
    // thread count — and identical to an uncached run's, which is what
    // makes cold and warm artifacts bitwise-equal. Each reduced point
    // is committed to the cache as soon as it is complete (point
    // granularity: a killed multi-point plan resumes from here).
    for (std::size_t k = 0; k < missIdx.size(); ++k) {
        std::size_t pi = missIdx[k];
        const SweepPoint &p = plan[pi];
        double sum = 0.0;
        for (std::size_t mi = 0; mi < nMixes; ++mi) {
            std::vector<double> alone;
            for (const std::string &b : mixes_[mi])
                alone.push_back(aloneIpc(b, p.geom));
            sum += weightedSpeedup(
                runs[k][mi].sys.ipc, alone,
                strprintf("mix %zu on %s", mi, p.geom.key().c_str()));
            out[pi].refresh += runs[k][mi].sys.refresh;
            out[pi].wallSeconds += runs[k][mi].wallSeconds;
            out[pi].simCycles += runs[k][mi].simCycles;
            out[pi].metrics.merge(runs[k][mi].metrics);
        }
        out[pi].meanWs = sum / static_cast<double>(nMixes);
        if (resultCache_ != nullptr)
            resultCache_->storePoint(missKeys[k], out[pi]);
    }
    return out;
}

double
SweepRunner::meanWs(const GeomSpec &geom, const SchemeSpec &scheme)
{
    return runPoints({SweepPoint{geom, scheme}}).front().meanWs;
}

} // namespace hira
