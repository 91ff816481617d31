#include "sim/result_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "workload/corpus.hh"

#ifndef HIRA_GIT_REV
#define HIRA_GIT_REV "unknown"
#endif

namespace hira {

namespace {

constexpr char kMagicPoint[] = "HIRARC1 point";
constexpr char kMagicAlone[] = "HIRARC1 alone";

/**
 * Content-addressed file stem: two independent 64-bit hashes of the
 * key. Collisions are doubly guarded — the entry file repeats the full
 * key and lookup rejects a mismatch as stale.
 */
std::string
hashName(const std::string &key)
{
    return strprintf("%016llx%016llx",
                     static_cast<unsigned long long>(hashString(key)),
                     static_cast<unsigned long long>(
                         hashString("hira-rc|" + key)));
}

/** Exact double serialization: hexfloat round-trips bitwise. */
std::string
hexDouble(double v)
{
    return strprintf("%a", v);
}

bool
parseDouble(const std::string &tok, double &out)
{
    if (tok.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size() && errno != ERANGE;
}

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() ||
        !std::isdigit(static_cast<unsigned char>(tok[0]))) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return end == tok.c_str() + tok.size() && errno != ERANGE;
}

/** Line cursor over an entry file's bytes. */
struct EntryCursor
{
    const std::string &text;
    std::size_t pos = 0;

    bool
    line(std::string &out)
    {
        if (pos >= text.size())
            return false;
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false; // entries end in a newline; no tail fragments
        out.assign(text, pos, nl - pos);
        pos = nl + 1;
        return true;
    }
};

/** Serialize one entry (shared by points and alone values). */
std::string
renderEntry(const std::string &key, bool is_point,
            const PointResult &point, double ipc)
{
    std::string out = is_point ? kMagicPoint : kMagicAlone;
    out += strprintf("\nkey %zu\n", key.size());
    out += key;
    out += '\n';
    if (!is_point) {
        out += "ipc " + hexDouble(ipc) + "\n";
        out += "end\n";
        return out;
    }
    out += "mean_ws " + hexDouble(point.meanWs) + "\n";
    out += "wall_seconds " + hexDouble(point.wallSeconds) + "\n";
    out += strprintf("sim_cycles %llu\n",
                     static_cast<unsigned long long>(point.simCycles));
    out += "refresh";
    RefreshStats::forEachField([&](const char *, auto m) {
        out += strprintf(" %llu",
                         static_cast<unsigned long long>(point.refresh.*m));
    });
    out += '\n';
    out += strprintf("metrics %zu\n", point.metrics.values.size());
    for (const auto &kv : point.metrics.values) {
        const std::string &name = kv.first;
        const MetricValue &v = kv.second;
        // Names are dotted identifiers from MetricScope composition;
        // whitespace would break the token format.
        hira_assert(name.find_first_of(" \t\n") == std::string::npos);
        switch (v.kind) {
          case MetricValue::Kind::Counter:
            out += strprintf("c %s %llu\n", name.c_str(),
                             static_cast<unsigned long long>(v.count));
            break;
          case MetricValue::Kind::Gauge:
            out += strprintf("g %s %s\n", name.c_str(),
                             hexDouble(v.value).c_str());
            break;
          case MetricValue::Kind::Histogram:
            out += strprintf("h %s %llu %s %s %s %zu", name.c_str(),
                             static_cast<unsigned long long>(v.count),
                             hexDouble(v.value).c_str(),
                             hexDouble(v.lo).c_str(),
                             hexDouble(v.hi).c_str(), v.bins.size());
            for (std::uint64_t b : v.bins) {
                out += strprintf(" %llu",
                                 static_cast<unsigned long long>(b));
            }
            out += '\n';
            break;
        }
    }
    out += "end\n";
    return out;
}

/**
 * Parse an entry's payload (everything after the verified key block).
 * Returns false on any malformation — the caller treats that as a
 * corrupt entry, i.e. a miss.
 */
bool
parsePayload(EntryCursor &cur, bool is_point, PointResult &point,
             double &ipc)
{
    std::string line;
    if (!is_point) {
        if (!cur.line(line))
            return false;
        std::istringstream in(line);
        std::string tag, tok;
        if (!(in >> tag >> tok) || tag != "ipc" || !parseDouble(tok, ipc))
            return false;
        return cur.line(line) && line == "end";
    }

    std::string tag, tok;
    // mean_ws, wall_seconds
    if (!cur.line(line))
        return false;
    {
        std::istringstream in(line);
        if (!(in >> tag >> tok) || tag != "mean_ws" ||
            !parseDouble(tok, point.meanWs)) {
            return false;
        }
    }
    if (!cur.line(line))
        return false;
    {
        std::istringstream in(line);
        if (!(in >> tag >> tok) || tag != "wall_seconds" ||
            !parseDouble(tok, point.wallSeconds)) {
            return false;
        }
    }
    if (!cur.line(line))
        return false;
    {
        std::istringstream in(line);
        if (!(in >> tag >> tok) || tag != "sim_cycles" ||
            !parseU64(tok, point.simCycles)) {
            return false;
        }
    }
    if (!cur.line(line))
        return false;
    {
        std::istringstream in(line);
        if (!(in >> tag) || tag != "refresh")
            return false;
        // Exactly one token per counter: a missing or extra one is a
        // corrupt entry.
        bool ok = true;
        RefreshStats::forEachField([&](const char *, auto m) {
            ok = ok && (in >> tok) && parseU64(tok, point.refresh.*m);
        });
        if (!ok || (in >> tok))
            return false;
    }
    if (!cur.line(line))
        return false;
    std::uint64_t nMetrics = 0;
    {
        std::istringstream in(line);
        if (!(in >> tag >> tok) || tag != "metrics" ||
            !parseU64(tok, nMetrics)) {
            return false;
        }
    }
    for (std::uint64_t i = 0; i < nMetrics; ++i) {
        if (!cur.line(line))
            return false;
        std::istringstream in(line);
        std::string kind, name;
        if (!(in >> kind >> name))
            return false;
        MetricValue v;
        if (kind == "c") {
            v.kind = MetricValue::Kind::Counter;
            if (!(in >> tok) || !parseU64(tok, v.count))
                return false;
        } else if (kind == "g") {
            v.kind = MetricValue::Kind::Gauge;
            if (!(in >> tok) || !parseDouble(tok, v.value))
                return false;
        } else if (kind == "h") {
            v.kind = MetricValue::Kind::Histogram;
            std::uint64_t nBins = 0;
            if (!(in >> tok) || !parseU64(tok, v.count))
                return false;
            if (!(in >> tok) || !parseDouble(tok, v.value))
                return false;
            if (!(in >> tok) || !parseDouble(tok, v.lo))
                return false;
            if (!(in >> tok) || !parseDouble(tok, v.hi))
                return false;
            if (!(in >> tok) || !parseU64(tok, nBins) ||
                nBins > 1000000) {
                return false;
            }
            v.bins.resize(nBins);
            for (std::uint64_t b = 0; b < nBins; ++b) {
                if (!(in >> tok) || !parseU64(tok, v.bins[b]))
                    return false;
            }
        } else {
            return false;
        }
        std::string extra;
        if (in >> extra)
            return false;
        point.metrics.values[name] = std::move(v);
    }
    // The trailing marker is the truncation guard: a partially-written
    // file (pre-rename crash never commits one, but copies/tampering
    // can) must never parse as a shorter valid entry.
    return cur.line(line) && line == "end";
}

} // namespace

std::string
codeRevision()
{
    const char *env = std::getenv("HIRA_CACHE_REV");
    if (env != nullptr && *env != '\0')
        return env;
    return HIRA_GIT_REV;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    hira_assert(!dir_.empty());
    // Best-effort, one level deep — same convention as HIRA_JSON. A
    // missing parent shows up as ENOENT on the first store.
    ::mkdir(dir_.c_str(), 0777);
}

std::unique_ptr<ResultCache>
ResultCache::fromEnv()
{
    const char *dir = std::getenv("HIRA_RESULT_CACHE");
    if (dir == nullptr || *dir == '\0')
        return nullptr;
    return std::make_unique<ResultCache>(dir);
}

std::string
ResultCache::pointPath(const std::string &key) const
{
    return dir_ + "/" + hashName(key) + ".point";
}

std::string
ResultCache::alonePath(const std::string &key) const
{
    return dir_ + "/" + hashName(key) + ".alone";
}

bool
ResultCache::lookupEntry(const std::string &key, bool is_point,
                         PointResult &point, double &ipc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string path = is_point ? pointPath(key) : alonePath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ++stats_.misses;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    stats_.bytesRead += text.size();

    EntryCursor cur{text, 0};
    std::string line;
    if (!cur.line(line) ||
        line != (is_point ? kMagicPoint : kMagicAlone)) {
        ++stats_.corrupt;
        warn_once("result cache: %s is not a v1 entry; treating as a "
                  "miss (delete the file to silence this)",
                  path.c_str());
        return false;
    }
    std::uint64_t keyLen = 0;
    {
        if (!cur.line(line)) {
            ++stats_.corrupt;
            return false;
        }
        std::istringstream hdr(line);
        std::string tagTok, tok;
        if (!(hdr >> tagTok >> tok) || tagTok != "key" ||
            !parseU64(tok, keyLen) ||
            cur.pos + keyLen + 1 > text.size() ||
            text[cur.pos + keyLen] != '\n') {
            ++stats_.corrupt;
            warn_once("result cache: %s has a malformed key block; "
                      "treating as a miss",
                      path.c_str());
            return false;
        }
    }
    std::string storedKey = text.substr(cur.pos, keyLen);
    cur.pos += keyLen + 1;
    if (storedKey != key) {
        // A different sweep's entry landed on this hash (or the file
        // was copied between slots): never serve it.
        ++stats_.stale;
        warn_once("result cache: %s holds an entry for a different key "
                  "(hash collision or stale copy); treating as a miss",
                  path.c_str());
        return false;
    }
    PointResult parsed;
    double parsedIpc = 0.0;
    if (!parsePayload(cur, is_point, parsed, parsedIpc)) {
        ++stats_.corrupt;
        warn_once("result cache: %s is corrupt or truncated; treating "
                  "as a miss",
                  path.c_str());
        return false;
    }
    ++stats_.hits;
    if (is_point)
        point = std::move(parsed);
    else
        ipc = parsedIpc;
    return true;
}

void
ResultCache::storeEntry(const std::string &key, bool is_point,
                        const PointResult &point, double ipc)
{
    std::string content = renderEntry(key, is_point, point, ipc);
    std::string path = is_point ? pointPath(key) : alonePath(key);
    // Unique temp name per writer: concurrent processes (sweep
    // slices) and threads may commit the same key; each writes its
    // own temp file and the renames are atomic replacements of
    // byte-identical content.
    static std::atomic<std::uint64_t> tmpSeq{0};
    std::string tmp = strprintf(
        "%s.tmp.%ld.%llu", path.c_str(), static_cast<long>(::getpid()),
        static_cast<unsigned long long>(tmpSeq.fetch_add(1)));

    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        warn_once("result cache: cannot write %s: %s", tmp.c_str(),
                  std::strerror(errno));
        return;
    }
    std::size_t wrote = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = wrote == content.size() && std::fclose(f) == 0;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn_once("result cache: cannot commit %s: %s", path.c_str(),
                  std::strerror(errno));
        std::remove(tmp.c_str());
        return;
    }
    ++stats_.writes;
    stats_.bytesWritten += content.size();
}

bool
ResultCache::lookupPoint(const std::string &key, PointResult &out)
{
    double ipc = 0.0;
    return lookupEntry(key, true, out, ipc);
}

void
ResultCache::storePoint(const std::string &key, const PointResult &r)
{
    storeEntry(key, true, r, 0.0);
}

bool
ResultCache::lookupAlone(const std::string &key, double &ipc)
{
    PointResult unused;
    return lookupEntry(key, false, unused, ipc);
}

void
ResultCache::storeAlone(const std::string &key, double ipc)
{
    PointResult unused;
    storeEntry(key, false, unused, ipc);
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

MetricsSnapshot
ResultCache::metricsSnapshot() const
{
    ResultCacheStats s = stats();
    MetricsSnapshot snap;
    auto add = [&snap](const char *name, std::uint64_t v) {
        MetricValue mv;
        mv.kind = MetricValue::Kind::Counter;
        mv.count = v;
        snap.values[std::string("result_cache.") + name] = mv;
    };
    add("hits", s.hits);
    add("misses", s.misses);
    add("stale", s.stale);
    add("corrupt", s.corrupt);
    add("writes", s.writes);
    add("bytes_read", s.bytesRead);
    add("bytes_written", s.bytesWritten);
    return snap;
}

// ---------------------------------------------------------------------
// Canonical cache keys
// ---------------------------------------------------------------------

std::string
resolvedMixSpecKey(const std::string &spec)
{
    const char kPrefix[] = "corpus:";
    if (spec.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0)
        return spec;
    std::string rest = spec.substr(sizeof(kPrefix) - 1);
    std::string opts;
    std::size_t q = rest.find('?');
    if (q != std::string::npos) {
        opts = rest.substr(q);
        rest = rest.substr(0, q);
    }
    std::shared_ptr<const Corpus> corpus =
        Corpus::activeOrFatal("resolving a sweep cache key");
    const CorpusEntry &e = corpus->at(rest);
    return strprintf(
        "corpus:%s%s{file=%s;fmt=%s;instr=%llu;class=%c;prior=%s}",
        rest.c_str(), opts.c_str(), e.file.c_str(),
        e.format == TraceFormat::Binary ? "binary" : "text",
        static_cast<unsigned long long>(e.instructions),
        mpkiClassLetter(e.mpki),
        e.hasAloneIpc() ? strprintf("%.17g", e.aloneIpc).c_str() : "-");
}

namespace {

/**
 * The key fields points and alone entries share. Engine and metrics
 * level are bitwise result-neutral (pinned by the diff suites), but they ARE behavior-affecting inputs of the *artifact*
 * (timing regimes, metrics payloads), so they key separate slots —
 * a conservative choice that can only cost extra simulations, never
 * correctness.
 */
std::string
commonKeyFields(const GeomSpec &geom, const BenchKnobs &knobs)
{
    return strprintf("rev=%s\ngeom=%s\nstandard=%s\nengine=%s\n"
                     "metrics=%s\nwarmup=%lld\ncycles=%lld\n",
                     codeRevision().c_str(), geom.key().c_str(),
                     geom.standard.c_str(),
                     simEngineName(defaultSimEngine()),
                     metricsLevelName(defaultMetricsLevel()),
                     static_cast<long long>(knobs.warmup),
                     static_cast<long long>(knobs.cycles));
}

} // namespace

std::string
SweepPoint::cacheKey(const BenchKnobs &knobs,
                     const std::vector<WorkloadMix> &mixes) const
{
    std::string k = "hira-point-v1\n";
    k += commonKeyFields(geom, knobs);
    k += "scheme=" + scheme.seedKey() + "\n";
    k += strprintf("mixes=%zu\n", mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        k += strprintf("mix%zu=", i);
        for (std::size_t c = 0; c < mixes[i].size(); ++c) {
            if (c > 0)
                k += '|';
            k += resolvedMixSpecKey(mixes[i][c]);
        }
        k += '\n';
    }
    return k;
}

std::string
aloneResultCacheKey(const std::string &bench, const GeomSpec &geom,
                    const BenchKnobs &knobs)
{
    std::string k = "hira-alone-v1\n";
    k += commonKeyFields(geom, knobs);
    k += "bench=" + resolvedMixSpecKey(bench) + "\n";
    return k;
}

} // namespace hira
