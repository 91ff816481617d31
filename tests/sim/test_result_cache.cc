/**
 * @file
 * Tests for the content-addressed result cache (sim/result_cache.hh):
 * golden cache-key strings (the cross-process contract between
 * SweepRunner and every hira_sweep process sharing a cache directory),
 * key sensitivity to every behavior-affecting input, exact store/load
 * round trips, and rejection of stale/corrupt entries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <stdlib.h>

#include "result_expect.hh"
#include "sim/result_cache.hh"
#include "workload/corpus.hh"

using namespace hira;

namespace {

/**
 * Pins every environment input of the cache key, so golden strings are
 * stable no matter what the ambient shell exports.
 */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::setenv("HIRA_CACHE_REV", "test", 1);
        ::setenv("HIRA_ENGINE", "event", 1);
        ::unsetenv("HIRA_METRICS");
        ::unsetenv("HIRA_STANDARD");
        ::unsetenv("HIRA_RESULT_CACHE");
        ::unsetenv("HIRA_CORPUS");
        Corpus::setActive(nullptr);
        std::string templ = "/tmp/hira_rcache.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        Corpus::setActive(nullptr);
        ::unsetenv("HIRA_CACHE_REV");
        ::unsetenv("HIRA_ENGINE");
        std::filesystem::remove_all(dir);
    }

    static BenchKnobs
    knobs()
    {
        BenchKnobs k;
        k.warmup = 3000;
        k.cycles = 12000;
        k.threads = 1;
        return k;
    }

    static std::vector<WorkloadMix>
    mixes()
    {
        return {{"mcf-like", "gcc-like"}};
    }

    static PointResult
    samplePoint()
    {
        PointResult r;
        r.meanWs = 1.0 / 3.0; // not exactly representable in decimal
        r.wallSeconds = 0.125;
        r.simCycles = 15000;
        // A distinct value per counter, so one written or read at the
        // wrong position fails the round trip.
        std::uint64_t v = 11;
        RefreshStats::forEachField([&](const char *, auto m) {
            r.refresh.*m = v++;
        });
        MetricValue c;
        c.kind = MetricValue::Kind::Counter;
        c.count = 42;
        r.metrics.values["ctrl0.reads"] = c;
        MetricValue g;
        g.kind = MetricValue::Kind::Gauge;
        g.value = 0.1 + 0.2; // 0.30000000000000004
        r.metrics.values["ctrl0.util"] = g;
        MetricValue h;
        h.kind = MetricValue::Kind::Histogram;
        h.count = 9;
        h.value = 123.456;
        h.lo = 0.0;
        h.hi = 64.0;
        h.bins = {1, 0, 5, 3};
        r.metrics.values["kernel.skip_len"] = h;
        return r;
    }

    std::string dir;
};

void
expectEqualResults(const PointResult &a, const PointResult &b)
{
    EXPECT_EQ(a.meanWs, b.meanWs);
    EXPECT_EQ(a.wallSeconds, b.wallSeconds);
    EXPECT_EQ(a.simCycles, b.simCycles);
    expectSameRefresh(a.refresh, b.refresh);
    ASSERT_EQ(a.metrics.values.size(), b.metrics.values.size());
    for (const auto &kv : a.metrics.values) {
        auto it = b.metrics.values.find(kv.first);
        ASSERT_NE(it, b.metrics.values.end()) << kv.first;
        EXPECT_EQ(static_cast<int>(kv.second.kind),
                  static_cast<int>(it->second.kind));
        EXPECT_EQ(kv.second.count, it->second.count);
        EXPECT_EQ(kv.second.value, it->second.value);
        EXPECT_EQ(kv.second.lo, it->second.lo);
        EXPECT_EQ(kv.second.hi, it->second.hi);
        EXPECT_EQ(kv.second.bins, it->second.bins);
    }
}

} // namespace

TEST_F(ResultCacheTest, GoldenPointKey)
{
    // The canonical key format is a cross-process contract: a format
    // change silently invalidates every existing cache (acceptable,
    // it's a cache) but MUST be a deliberate, reviewed act — hence the
    // full golden string.
    SweepPoint p;
    EXPECT_EQ(p.cacheKey(knobs(), mixes()),
              "hira-point-v1\n"
              "rev=test\n"
              "geom=c8-ch1-rk1\n"
              "standard=ddr4_2400\n"
              "engine=event\n"
              "metrics=off\n"
              "warmup=3000\n"
              "cycles=12000\n"
              "scheme=k1-n2-post0-pvh1-para0-nrh1024-prev0-ap1-rp1-"
              "pull1-spt0.32000000000000001\n"
              "mixes=1\n"
              "mix0=mcf-like|gcc-like\n");
}

TEST_F(ResultCacheTest, GoldenAloneKey)
{
    GeomSpec g;
    EXPECT_EQ(aloneResultCacheKey("mcf-like", g, knobs()),
              "hira-alone-v1\n"
              "rev=test\n"
              "geom=c8-ch1-rk1\n"
              "standard=ddr4_2400\n"
              "engine=event\n"
              "metrics=off\n"
              "warmup=3000\n"
              "cycles=12000\n"
              "bench=mcf-like\n");
}

TEST_F(ResultCacheTest, EveryInputChangesThePointKey)
{
    SweepPoint p;
    const std::string base = p.cacheKey(knobs(), mixes());

    SweepPoint geom = p;
    geom.geom.capacityGb = 32.0;
    EXPECT_NE(geom.cacheKey(knobs(), mixes()), base);

    SweepPoint standard = p;
    standard.geom.standard = "ddr5_4800";
    EXPECT_NE(standard.cacheKey(knobs(), mixes()), base);

    SweepPoint scheme = p;
    scheme.scheme.kind = SchemeKind::HiraMc;
    EXPECT_NE(scheme.cacheKey(knobs(), mixes()), base);

    BenchKnobs warm = knobs();
    warm.warmup += 1;
    EXPECT_NE(p.cacheKey(warm, mixes()), base);

    BenchKnobs cyc = knobs();
    cyc.cycles += 1;
    EXPECT_NE(p.cacheKey(cyc, mixes()), base);

    EXPECT_NE(p.cacheKey(knobs(), {{"mcf-like"}}), base);
    EXPECT_NE(p.cacheKey(knobs(), {{"mcf-like", "gcc-like"},
                                   {"mcf-like", "gcc-like"}}),
              base);

    ::setenv("HIRA_CACHE_REV", "other", 1);
    EXPECT_NE(p.cacheKey(knobs(), mixes()), base);
    ::setenv("HIRA_CACHE_REV", "test", 1);

    ::setenv("HIRA_ENGINE", "cycle", 1);
    EXPECT_NE(p.cacheKey(knobs(), mixes()), base);
    ::setenv("HIRA_ENGINE", "event", 1);

    // Metrics level changes the PointResult::metrics payload, so it
    // keys separate slots even though the numbers are identical.
    ::setenv("HIRA_METRICS", "full", 1);
    EXPECT_NE(p.cacheKey(knobs(), mixes()), base);
    ::unsetenv("HIRA_METRICS");

    // Thread count must NOT change the key: results are bitwise
    // thread-count-independent, and a per-thread-count cache would
    // defeat cross-machine sharing.
    BenchKnobs threads = knobs();
    threads.threads = 8;
    EXPECT_EQ(p.cacheKey(threads, mixes()), base);
}

TEST_F(ResultCacheTest, CorpusSpecsResolveAgainstTheActiveManifest)
{
    // Non-corpus specs pass through verbatim.
    EXPECT_EQ(resolvedMixSpecKey("mcf-like"), "mcf-like");
    EXPECT_EQ(resolvedMixSpecKey("file:/tmp/x.trace"),
              "file:/tmp/x.trace");

    // A corpus entry folds file/format/instructions/class/prior into
    // the key, so renaming-in-place or re-measuring a prior can never
    // serve a stale cached point.
    { std::ofstream(dir + "/a.trace") << "# empty\n"; }
    CorpusEntry e;
    e.name = "mix-a";
    e.file = "a.trace";
    e.format = TraceFormat::Text;
    e.instructions = 5000;
    e.mpki = MpkiClass::High;
    e.aloneIpc = 0.75;
    auto corpus = std::make_shared<Corpus>(
        dir, std::vector<CorpusEntry>{e});
    Corpus::setActive(corpus);

    std::string resolved = resolvedMixSpecKey("corpus:mix-a");
    EXPECT_EQ(resolved,
              "corpus:mix-a{file=a.trace;fmt=text;instr=5000;class=H;"
              "prior=0.75}");
    // "?once" changes replay semantics: the option must survive into
    // the key alongside the resolved entry.
    EXPECT_EQ(resolvedMixSpecKey("corpus:mix-a?once"),
              "corpus:mix-a?once{file=a.trace;fmt=text;instr=5000;"
              "class=H;prior=0.75}");

    // A different prior for the same name = a different key.
    CorpusEntry e2 = e;
    e2.aloneIpc = 0.0; // "not measured"
    Corpus::setActive(std::make_shared<Corpus>(
        dir, std::vector<CorpusEntry>{e2}));
    EXPECT_EQ(resolvedMixSpecKey("corpus:mix-a"),
              "corpus:mix-a{file=a.trace;fmt=text;instr=5000;class=H;"
              "prior=-}");

    Corpus::setActive(nullptr);
    EXPECT_EXIT((void)resolvedMixSpecKey("corpus:mix-a"),
                ::testing::ExitedWithCode(1),
                "needs an active trace corpus");
}

TEST_F(ResultCacheTest, PointRoundTripIsExact)
{
    std::string key = SweepPoint().cacheKey(knobs(), mixes());
    PointResult stored = samplePoint();
    {
        ResultCache cache(dir);
        cache.storePoint(key, stored);
        EXPECT_EQ(cache.stats().writes, 1u);
    }
    // A fresh instance: the round trip below is through the file
    // bytes.
    ResultCache cache(dir);
    PointResult loaded;
    ASSERT_TRUE(cache.lookupPoint(key, loaded));
    expectEqualResults(loaded, stored);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_GT(cache.stats().bytesRead, 0u);

    double ipc = 0.0;
    EXPECT_FALSE(cache.lookupAlone("no-such-key", ipc));
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ResultCacheTest, AloneRoundTripIsExact)
{
    std::string key = aloneResultCacheKey("mcf-like", GeomSpec(), knobs());
    ResultCache cache(dir);
    cache.storeAlone(key, 0.1 + 0.2);
    ResultCache fresh(dir);
    double ipc = 0.0;
    ASSERT_TRUE(fresh.lookupAlone(key, ipc));
    EXPECT_EQ(ipc, 0.1 + 0.2);
}

TEST_F(ResultCacheTest, FromEnvHonorsKnobs)
{
    EXPECT_EQ(ResultCache::fromEnv(), nullptr); // no dir set

    ::setenv("HIRA_RESULT_CACHE", dir.c_str(), 1);
    auto cache = ResultCache::fromEnv();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->dir(), dir);

    ::unsetenv("HIRA_RESULT_CACHE");
}

TEST_F(ResultCacheTest, StaleEntryIsRejectedOnKeyMismatch)
{
    // Copy keyA's entry file onto keyB's slot — the embedded full key
    // no longer matches the lookup key (this is what a hash collision
    // or a tampered cache dir would look like) and must read as a
    // miss, never as keyB's result.
    SweepPoint a;
    SweepPoint b;
    b.scheme.kind = SchemeKind::HiraMc;
    std::string keyA = a.cacheKey(knobs(), mixes());
    std::string keyB = b.cacheKey(knobs(), mixes());
    ResultCache cache(dir);
    cache.storePoint(keyA, samplePoint());
    std::filesystem::copy_file(cache.pointPath(keyA),
                               cache.pointPath(keyB));
    ResultCache fresh(dir);
    PointResult out;
    EXPECT_FALSE(fresh.lookupPoint(keyB, out));
    EXPECT_EQ(fresh.stats().stale, 1u);
    // keyA itself still hits.
    EXPECT_TRUE(fresh.lookupPoint(keyA, out));
}

TEST_F(ResultCacheTest, CorruptAndTruncatedEntriesAreSkipped)
{
    std::string key = SweepPoint().cacheKey(knobs(), mixes());
    ResultCache writer(dir);
    writer.storePoint(key, samplePoint());
    std::string path = writer.pointPath(key);

    // Truncation: drop the trailing "end" terminator and some payload.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    ASSERT_GT(bytes.size(), 20u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() - 20);
    }
    ResultCache truncated(dir);
    PointResult out;
    EXPECT_FALSE(truncated.lookupPoint(key, out));
    EXPECT_EQ(truncated.stats().corrupt, 1u);

    // Garbage: not even the magic line.
    {
        std::ofstream g(path, std::ios::binary | std::ios::trunc);
        g << "not a cache entry\n";
    }
    ResultCache garbage(dir);
    EXPECT_FALSE(garbage.lookupPoint(key, out));
    EXPECT_EQ(garbage.stats().corrupt, 1u);

    // A refresh line one counter short, and one counter long.
    std::size_t eol = bytes.find('\n', bytes.find("\nrefresh ") + 1);
    std::size_t lastSpace = bytes.rfind(' ', eol);
    for (const std::string &mutated :
         {bytes.substr(0, lastSpace) + bytes.substr(eol),
          bytes.substr(0, eol) + " 99" + bytes.substr(eol)}) {
        {
            std::ofstream m(path, std::ios::binary | std::ios::trunc);
            m << mutated;
        }
        ResultCache reader(dir);
        EXPECT_FALSE(reader.lookupPoint(key, out));
        EXPECT_EQ(reader.stats().corrupt, 1u);
    }

    // And a rewrite repairs the slot.
    garbage.storePoint(key, samplePoint());
    ResultCache repaired(dir);
    EXPECT_TRUE(repaired.lookupPoint(key, out));
    expectEqualResults(out, samplePoint());
}

TEST_F(ResultCacheTest, MetricsSnapshotExposesCounters)
{
    ResultCache cache(dir);
    PointResult out;
    (void)cache.lookupPoint("nope", out);
    cache.storePoint("k", samplePoint());
    MetricsSnapshot snap = cache.metricsSnapshot();
    EXPECT_EQ(snap.values.at("result_cache.misses").count, 1u);
    EXPECT_EQ(snap.values.at("result_cache.writes").count, 1u);
    EXPECT_GT(snap.values.at("result_cache.bytes_written").count, 0u);
}
