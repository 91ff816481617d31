/**
 * @file
 * Trace-corpus walkthrough (src/workload/corpus.hh).
 *
 * Sweeps intensity-binned mixes of a trace corpus on two geometries,
 * twice, over one result-cache directory. Pass 1 measures every
 * trace's IPC-alone reference on each geometry and saves it in the
 * cache. Pass 2 is a fresh runner sweeping a different scheme, so its
 * points miss the cache, but its alone IPCs must all come from pass 1's
 * entries: zero alone runs, bitwise-equal values. This is how alone
 * IPC is kept across processes (HIRA_RESULT_CACHE) for every workload
 * spec, and it doubles as a CI smoke check of the corpus path,
 * including under sanitizers.
 *
 * With HIRA_CORPUS=<dir> set, the corpus is loaded from there (e.g.,
 * one built by tools/hira_tracegen); otherwise a tiny corpus is
 * synthesized into a temp directory first.
 *
 * Build and run: ./build/examples/example_corpus_sweep
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/knobs.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/corpus.hh"
#include "workload/file_trace.hh"

using namespace hira;

namespace {

std::string
makeTempDir(const char *stem)
{
    const char *base = std::getenv("TMPDIR");
    std::string templ = std::string(base != nullptr ? base : "/tmp") +
                        "/" + stem + ".XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
        std::perror("mkdtemp");
        std::exit(1);
    }
    return std::string(buf.data());
}

/** Synthesize a 4-trace corpus into @p dir. */
void
synthesizeCorpus(const std::string &dir)
{
    const std::vector<std::string> names = {"mcf-like", "gcc-like",
                                            "h264-like",
                                            "libquantum-like"};
    std::vector<CorpusEntry> entries;
    for (std::size_t i = 0; i < names.size(); ++i) {
        TraceFormat format =
            i % 2 == 0 ? TraceFormat::Text : TraceFormat::Binary;
        CorpusEntry e;
        e.name = names[i];
        e.file = e.name + (format == TraceFormat::Binary ? ".bin"
                                                         : ".trace");
        const BenchmarkProfile &prof = benchmarkByName(e.name);
        TraceGen gen(prof, hashString(e.name), 0, 1ull << 28);
        dumpTrace(gen, dir + "/" + e.file, format, 20000);
        e.mpki = classifyApki(1000.0 * prof.memPerInstr);
        entries.push_back(std::move(e));
    }
    writeManifest(dir, entries);
}

/** Sweep @p scheme on every geometry with a runner on @p cache_dir. */
std::unique_ptr<SweepRunner>
sweep(const BenchKnobs &knobs, const std::vector<WorkloadMix> &mixes,
      const std::vector<GeomSpec> &geoms, const SchemeSpec &scheme,
      const std::string &cache_dir, const char *label)
{
    auto runner = std::make_unique<SweepRunner>(knobs, mixes);
    runner->setResultCache(std::make_unique<ResultCache>(cache_dir));
    std::vector<SweepPoint> plan;
    for (const GeomSpec &g : geoms)
        plan.push_back(SweepPoint{g, scheme});
    std::vector<PointResult> results = runner->runPoints(plan);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        std::printf("%s: %s @ %s mean weighted speedup %.6f\n", label,
                    scheme.label().c_str(), plan[i].geom.key().c_str(),
                    results[i].meanWs);
    }
    std::printf("%s: %llu alone reference runs\n", label,
                static_cast<unsigned long long>(runner->aloneRunCount()));
    return runner;
}

} // namespace

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();

    const char *env = std::getenv("HIRA_CORPUS");
    std::string dir = env != nullptr && *env != '\0' ? env : "";
    bool ownDir = dir.empty();
    if (ownDir) {
        dir = makeTempDir("hira_corpus_sweep");
        std::printf("synthesizing a tiny corpus in %s\n", dir.c_str());
        synthesizeCorpus(dir);
    }
    std::string cacheDir = makeTempDir("hira_corpus_cache");

    auto corpus = std::make_shared<const Corpus>(Corpus::load(dir));
    Corpus::setActive(corpus);
    std::printf("corpus %s: %zu traces\n", dir.c_str(), corpus->size());

    std::vector<WorkloadMix> mixes =
        makeCorpusMixes(knobs.mixes, knobs.cores, *corpus);
    std::set<std::string> specs;
    for (const WorkloadMix &mix : mixes)
        specs.insert(mix.begin(), mix.end());
    std::vector<GeomSpec> geoms(2);
    geoms[1].capacityGb = 32.0;
    SchemeSpec baseline;
    baseline.kind = SchemeKind::Baseline;
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;

    // Pass 1 measures each spec's alone IPC once per geometry.
    auto first = sweep(knobs, mixes, geoms, baseline, cacheDir, "pass 1");
    // Pass 2's points miss the cache (another scheme), yet every alone
    // IPC it needs is already there.
    auto second = sweep(knobs, mixes, geoms, hira, cacheDir, "pass 2");

    bool ok = true;
    for (const GeomSpec &g : geoms) {
        for (const std::string &spec : specs) {
            double a = first->aloneIpc(spec, g);
            double b = second->aloneIpc(spec, g);
            std::printf("  alone IPC %-24s @ %s: %.6f\n", spec.c_str(),
                        g.key().c_str(), a);
            if (a != b) {
                std::printf("FAIL: pass 2 alone IPC %.17g differs from "
                            "pass 1's %.17g\n",
                            b, a);
                ok = false;
            }
        }
    }
    if (first->aloneRunCount() != specs.size() * geoms.size()) {
        std::printf("FAIL: pass 1 ran %llu alone runs, expected one per "
                    "(spec, geometry) = %zu\n",
                    static_cast<unsigned long long>(first->aloneRunCount()),
                    specs.size() * geoms.size());
        ok = false;
    }
    if (second->pointsFromCache() != 0 || second->aloneRunCount() != 0) {
        std::printf("FAIL: pass 2 should simulate its points and take "
                    "every alone IPC from the cache\n");
        ok = false;
    }

    Corpus::setActive(nullptr);
    std::filesystem::remove_all(cacheDir);
    if (ownDir)
        std::filesystem::remove_all(dir);

    if (!ok)
        return 1;
    std::printf("the result cache served every alone IPC of pass 2 "
                "bitwise, with zero reference runs\n");
    return 0;
}
