/**
 * @file
 * hira_perf: the repository benchmark driver.
 *
 * One process runs one workload: it builds the workload's sweep plan
 * (geometry x refresh scheme x 8-core mixes) from --seed and evaluates
 * it through the public SweepRunner::runPoints with the result cache
 * off, timing every layer from outside by calling public functions.
 * All simulations are closed-loop: each worker takes its next
 * simulation when the previous one finishes. Every simulation is a
 * cold-cache warmup followed by a measured interval (see README.md).
 *
 *   hira_perf --workload <name> --seed <s> [--threads N] [--traced]
 *             [--scale default|smoke] [--workdir DIR] [--out FILE]
 *
 * Untraced runs report the end-to-end metrics: simulated bus cycles per
 * CPU-second, sweep wall time, set-up time (all three scaled to a
 * reference host speed, see hostSpeed()) and memory per System.
 * Traced runs (--traced) run the same plan with HIRA_METRICS=counters
 * and HIRA_TRACE_EVENTS set, and report per-layer metrics: exact work
 * counts, times parsed from the program's own trace slices, and three
 * isolation probes (workload sources, the LLC, one controller). Both
 * run the correctness gate; any failed check makes the exit code 1.
 *
 * The result is one JSON object written to --out (run.py reads it);
 * a human-readable summary goes to stdout.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"
#include "common/worker_pool.hh"
#include "dram/addrmap.hh"
#include "dram/timing_checker.hh"
#include "sim/cache.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/scheme_registry.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "workload/file_trace.hh"
#include "workload/registry.hh"

#ifndef HIRA_GIT_REV
#define HIRA_GIT_REV "unknown"
#endif

using namespace hira;

namespace {

// ----- options and scale ----------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int threads = 0; //!< 0: min(4, nproc)
    bool traced = false;
    bool smoke = false;
    std::string workdir = ".bench_build/hira_perf_work";
    std::string out;
};

/** Run lengths and probe sizes of one scale. */
struct Scale
{
    Cycle warmup;
    Cycle cycles;
    // Mixes per workload, sized so that one sweep takes about 4 s on the
    // 4-vCPU VM described in README.md.
    int heavyMixes;     //!< periodic_hira and rowhammer_preventive
    int residentMixes;  //!< light_llc
    int replayMixes;    //!< replay_ddr5
    std::uint64_t traceInsts;   //!< replay: instructions per trace file
    Cycle engineCheckCycles;    //!< cycle-loop vs event-engine check
    Cycle timingCheckCycles;    //!< recorded-command timing audit
    std::uint64_t probeInsts;   //!< next() calls per source kind
    Cycle probeTicks;           //!< controller probe ticks per point
    int setupReps;
    int rounds; //!< measured sweeps of the plan; every run does all of them
    bool coverage; //!< runs long enough for every mechanism to trigger
};

const Scale kDefaultScale = {100000, 1000000, 3, 4, 6, 600000, 150000,
                             50000, 1000000, 200000, 21, 5, true};
const Scale kSmokeScale = {2000, 20000, 2, 2, 2, 20000, 5000,
                           3000, 20000, 5000, 3, 1, false};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hira_perf: %s\n"
                 "usage: hira_perf --workload <name> --seed <s> "
                 "[--threads N] [--traced] "
                 "[--scale default|smoke] [--workdir DIR] [--out FILE]\n"
                 "workloads: periodic_hira rowhammer_preventive light_llc "
                 "replay_ddr5\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--threads") {
            o.threads = std::atoi(value().c_str());
            if (o.threads < 1)
                usage("--threads must be >= 1");
        } else if (a == "--traced") {
            o.traced = true;
        } else if (a == "--scale") {
            std::string s = value();
            if (s != "default" && s != "smoke")
                usage("--scale must be default or smoke");
            o.smoke = s == "smoke";
        } else if (a == "--workdir") {
            o.workdir = value();
        } else if (a == "--out") {
            o.out = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.threads == 0) {
        long n = sysconf(_SC_NPROCESSORS_ONLN);
        o.threads = static_cast<int>(std::max(1L, std::min(4L, n)));
    }
    return o;
}

/**
 * Pin the program's configuration: clear every HIRA_* knob a caller's
 * environment may carry (engine, kernel, standard, corpus, result
 * cache, observability), then set only what this run needs. Must run
 * before any library call reads the environment.
 */
void
pinEnvironment(const Options &o)
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        std::string kv = *e;
        if (kv.rfind("HIRA_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("HIRA_ENGINE", "event", 1);
    if (o.traced) {
        setenv("HIRA_METRICS", "counters", 1);
        setenv("HIRA_TRACE_EVENTS", (o.workdir + "/trace.json").c_str(), 1);
    }
}

// ----- clocks ---------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU time (user + system, all threads). */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Resident set size from /proc/self/statm, in MB. */
double
rssMb()
{
    std::ifstream f("/proc/self/statm");
    long size = 0, resident = 0;
    f >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
median(std::vector<double> v)
{
    SampleSet s;
    for (double x : v)
        s.add(x);
    return s.quantile(0.5);
}

// ----- host speed -------------------------------------------------------

/** CPU time of the calling thread. */
double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(
                                                       ts.tv_nsec);
}

constexpr std::uint64_t kCalibrationSteps = 16000000;

/**
 * Mean thread CPU seconds of the calibration kernel on the 4-vCPU VM
 * README.md describes: the median of 18 samples taken at a quiet time,
 * 4 threads at once.
 */
constexpr double kReferenceCalibrationS = 0.165;

std::atomic<std::uint64_t> calibrationSink{0};

/**
 * The calibration kernel: random reads and writes over a 4 MB table
 * with data-dependent branches, the kind of work the simulator does.
 * Returns the thread CPU seconds it took.
 */
double
calibrationKernel(std::uint64_t seed)
{
    std::vector<std::uint32_t> table(1u << 20);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t x = 0x9e3779b97f4a7c15ull + seed;
    std::uint64_t acc = 0;
    double c0 = threadCpuNow();
    for (std::uint64_t i = 0; i < kCalibrationSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &v = table[x & mask];
        v = (v & 1) ? v * 3 + 1 : v >> 1;
        acc += v;
        if ((acc ^ x) & 8)
            acc ^= x >> 3;
    }
    double cpu = threadCpuNow() - c0;
    calibrationSink.fetch_add(acc, std::memory_order_relaxed);
    return cpu;
}

/**
 * The host's speed relative to the reference VM: the calibration kernel
 * on each of @p threads threads at once. The kernel belongs to the
 * benchmark and does not change with the simulator, so its time
 * measures the host alone. > 1: the host runs faster than the
 * reference.
 */
double
hostSpeed(int threads)
{
    std::vector<double> cpu(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    try {
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&cpu, t] {
                cpu[static_cast<std::size_t>(t)] =
                    calibrationKernel(static_cast<std::uint64_t>(t));
            });
        }
    } catch (...) {
        for (std::thread &w : workers)
            w.join();
        throw;
    }
    for (std::thread &w : workers)
        w.join();
    double mean = 0.0;
    for (double c : cpu)
        mean += c / threads;
    return kReferenceCalibrationS / mean;
}

// ----- workloads --------------------------------------------------------

/** One point of a workload's plan, with its checks' expectations. */
struct PlanPoint
{
    std::string id;  //!< metric-safe name (model.ws.<id>)
    SweepPoint sp;
    int ref = -1;    //!< point model.ws_norm.<id> divides by (-1: none)
    bool expectHira = false;        //!< cmd.hira > 0
    bool expectPreventive = false;  //!< preventive_generated > 0
    int extraActsOver = -1;         //!< more ACTs than this point
    bool expectResident = false;    //!< LLC misses below kResidentMissFrac
};

struct Workload
{
    std::string name;
    std::vector<PlanPoint> points;
    std::vector<WorkloadMix> mixes;
    std::size_t memPoint = 0; //!< point whose Systems mem_per_system_mb holds
    /** Synthetic profiles behind mix 0 (the workload probe's sources). */
    WorkloadMix probeProfiles;
    /** File specs of mix 0 (replay only; looping, for the probe). */
    WorkloadMix probeFiles;
    double inputGenS = 0.0;
};

GeomSpec
geomOf(double gb, int channels = 1, int ranks = 1,
       const char *standard = "ddr4_2400")
{
    GeomSpec g;
    g.capacityGb = gb;
    g.channels = channels;
    g.ranks = ranks;
    g.standard = standard;
    return g;
}

SchemeSpec
schemeOf(SchemeKind kind)
{
    SchemeSpec s;
    s.kind = kind;
    return s;
}

SchemeSpec
hiraOf(int slack)
{
    SchemeSpec s = schemeOf(SchemeKind::HiraMc);
    s.slackN = slack;
    return s;
}

/** PARA at @p nrh: immediate (slack < 0) or served by HiRA-slack. */
SchemeSpec
paraOf(double nrh, int slack)
{
    SchemeSpec s = schemeOf(SchemeKind::Baseline);
    s.paraEnabled = true;
    s.nrh = nrh;
    if (slack >= 0) {
        s.preventiveViaHira = true;
        s.slackN = slack;
    }
    return s;
}

/**
 * @p count 8-core mixes, each a seed-shuffled permutation of the eight
 * entries of @p pool. Every seed runs the same composition, so the
 * simulator's work per run depends on the seed only through stream
 * contents and core placement; uniform draws (makeMixes) change how
 * many memory-heavy cores a plan has, and the simulator's speed with it.
 */
std::vector<WorkloadMix>
dealMixes(const std::vector<std::string> &pool, int count,
          std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<WorkloadMix> mixes;
    for (int m = 0; m < count; ++m) {
        WorkloadMix mix = pool;
        for (std::size_t i = mix.size(); i > 1; --i)
            std::swap(mix[i - 1], mix[rng.below(i)]);
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

/**
 * Footprint of a "resident:" source: 128 KB, so eight cores fill 1 MB
 * of the 8 MB LLC. Their compulsory misses are served within the
 * warmup; the profiles' own 0.5-1 MB hot sets (5.6 MB for eight) take
 * about 400k bus cycles of memory-bound filling.
 */
constexpr std::uint64_t kResidentLines = 2048;

/**
 * Register the "resident:<profile>" workload scheme: the pool profile's
 * instruction mix with every access confined to kResidentLines lines.
 * The pool's own cache-friendly profiles still send 5-50 % of their
 * accesses over 3-64 MB footprints, so eight of them miss the LLC
 * nearly as often per bus cycle as memory-heavy mixes do.
 */
void
registerResidentScheme()
{
    WorkloadRegistry::global().registerScheme(
        "resident", [](const std::string &arg, std::uint64_t seed, Addr base,
                       Addr sliceBytes) -> std::unique_ptr<TraceSource> {
            BenchmarkProfile p = benchmarkByName(arg);
            p.footprintLines = kResidentLines;
            return std::make_unique<TraceGen>(p, seed, base, sliceBytes);
        });
}

// Pools of eight profiles each. The memory-heavy pool is the eight most
// memory-intensive profiles (LLC misses per instruction). The
// LLC-resident pool runs eight low-intensity profiles as "resident:"
// sources. The replay pool spans streaming, irregular and
// cache-friendly profiles.
const std::vector<std::string> kHeavyPool = {
    "mcf-like",  "lbm-like",  "libquantum-like", "gems-like",
    "milc-like", "soplex-like", "leslie3d-like", "omnetpp-like"};
const std::vector<std::string> kLightPool = {
    "resident:h264-like", "resident:namd-like",  "resident:perlbench-like",
    "resident:hmmer-like", "resident:gcc-like",  "resident:bzip2-like",
    "resident:astar-like", "resident:zeusmp-like"};
const std::vector<std::string> kReplayPool = {
    "mcf-like",     "lbm-like",   "libquantum-like", "milc-like",
    "omnetpp-like", "astar-like", "gcc-like",        "h264-like"};

/**
 * Synthesize one text trace per replay-pool profile into @p dir through
 * TraceRecorder (dumpTrace), seeded from @p seed. Returns the paths.
 */
std::vector<std::string>
synthesizeTraces(const GeomSpec &geom, std::uint64_t seed,
                 std::uint64_t insts, const std::string &dir)
{
    Addr slice = AddressMapper(geom.toGeometry()).addressSpaceBytes() / 8;
    std::vector<std::string> paths;
    for (std::size_t j = 0; j < kReplayPool.size(); ++j) {
        TraceGen gen(benchmarkByName(kReplayPool[j]),
                     hashCombine(seed, 0x7ace + j), 0, slice);
        std::string path = strprintf("%s/%s.trace", dir.c_str(),
                                     kReplayPool[j].c_str());
        dumpTrace(gen, path, TraceFormat::Text, insts);
        paths.push_back(path);
    }
    return paths;
}

/**
 * The plan and inputs of workload @p name. Replay trace files are
 * synthesized into @p workdir when @p synthesize is set (they are
 * re-used, not re-made, by the set-up repetitions).
 */
Workload
buildWorkload(const std::string &name, std::uint64_t seed, const Scale &sc,
              const std::string &workdir, bool synthesize)
{
    Workload w;
    w.name = name;
    auto add = [&w](std::string id, GeomSpec g, SchemeSpec s, int ref) {
        PlanPoint p;
        p.id = std::move(id);
        p.sp = SweepPoint{std::move(g), s};
        p.ref = ref;
        w.points.push_back(p);
        return static_cast<int>(w.points.size() - 1);
    };
    if (name == "periodic_hira") {
        for (double gb : {8.0, 128.0}) {
            std::string sfx = strprintf("_%.0fgb", gb);
            int none = add("norefresh" + sfx, geomOf(gb),
                           schemeOf(SchemeKind::NoRefresh), -1);
            add("baseline" + sfx, geomOf(gb),
                schemeOf(SchemeKind::Baseline), none);
            int h = add("hira2" + sfx, geomOf(gb), hiraOf(2), none);
            w.points[h].expectHira = true;
        }
        w.memPoint = w.points.size() - 1; // HiRA-2 at 128 Gb
        w.mixes = dealMixes(kHeavyPool, sc.heavyMixes,
                            hashCombine(seed, 0x9e));
    } else if (name == "rowhammer_preventive") {
        GeomSpec g = geomOf(8.0);
        int base = add("baseline", g, schemeOf(SchemeKind::Baseline), -1);
        int para = add("para_nrh64", g, paraOf(64, -1), base);
        w.points[para].extraActsOver = base;
        int ph = add("para_hira4_nrh64", g, paraOf(64, 4), base);
        w.points[ph].expectHira = true;
        w.points[ph].expectPreventive = true;
        SchemeSpec rfm = schemeOf(SchemeKind::Rfm);
        rfm.raaimt = 16;
        SchemeSpec prac = schemeOf(SchemeKind::Prac);
        prac.pracThreshold = 32;
        SchemeSpec graphene = schemeOf(SchemeKind::Graphene);
        graphene.nrh = 64;
        for (auto &[id, s] : {std::pair<std::string, SchemeSpec>{
                                  "rfm_raaimt16", rfm},
                              {"prac_th32", prac},
                              {"graphene_nrh64", graphene}}) {
            int i = add(id, g, s, base);
            w.points[i].expectPreventive = true;
        }
        w.memPoint = static_cast<std::size_t>(ph);
        w.mixes = dealMixes(kHeavyPool, sc.heavyMixes,
                            hashCombine(seed, 0x9e));
    } else if (name == "light_llc") {
        GeomSpec g = geomOf(8.0);
        int none = add("norefresh", g, schemeOf(SchemeKind::NoRefresh), -1);
        add("baseline", g, schemeOf(SchemeKind::Baseline), none);
        for (PlanPoint &p : w.points)
            p.expectResident = true;
        w.memPoint = 1;
        w.mixes = dealMixes(kLightPool, sc.residentMixes,
                            hashCombine(seed, 0x11c));
    } else if (name == "replay_ddr5") {
        GeomSpec g = geomOf(16.0, 2, 2, "ddr5_4800");
        int base = add("baseline", g, schemeOf(SchemeKind::Baseline), -1);
        int h = add("hira2", g, hiraOf(2), base);
        w.points[h].expectHira = true;
        w.memPoint = static_cast<std::size_t>(h);
        std::vector<std::string> paths;
        for (const std::string &p : kReplayPool)
            paths.push_back(strprintf("%s/%s.trace", workdir.c_str(),
                                      p.c_str()));
        if (synthesize) {
            double t0 = wallNow();
            paths = synthesizeTraces(g, seed, sc.traceInsts, workdir);
            w.inputGenS = wallNow() - t0;
        }
        for (const WorkloadMix &order : dealMixes(
                 kReplayPool, sc.replayMixes, hashCombine(seed, 0x4e91))) {
            WorkloadMix mix;
            for (const std::string &profile : order) {
                std::size_t j = static_cast<std::size_t>(
                    std::find(kReplayPool.begin(), kReplayPool.end(),
                              profile) -
                    kReplayPool.begin());
                mix.push_back("file:" + paths[j] + "?once");
                if (w.mixes.empty())
                    w.probeFiles.push_back("file:" + paths[j]);
            }
            if (w.mixes.empty())
                w.probeProfiles = order;
            w.mixes.push_back(std::move(mix));
        }
    } else {
        usage(("unknown workload " + name).c_str());
    }
    if (w.probeProfiles.empty())
        w.probeProfiles = w.mixes.front();
    return w;
}

std::vector<SweepPoint>
sweepPlan(const Workload &w)
{
    std::vector<SweepPoint> plan;
    for (const PlanPoint &p : w.points)
        plan.push_back(p.sp);
    return plan;
}

BenchKnobs
knobsFor(const Scale &sc, int threads)
{
    BenchKnobs k;
    k.warmup = static_cast<std::int64_t>(sc.warmup);
    k.cycles = static_cast<std::int64_t>(sc.cycles);
    k.threads = threads;
    k.cores = 8;
    return k;
}

SystemConfig
configOf(const Workload &w, std::size_t point, std::size_t mix)
{
    const SweepPoint &sp = w.points[point].sp;
    return makeSystemConfig(
        sp.geom, sp.scheme, w.mixes[mix],
        sweepRunSeed(sp.geom.key(), sp.scheme.seedKey(), mix));
}

// ----- end-to-end measurements ------------------------------------------

/** RSS growth per live System of the workload's memPoint config. */
double
memPerSystemMb(const Workload &w)
{
    const int n = 4;
    double before = rssMb();
    std::vector<std::unique_ptr<System>> held;
    for (int i = 0; i < n; ++i) {
        held.push_back(std::make_unique<System>(configOf(
            w, w.memPoint, static_cast<std::size_t>(i) % w.mixes.size())));
    }
    return (rssMb() - before) / n;
}

/**
 * One set-up: load the workload's inputs, construct the SweepRunner,
 * and construct (then drop) every System of the plan.
 */
double
setupOnce(const Options &o, const Scale &sc)
{
    double t0 = wallNow();
    Workload w = buildWorkload(o.workload, o.seed, sc, o.workdir, false);
    SweepRunner runner(knobsFor(sc, o.threads), w.mixes);
    runner.setResultCache(nullptr);
    for (std::size_t p = 0; p < w.points.size(); ++p)
        for (std::size_t m = 0; m < w.mixes.size(); ++m)
            System sys(configOf(w, p, m));
    return wallNow() - t0;
}

struct Round
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double traceStartUs = 0.0; //!< the runPoints call, in trace time
    double traceEndUs = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t aloneRuns = 0;
    std::vector<PointResult> points;
};

/** One full sweep of the plan through a fresh SweepRunner. */
Round
runRound(const Workload &w, const Scale &sc, int threads)
{
    SweepRunner runner(knobsFor(sc, threads), w.mixes);
    runner.setResultCache(nullptr);
    std::vector<SweepPoint> plan = sweepPlan(w);
    Round r;
    {
        TraceSpan span("runPoints", "bench");
        r.traceStartUs = TraceEventLog::global().nowUs();
        double c0 = cpuNow(), w0 = wallNow();
        r.points = runner.runPoints(plan);
        r.wallS = wallNow() - w0;
        r.cpuS = cpuNow() - c0;
        r.traceEndUs = TraceEventLog::global().nowUs();
    }
    r.aloneRuns = runner.aloneRunCount();
    for (const PointResult &p : r.points)
        r.cycles += p.simCycles;
    r.cycles += r.aloneRuns * (sc.warmup + sc.cycles);
    return r;
}

// ----- correctness gate ---------------------------------------------------

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Field-by-field bitwise SystemResult comparison; "" when equal. */
std::string
resultDiff(const SystemResult &a, const SystemResult &b)
{
    if (a.ipc.size() != b.ipc.size())
        return "ipc size";
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        if (!sameBits(a.ipc[i], b.ipc[i]))
            return strprintf("ipc[%zu]", i);
    if (!sameBits(a.avgReadLatencyCycles, b.avgReadLatencyCycles))
        return "avgReadLatencyCycles";
    const std::pair<const char *, std::pair<std::uint64_t, std::uint64_t>>
        fields[] = {
            {"memReads", {a.memReads, b.memReads}},
            {"memWrites", {a.memWrites, b.memWrites}},
            {"llcHits", {a.llcHits, b.llcHits}},
            {"llcMisses", {a.llcMisses, b.llcMisses}},
            {"refCommands", {a.refresh.refCommands, b.refresh.refCommands}},
            {"rowRefreshes",
             {a.refresh.rowRefreshes, b.refresh.rowRefreshes}},
            {"accessPaired",
             {a.refresh.accessPaired, b.refresh.accessPaired}},
            {"refreshPaired",
             {a.refresh.refreshPaired, b.refresh.refreshPaired}},
            {"standalone", {a.refresh.standalone, b.refresh.standalone}},
            {"deadlineMisses",
             {a.refresh.deadlineMisses, b.refresh.deadlineMisses}},
            {"preventiveGenerated",
             {a.refresh.preventiveGenerated, b.refresh.preventiveGenerated}},
            {"preventiveDropped",
             {a.refresh.preventiveDropped, b.refresh.preventiveDropped}},
            {"readsServed",
             {a.controller.readsServed, b.controller.readsServed}},
            {"writesServed",
             {a.controller.writesServed, b.controller.writesServed}},
            {"readLatencySum",
             {a.controller.readLatencySum, b.controller.readLatencySum}},
            {"forwards", {a.controller.forwards, b.controller.forwards}},
            {"acts", {a.controller.acts, b.controller.acts}},
            {"pres", {a.controller.pres, b.controller.pres}},
            {"refs", {a.controller.refs, b.controller.refs}},
            {"hiraOps", {a.controller.hiraOps, b.controller.hiraOps}},
            {"rejectedRequests",
             {a.controller.rejectedRequests, b.controller.rejectedRequests}},
        };
    for (const auto &f : fields)
        if (f.second.first != f.second.second)
            return f.first;
    return "";
}

/**
 * Most LLC accesses a resident point may miss in the 150k bus cycles
 * after warmup. A resident mix misses about 0.001 % of them; the same
 * profiles unconfined miss 75 %, and the memory-heavy pool 90 %.
 */
constexpr double kResidentMissFrac = 0.01;

/**
 * The correctness gate on mix 0 of every point: cycle loop vs event
 * engine bitwise, a clean TimingChecker audit of every channel, finite
 * positive weighted speedups, and coverage (the mechanism each point
 * exists to exercise really ran, or the layer it bypasses really idled).
 */
std::vector<Check>
runChecks(const Workload &w, const Scale &sc, int threads,
          const std::vector<PointResult> &results)
{
    const std::size_t n = w.points.size();
    std::vector<SystemResult> event(n);
    std::vector<Check> engine(n), timing(n), resident(n);
    WorkerPool pool(threads);
    pool.parallelFor(3 * n, [&](std::size_t i) {
        const std::size_t p = i % n;
        SystemConfig cfg = configOf(w, p, 0);
        if (i >= 2 * n) {
            if (!sc.coverage || !w.points[p].expectResident)
                return;
            TraceSpan span("check:resident:" + w.points[p].id, "bench");
            Check &c = resident[p];
            c.name = "coverage_resident:" + w.points[p].id;
            cfg.engine = SimEngine::EventLoop;
            // LLC counts are cumulative (resetStats resets the cores
            // only), so the warmup's share is subtracted.
            System sys(cfg);
            sys.run(sc.warmup);
            SystemResult a = sys.result();
            sys.run(sc.engineCheckCycles);
            SystemResult b = sys.result();
            std::uint64_t misses = b.llcMisses - a.llcMisses;
            std::uint64_t hits = b.llcHits - a.llcHits;
            double frac = static_cast<double>(misses) /
                          static_cast<double>(
                              std::max<std::uint64_t>(1, hits + misses));
            c.ok = frac < kResidentMissFrac;
            c.detail = strprintf("%.4f of LLC accesses missed after warmup",
                                 frac);
        } else if (i < n) {
            TraceSpan span("check:engine_diff:" + w.points[p].id, "bench");
            Check &c = engine[p];
            c.name = "engine_diff:" + w.points[p].id;
            cfg.engine = SimEngine::EventLoop;
            System ev(cfg);
            ev.run(sc.engineCheckCycles);
            event[p] = ev.result();
            cfg.engine = SimEngine::CycleLoop;
            System cy(cfg);
            cy.run(sc.engineCheckCycles);
            std::string diff = resultDiff(event[p], cy.result());
            c.ok = diff.empty();
            if (!c.ok)
                c.detail = "cycle loop and event engine differ in " + diff;
        } else {
            TraceSpan span("check:timing:" + w.points[p].id, "bench");
            Check &c = timing[p];
            c.name = "timing:" + w.points[p].id;
            cfg.engine = SimEngine::EventLoop;
            cfg.recordTraces = true;
            System sys(cfg);
            sys.run(sc.timingCheckCycles);
            TimingChecker checker(cfg.geom, cfg.tp);
            for (int ch = 0; ch < sys.channels() && c.ok; ++ch) {
                std::vector<Violation> v =
                    checker.check(sys.controller(ch).trace());
                if (!v.empty()) {
                    c.ok = false;
                    c.detail = strprintf("channel %d: %zu violations, first: "
                                         "%s",
                                         ch, v.size(),
                                         v.front().message.c_str());
                }
            }
        }
    });

    TraceSpan span("check:model_and_coverage", "bench");
    std::vector<Check> out;
    for (std::size_t p = 0; p < n; ++p) {
        out.push_back(engine[p]);
        out.push_back(timing[p]);
        if (!resident[p].name.empty())
            out.push_back(resident[p]);
        const PlanPoint &pp = w.points[p];
        Check ws{"ws_finite:" + pp.id, true, ""};
        double v = results[p].meanWs;
        if (!(std::isfinite(v) && v > 0.0)) {
            ws.ok = false;
            ws.detail = strprintf("weighted speedup %g", v);
        }
        out.push_back(ws);
        const SystemResult &r = event[p];
        if (!sc.coverage)
            continue;
        if (pp.expectHira) {
            out.push_back({"coverage_hira:" + pp.id,
                           r.controller.hiraOps > 0,
                           "no HiRA operation issued"});
        }
        if (pp.expectPreventive) {
            // Over the whole sweep: whether a tracker fires in the first
            // check interval of one mix depends on the mix.
            out.push_back({"coverage_preventive:" + pp.id,
                           results[p].refresh.preventiveGenerated > 0,
                           "no preventive refresh generated in the sweep"});
        }
        if (pp.extraActsOver >= 0) {
            const SystemResult &b =
                event[static_cast<std::size_t>(pp.extraActsOver)];
            out.push_back({"coverage_acts:" + pp.id,
                           r.controller.acts > b.controller.acts,
                           strprintf("%llu ACTs, reference %llu",
                                     static_cast<unsigned long long>(
                                         r.controller.acts),
                                     static_cast<unsigned long long>(
                                         b.controller.acts))});
        }
    }
    for (Check &c : out)
        if (c.ok)
            c.detail.clear();
    return out;
}

// ----- per-layer metrics (traced runs) ------------------------------------

/** Ordered name -> (value, unit) map of reported metrics. */
struct MetricTable
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        rows.push_back({name, {value, unit}});
    }
};

/**
 * Sum of counter @p rest over every instance of component @p prefix
 * (prefix followed by an instance number, e.g. "ctrl" + "0." + rest),
 * or of the exact key @p rest when @p prefix is empty.
 */
double
sumCounter(const std::vector<PointResult> &points, const std::string &prefix,
           const std::string &rest)
{
    double total = 0.0;
    for (const PointResult &p : points) {
        for (const auto &kv : p.metrics.values) {
            const std::string &k = kv.first;
            bool match = false;
            if (prefix.empty()) {
                match = k == rest;
            } else if (k.rfind(prefix, 0) == 0) {
                std::size_t i = prefix.size();
                std::size_t d = i;
                while (d < k.size() && k[d] >= '0' && k[d] <= '9')
                    ++d;
                match = d > i && d < k.size() && k[d] == '.' &&
                        k.compare(d + 1, std::string::npos, rest) == 0;
            }
            if (match)
                total += static_cast<double>(kv.second.count);
        }
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One span of the parsed trace (B/E pair or X event). */
struct TraceSlice
{
    int tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
    std::string name;
    std::string cat;
    double queueWaitUs = 0.0;
};

std::vector<TraceSlice>
readTrace(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    JsonValue doc = parseJson(ss.str(), path);
    const JsonValue *events = doc.get("traceEvents");
    std::vector<TraceSlice> out;
    if (events == nullptr)
        return out;
    std::map<int, std::vector<TraceSlice>> open;
    for (const JsonValue &e : events->array) {
        const JsonValue *ph = e.get("ph");
        if (ph == nullptr)
            continue;
        TraceSlice s;
        s.tid = static_cast<int>(e.get("tid")->number);
        s.tsUs = e.get("ts")->number;
        s.name = e.get("name")->string;
        s.cat = e.get("cat")->string;
        if (ph->string == "B") {
            open[s.tid].push_back(s);
        } else if (ph->string == "E") {
            std::vector<TraceSlice> &stack = open[s.tid];
            if (stack.empty())
                continue;
            TraceSlice b = stack.back();
            stack.pop_back();
            b.durUs = s.tsUs - b.tsUs;
            out.push_back(b);
        } else if (ph->string == "X") {
            s.durUs = e.get("dur")->number;
            if (const JsonValue *args = e.get("args"))
                if (const JsonValue *q = args->get("queue_wait_us"))
                    s.queueWaitUs = q->number;
            out.push_back(s);
        }
    }
    return out;
}

/**
 * sim.experiment and sim.system times from the program's own trace:
 * "sweep" X slices (one per work item, with queue_wait_us) and the
 * kernel's warmup/measure spans, which are attributed to the enclosing
 * work item so IPC-alone reference runs are kept apart. Only the slices
 * of round @p r count.
 */
void
traceLayerMetrics(const std::vector<TraceSlice> &slices, int threads,
                  const Round &r, double executedCycles, MetricTable &t)
{
    SampleSet items, waits;
    double busyS = 0.0;
    std::map<int, std::vector<const TraceSlice *>> byTid;
    for (const TraceSlice &s : slices) {
        if (s.cat != "sweep" || s.tsUs < r.traceStartUs ||
            s.tsUs + s.durUs > r.traceEndUs)
            continue;
        items.add(s.durUs * 1e-6);
        waits.add(s.queueWaitUs * 1e-6);
        busyS += s.durUs * 1e-6;
        byTid[s.tid].push_back(&s);
    }
    double warmupS = 0.0, measureS = 0.0;
    for (const TraceSlice &s : slices) {
        if (s.cat != "kernel")
            continue;
        const TraceSlice *owner = nullptr;
        for (const TraceSlice *x : byTid[s.tid]) {
            if (x->tsUs <= s.tsUs && s.tsUs + s.durUs <= x->tsUs + x->durUs)
                owner = x;
        }
        if (owner == nullptr || owner->name.rfind("alone:", 0) == 0)
            continue;
        (s.name == "warmup" ? warmupS : measureS) += s.durUs * 1e-6;
    }
    auto q = [](const SampleSet &s, double p) {
        return s.empty() ? 0.0 : s.quantile(p);
    };
    t.set("sim.experiment.items", static_cast<double>(items.size()),
          "count");
    t.set("sim.experiment.item_s.p50", q(items, 0.5), "s");
    t.set("sim.experiment.item_s.p75", q(items, 0.75), "s");
    t.set("sim.experiment.queue_wait_s.p50", q(waits, 0.5), "s");
    t.set("sim.experiment.queue_wait_s.p75", q(waits, 0.75), "s");
    t.set("sim.experiment.pool_busy_frac",
          ratio(busyS, threads * r.wallS), "frac");
    t.set("sim.system.warmup_s", warmupS, "s");
    t.set("sim.system.measure_s", measureS, "s");
    t.set("sim.system.ns_per_executed_cycle",
          ratio(measureS * 1e9, executedCycles), "ns/cycle");
}

/** Exact work counts of the measured intervals, summed over the plan. */
void
countMetrics(const std::vector<PointResult> &pts, MetricTable &t)
{
    auto c = [&pts](const std::string &prefix, const std::string &rest) {
        return sumCounter(pts, prefix, rest);
    };
    t.set("sim.system.executed_frac",
          ratio(c("", "kernel.executed_cycles"),
                c("", "kernel.simulated_cycles")),
          "frac");
    t.set("sim.system.ctrl_ticks", c("", "kernel.ctrl_ticks"), "count");
    t.set("sim.system.heap_rekeys", c("", "kernel.heap_rekeys"), "count");
    t.set("sim.system.heap_lowers", c("", "kernel.heap_lowers"), "count");
    for (const char *m : {"retired", "ff_ticks", "ff_calls", "stall_cycles"})
        t.set(std::string("sim.core.") + m, c("core", m), "count");
    for (const char *m : {"hits", "misses", "blocked", "mshr_merges",
                          "writebacks"})
        t.set(std::string("sim.cache.") + m, c("", std::string("llc.") + m),
              "count");
    for (const char *m : {"wake_recomputes", "row_hits", "row_misses",
                          "row_conflicts", "cmd.act", "cmd.pre", "cmd.ref",
                          "cmd.hira"})
        t.set(std::string("mem.controller.") + m, c("ctrl", m), "count");
    double rowRefreshes = c("ctrl", "scheme.row_refreshes");
    double generated = c("ctrl", "scheme.preventive_generated");
    double dropped = c("ctrl", "scheme.preventive_dropped");
    for (const char *m : {"ref_commands", "row_refreshes", "access_paired",
                          "refresh_paired", "deadline_misses",
                          "preventive_generated", "preventive_dropped"})
        t.set(std::string("mem.refresh.") + m,
              c("ctrl", std::string("scheme.") + m), "count");
    t.set("mem.refresh.preventive_drop_frac", ratio(dropped, generated),
          "frac");
    t.set("core.hira_mc.paired_frac",
          ratio(c("ctrl", "scheme.access_paired") +
                    c("ctrl", "scheme.refresh_paired"),
                rowRefreshes),
          "frac");
    t.set("mem.rfm.triggers", c("ctrl", "scheme.rfm_triggers"), "count");
    t.set("mem.prac.triggers", c("ctrl", "scheme.prac_triggers"), "count");
    t.set("mem.graphene_trr.selections", c("ctrl", "scheme.trr_selections"),
          "count");
}

// ----- isolation probes (traced runs) -------------------------------------

/** Mean cost of one steady_clock::now() pair with nothing between. */
double
clockOverheadNs()
{
    using Clock = std::chrono::steady_clock;
    const int n = 100000;
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        auto a = Clock::now();
        auto b = Clock::now();
        total += std::chrono::duration<double, std::nano>(b - a).count();
    }
    return total / n;
}

struct MemAccess
{
    bool isWrite;
    Addr addr;
    int core;
};

/**
 * Drain @p total next() calls round-robin over the sources built from
 * @p specs (core i's slice and seed, as System builds them); returns ns
 * per call and appends the memory instructions to @p accesses.
 */
double
drainSources(const WorkloadMix &specs, const GeomSpec &geom,
             std::uint64_t seed, std::uint64_t total,
             std::vector<MemAccess> *accesses)
{
    Addr slice = AddressMapper(geom.toGeometry()).addressSpaceBytes() /
                 specs.size();
    std::vector<std::unique_ptr<TraceSource>> src;
    for (std::size_t i = 0; i < specs.size(); ++i)
        src.push_back(WorkloadRegistry::global().makeSource(
            specs[i], hashCombine(seed, 0xc04e + i), slice * i, slice));
    std::vector<TraceInst> insts(total);
    double t0 = wallNow();
    for (std::uint64_t k = 0; k < total; ++k)
        insts[k] = src[k % src.size()]->next();
    double ns = (wallNow() - t0) * 1e9 / static_cast<double>(total);
    if (accesses != nullptr) {
        for (std::uint64_t k = 0; k < total; ++k)
            if (insts[k].isMem)
                accesses->push_back({insts[k].isWrite, insts[k].addr,
                                     static_cast<int>(k % src.size())});
    }
    return ns;
}

/**
 * Replay @p accesses through a standalone LLC whose memory side
 * returns each fill after a fixed number of later accesses; returns ns
 * per access and records the miss/writeback stream into @p stream.
 */
double
llcProbe(const std::vector<MemAccess> &accesses, std::vector<Request> &stream)
{
    std::deque<std::uint64_t> inflight;
    Llc llc(
        LlcConfig{},
        [&](const Request &r) {
            stream.push_back(r);
            if (r.type == MemType::Read)
                inflight.push_back(r.tag);
            return true;
        },
        [](int, std::uint64_t, Cycle) {});
    const std::size_t kInflight = 16;
    double t0 = wallNow();
    for (std::size_t k = 0; k < accesses.size(); ++k) {
        const MemAccess &a = accesses[k];
        Cycle now = k / 4;
        while (llc.access(a.isWrite, a.addr, a.core, k, now) ==
               LlcResult::Blocked) {
            llc.onMemCompletion(inflight.front(), now);
            inflight.pop_front();
        }
        while (inflight.size() > kInflight) {
            llc.onMemCompletion(inflight.front(), now);
            inflight.pop_front();
        }
    }
    return (wallNow() - t0) * 1e9 /
           static_cast<double>(std::max<std::size_t>(1, accesses.size()));
}

struct CtrlProbe
{
    double nsPerTick = 0.0;
    double nsPerNextEvent = 0.0;
};

/**
 * Replay @p stream (decoded for the point's geometry, channel 0 only)
 * into a standalone MemoryController holding the point's scheme, at
 * @p rate requests per cycle, for @p ticks dense ticks; every tick and
 * every nextEvent() recompute is timed.
 */
CtrlProbe
controllerProbe(const Workload &w, std::size_t point,
                const std::vector<Request> &stream, double rate, Cycle ticks,
                double clockNs)
{
    using Clock = std::chrono::steady_clock;
    SystemConfig cfg = configOf(w, point, 0);
    AddressMapper mapper(cfg.geom);
    std::vector<Request> reqs;
    for (Request r : stream) {
        r.addr %= mapper.addressSpaceBytes();
        r.da = mapper.decode(r.addr);
        if (r.da.channel == 0)
            reqs.push_back(r);
    }
    ControllerConfig cc;
    cc.geom = cfg.geom;
    cc.tp = cfg.tp;
    cc.para = cfg.para;
    cc.para.seed = hashCombine(cfg.seed, 0xca0);
    cc.paraImmediate = cfg.scheme != SchemeKind::HiraMc;
    MemoryController ctrl(0, cc, schemeEntryByKind(cfg.scheme).make(cfg));

    double tickNs = 0.0, nextNs = 0.0, credit = 0.0;
    std::size_t cursor = 0;
    for (Cycle now = 1; now <= ticks; ++now) {
        credit = std::min(credit + rate, 64.0);
        while (!reqs.empty() && credit >= 1.0) {
            Request r = reqs[cursor % reqs.size()];
            r.arrival = now;
            if (!ctrl.enqueue(r))
                break;
            ++cursor;
            credit -= 1.0;
        }
        auto a = Clock::now();
        ctrl.tick(now);
        auto b = Clock::now();
        ctrl.nextEvent();
        auto c = Clock::now();
        tickNs += std::chrono::duration<double, std::nano>(b - a).count();
        nextNs += std::chrono::duration<double, std::nano>(c - b).count();
        ctrl.completions().clear();
    }
    CtrlProbe p;
    p.nsPerTick = std::max(0.0, tickNs / ticks - clockNs);
    p.nsPerNextEvent = std::max(0.0, nextNs / ticks - clockNs);
    return p;
}

/**
 * The three isolation probes: workload sources (both kinds), the LLC,
 * and one controller per plan point. Per-scheme controller costs go to
 * @p detail; the plan means go to @p t.
 */
void
runProbes(const Workload &w, const Scale &sc, const Options &o,
          const std::vector<PointResult> &pts, MetricTable &t,
          MetricTable &detail)
{
    const GeomSpec &geom = w.points.front().sp.geom;
    std::vector<MemAccess> synthAcc, fileAcc;
    double synthNs, fileNs;
    {
        TraceSpan span("probe:workload", "bench");
        synthNs = drainSources(w.probeProfiles, geom, o.seed, sc.probeInsts,
                               &synthAcc);
        WorkloadMix files = w.probeFiles;
        if (files.empty()) {
            // Record mix 0's synthetic streams so both source kinds are
            // probed on every workload.
            Addr slice =
                AddressMapper(geom.toGeometry()).addressSpaceBytes() / 8;
            for (std::size_t i = 0; i < w.probeProfiles.size(); ++i) {
                std::unique_ptr<TraceSource> src =
                    WorkloadRegistry::global().makeSource(
                        w.probeProfiles[i], hashCombine(o.seed, 0xc04e + i),
                        slice * i, slice);
                std::string path = strprintf("%s/probe_core%zu.trace",
                                             o.workdir.c_str(), i);
                dumpTrace(*src, path, TraceFormat::Text,
                          sc.probeInsts / w.probeProfiles.size() + 1);
                files.push_back("file:" + path);
            }
        }
        fileNs = drainSources(files, geom, o.seed, sc.probeInsts, &fileAcc);
    }
    t.set("workload.probe_ns_per_inst.synthetic", synthNs, "ns/inst");
    t.set("workload.probe_ns_per_inst.file", fileNs, "ns/inst");

    std::vector<Request> stream;
    {
        TraceSpan span("probe:llc", "bench");
        const std::vector<MemAccess> &acc =
            w.probeFiles.empty() ? synthAcc : fileAcc;
        t.set("sim.cache.probe_ns_per_access", llcProbe(acc, stream),
              "ns/access");
    }

    TraceSpan span("probe:controller", "bench");
    double clockNs = clockOverheadNs();
    double tickSum = 0.0, nextSum = 0.0;
    for (std::size_t p = 0; p < w.points.size(); ++p) {
        const MetricsSnapshot &m = pts[p].metrics;
        auto get = [&m](const std::string &k) {
            auto it = m.values.find(k);
            return it == m.values.end()
                       ? 0.0
                       : static_cast<double>(it->second.count);
        };
        double rate = ratio(get("ctrl0.reads_served") +
                                get("ctrl0.writes_served"),
                            get("kernel.simulated_cycles"));
        CtrlProbe cp =
            controllerProbe(w, p, stream, rate, sc.probeTicks, clockNs);
        tickSum += cp.nsPerTick;
        nextSum += cp.nsPerNextEvent;
        detail.set("mem.controller.probe_ns_per_tick." + w.points[p].id,
                   cp.nsPerTick, "ns/tick");
        detail.set("mem.controller.probe_ns_per_next_event." +
                       w.points[p].id,
                   cp.nsPerNextEvent, "ns/call");
    }
    double n = static_cast<double>(w.points.size());
    t.set("mem.controller.probe_ns_per_tick", tickSum / n, "ns/tick");
    t.set("mem.controller.probe_ns_per_next_event", nextSum / n, "ns/call");
}

// ----- model outputs and paper references ---------------------------------

struct PaperRef
{
    std::string name;
    double measured;
    double paper;
    const char *unit;
};

std::vector<PaperRef>
paperRefs(const Workload &w, const std::vector<PointResult> &pts)
{
    auto ws = [&](const std::string &id) {
        for (std::size_t p = 0; p < w.points.size(); ++p)
            if (w.points[p].id == id)
                return pts[p].meanWs;
        panic("no plan point %s", id.c_str());
    };
    std::vector<PaperRef> refs;
    if (w.name == "periodic_hira") {
        refs.push_back({"baseline_overhead_128gb",
                        100.0 * (1.0 - ws("baseline_128gb") /
                                           ws("norefresh_128gb")),
                        26.3, "%"});
        refs.push_back({"hira2_vs_baseline_128gb",
                        100.0 * (ws("hira2_128gb") / ws("baseline_128gb") -
                                 1.0),
                        12.6, "%"});
    } else if (w.name == "rowhammer_preventive") {
        refs.push_back({"para_overhead_nrh64",
                        100.0 * (1.0 - ws("para_nrh64") / ws("baseline")),
                        96.0, "%"});
        refs.push_back({"hira4_vs_para_nrh64",
                        ws("para_hira4_nrh64") / ws("para_nrh64"), 3.73,
                        "x"});
    }
    return refs;
}

// ----- output ---------------------------------------------------------------

void
writeTable(std::ostream &os, const MetricTable &t)
{
    os << "{";
    for (std::size_t i = 0; i < t.rows.size(); ++i) {
        const auto &r = t.rows[i];
        os << (i ? ", " : "") << "\"" << jsonEscape(r.first)
           << "\": {\"value\": " << jsonDouble(r.second.first)
           << ", \"unit\": \"" << jsonEscape(r.second.second) << "\"}";
    }
    os << "}";
}

void
printTable(const char *title, const MetricTable &t)
{
    std::printf("%s\n", title);
    for (const auto &r : t.rows)
        std::printf("  %-48s %16.6g %s\n", r.first.c_str(), r.second.first,
                    r.second.second.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    pinEnvironment(o);
    registerResidentScheme();
    std::filesystem::create_directories(o.workdir);
    const Scale &sc = o.smoke ? kSmokeScale : kDefaultScale;
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

    Workload w = buildWorkload(o.workload, o.seed, sc, o.workdir, true);
    std::printf("hira_perf %s seed=%llu threads=%d nproc=%ld traced=%d "
                "scale=%s rev=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                o.threads, nproc, o.traced ? 1 : 0,
                o.smoke ? "smoke" : "default", HIRA_GIT_REV);
    std::printf("plan: %zu points x %zu mixes, %llu warmup + %llu measured "
                "bus cycles per run\n",
                w.points.size(), w.mixes.size(),
                static_cast<unsigned long long>(sc.warmup),
                static_cast<unsigned long long>(sc.cycles));
    if (w.inputGenS > 0.0)
        std::printf("input_gen_s %.6f (trace synthesis, not measured)\n",
                    w.inputGenS);

    // Memory first, in a fresh heap: later set-up reps free Systems whose
    // pages the allocator would hand back, hiding the growth.
    const double memMb = memPerSystemMb(w);

    // The host's speed is sampled before and after every timed phase,
    // and the run's times are scaled by the median sample.
    std::vector<double> speed{hostSpeed(o.threads)};
    std::vector<double> setups;
    {
        TraceSpan span("setup", "bench");
        for (int i = 0; i < sc.setupReps; ++i)
            setups.push_back(setupOnce(o, sc));
    }
    speed.push_back(hostSpeed(o.threads));

    // Measurement: a fixed number of whole sweeps of the plan, each
    // through a fresh runner, so that every run of every commit does the
    // same work. Traced runs do as many, so that the two runs'
    // sweep_wall_s medians give the tracing overhead.
    std::vector<Round> rounds;
    for (int i = 0; i < sc.rounds; ++i) {
        rounds.push_back(runRound(w, sc, o.threads));
        speed.push_back(hostSpeed(o.threads));
    }
    const std::vector<PointResult> &pts = rounds.front().points;

    std::vector<double> rates, walls;
    for (const Round &r : rounds) {
        rates.push_back(static_cast<double>(r.cycles) / r.cpuS / 1e6);
        walls.push_back(r.wallS);
    }
    const double hostSpeedMedian = median(speed);
    MetricTable e2e, raw;
    e2e.set("sim_cycles_per_cpu_s", median(rates) / hostSpeedMedian,
            "Mcycles/cpu_s");
    e2e.set("sweep_wall_s", median(walls) * hostSpeedMedian, "s");
    e2e.set("setup_s", median(setups) * hostSpeedMedian, "s");
    e2e.set("mem_per_system_mb", memMb, "MB");
    raw.set("sim_cycles_per_cpu_s", median(rates), "Mcycles/cpu_s");
    raw.set("sweep_wall_s", median(walls), "s");
    raw.set("setup_s", median(setups), "s");
    raw.set("host_speed", hostSpeedMedian, "ratio");

    std::vector<Check> checks = runChecks(w, sc, o.threads, pts);
    for (std::size_t i = 1; i < rounds.size(); ++i) {
        bool same = true;
        for (std::size_t p = 0; p < pts.size(); ++p)
            same = same && sameBits(pts[p].meanWs, rounds[i].points[p].meanWs);
        checks.push_back({strprintf("rounds_identical:%zu", i), same,
                          same ? "" : "weighted speedups differ"});
    }

    std::uint64_t simulations = 0;
    for (const Round &r : rounds)
        simulations += w.points.size() * w.mixes.size() + r.aloneRuns;
    std::uint64_t failed = 0;
    for (const Check &c : checks)
        failed += c.ok ? 0 : 1;
    const std::uint64_t attempted = simulations + checks.size();
    const double failureRate =
        static_cast<double>(failed) / static_cast<double>(attempted);

    MetricTable model;
    for (std::size_t p = 0; p < w.points.size(); ++p) {
        model.set("model.ws." + w.points[p].id, pts[p].meanWs, "ws");
        if (w.points[p].ref >= 0) {
            model.set("model.ws_norm." + w.points[p].id,
                      pts[p].meanWs /
                          pts[static_cast<std::size_t>(w.points[p].ref)]
                              .meanWs,
                      "ratio");
        }
    }
    std::vector<PaperRef> refs = paperRefs(w, pts);

    MetricTable layers, detail;
    if (o.traced) {
        countMetrics(pts, layers);
        runProbes(w, sc, o, pts, layers, detail);
        TraceEventLog::global().flush();
        traceLayerMetrics(readTrace(o.workdir + "/trace.json"), o.threads,
                          rounds.front(),
                          sumCounter(pts, "", "kernel.executed_cycles"),
                          layers);
        layers.set("sim.experiment.alone_runs",
                   static_cast<double>(rounds.front().aloneRuns), "count");
    }

    // Human-readable summary.
    std::printf("rounds: %zu (sweep wall s:", rounds.size());
    for (double x : walls)
        std::printf(" %.3f", x);
    std::printf("; host speed:");
    for (double x : speed)
        std::printf(" %.3f", x);
    std::printf(")\n");
    printTable("end-to-end (at the reference host speed):", e2e);
    printTable("as measured (not gated):", raw);
    std::printf("  %-48s %16.6g fraction (%llu of %llu operations)\n",
                "failure_rate", failureRate,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const Check &c : checks)
        if (!c.ok)
            std::printf("  FAILED %s: %s\n", c.name.c_str(),
                        c.detail.c_str());
    printTable("model outputs (simulated; identical across runs of a seed):",
               model);
    if (!refs.empty()) {
        std::printf("paper references (model unvalidated at this scale; "
                    "not gated):\n");
        for (const PaperRef &r : refs)
            std::printf("  %-30s measured %8.3f%s  paper %8.3f%s  error "
                        "%+8.3f%s (%+.1f %% of paper)\n",
                        r.name.c_str(), r.measured, r.unit, r.paper, r.unit,
                        r.measured - r.paper, r.unit,
                        100.0 * (r.measured - r.paper) / r.paper);
    }
    if (o.traced) {
        printTable("per-layer:", layers);
        printTable("per-scheme controller probe:", detail);
    }

    if (!o.out.empty()) {
        std::ofstream f(o.out);
        f << "{\"workload\": \"" << w.name << "\", \"seed\": " << o.seed
          << ", \"threads\": " << o.threads << ", \"nproc\": " << nproc
          << ", \"traced\": " << (o.traced ? "true" : "false")
          << ", \"scale\": \"" << (o.smoke ? "smoke" : "default")
          << "\", \"git_rev\": \"" << HIRA_GIT_REV << "\""
          << ", \"config\": {\"engine\": \""
          << simEngineName(defaultSimEngine()) << "\", \"metrics\": \""
          << metricsLevelName(defaultMetricsLevel())
          << "\", \"result_cache\": \"off\", \"warmup_cycles\": "
          << sc.warmup << ", \"measured_cycles\": " << sc.cycles
          << ", \"points\": " << w.points.size()
          << ", \"mixes\": " << w.mixes.size() << "}"
          << ", \"input_gen_s\": " << jsonDouble(w.inputGenS)
          << ", \"rounds\": " << rounds.size()
          << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"failure_rate\": " << jsonDouble(failureRate)
          << ", \"failures\": [";
        bool first = true;
        for (const Check &c : checks) {
            if (c.ok)
                continue;
            f << (first ? "" : ", ") << "\""
              << jsonEscape(c.name + ": " + c.detail) << "\"";
            first = false;
        }
        f << "], \"end_to_end\": ";
        writeTable(f, e2e);
        f << ", \"end_to_end_raw\": ";
        writeTable(f, raw);
        f << ", \"model\": ";
        writeTable(f, model);
        f << ", \"paper\": [";
        for (std::size_t i = 0; i < refs.size(); ++i) {
            f << (i ? ", " : "") << "{\"name\": \"" << refs[i].name
              << "\", \"measured\": " << jsonDouble(refs[i].measured)
              << ", \"paper\": " << jsonDouble(refs[i].paper)
              << ", \"unit\": \"" << refs[i].unit << "\"}";
        }
        f << "], \"per_layer\": ";
        writeTable(f, layers);
        f << ", \"per_layer_detail\": ";
        writeTable(f, detail);
        f << "}\n";
    }
    return failed == 0 ? 0 : 1;
}
