/**
 * @file
 * hira_sweep: run one serialized sweep plan (src/sim/sweep_plan.hh
 * JSON) and print its results as one JSON object.
 *
 *     hira_sweep --plan <file> [--slice i/n]
 *
 * Points run one runPoints() call at a time, so with HIRA_RESULT_CACHE
 * set every completed point is committed to the cache directory before
 * the next starts: the cache is the checkpoint, and a run killed
 * mid-plan resumes from the completed points when rerun. --slice i/n
 * keeps only the points whose plan index is i modulo n, so sharding a
 * plan over processes or hosts is n slice runs over one shared cache
 * directory, followed by a full run that is served from the cache.
 *
 * Output: {"status", "points_total", "points_cached",
 * "points_simulated", "results": [...]}, one result per slice point in
 * plan order. Results hold model outputs only (no wall clock, no
 * cache-hit flag), so a warm rerun prints them byte-for-byte like the
 * cold run that filled the cache. Simulation behavior (engine, metrics,
 * corpus, threads) comes from the environment, the same knobs that feed
 * the cache keys.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/knobs.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/sweep_plan.hh"

using namespace hira;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --plan <file> [--slice i/n]\n"
        "\n"
        "Run a JSON sweep plan (see src/sim/sweep_plan.hh) and print its\n"
        "results. --slice i/n runs only the points whose index is i mod "
        "n.\n"
        "HIRA_RESULT_CACHE=<dir> serves completed points from <dir> and\n"
        "commits each new point there as soon as it finishes.\n",
        argv0);
}

/** Parse "i/n" with 0 <= i < n; anything else is fatal. */
void
parseSlice(const std::string &text, std::size_t &index, std::size_t &count)
{
    unsigned long i = 0, n = 0;
    char tail = 0;
    if (std::sscanf(text.c_str(), "%lu/%lu%c", &i, &n, &tail) != 2 ||
        n == 0 || i >= n || text.find('-') != std::string::npos) {
        fatal("--slice '%s': expected i/n with 0 <= i < n", text.c_str());
    }
    index = i;
    count = n;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string planPath;
    std::size_t sliceIndex = 0, sliceCount = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", name);
            return argv[++i];
        };
        if (arg == "--plan") {
            planPath = value("--plan");
        } else if (arg == "--slice") {
            parseSlice(value("--slice"), sliceIndex, sliceCount);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if (planPath.empty()) {
        usage(argv[0]);
        fatal("--plan <file> is required");
    }

    SweepPlan plan = sweepPlanFromJson(readFile(planPath), planPath);
    BenchKnobs knobs = BenchKnobs::fromEnv();
    if (plan.warmup >= 0)
        knobs.warmup = plan.warmup;
    if (plan.cycles >= 0)
        knobs.cycles = plan.cycles;

    SweepRunner runner(knobs, plan.mixes);
    if (runner.resultCache() == nullptr)
        inform("hira_sweep: HIRA_RESULT_CACHE is unset; completed points "
               "are not checkpointed");

    std::vector<SweepPoint> points;
    for (std::size_t i = sliceIndex; i < plan.points.size(); i += sliceCount)
        points.push_back(plan.points[i]);

    // One point per call: each result reaches the cache before the next
    // point starts. Alone-IPC runs are shared across the calls through
    // the runner's in-memory cache.
    std::vector<PointResult> results;
    for (const SweepPoint &p : points)
        results.push_back(runner.runPoints({p}).front());

    std::string out = strprintf(
        "{\n  \"status\": \"ok\",\n  \"points_total\": %zu,\n"
        "  \"points_cached\": %llu,\n  \"points_simulated\": %llu,\n"
        "  \"results\": [",
        points.size(),
        static_cast<unsigned long long>(runner.pointsFromCache()),
        static_cast<unsigned long long>(runner.pointsSimulated()));
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        const PointResult &r = results[i];
        out += i == 0 ? "\n" : ",\n";
        out += strprintf(
            "    {\"label\": \"%s\", \"geom\": \"%s\", "
            "\"mean_ws\": %s, \"sim_cycles\": %llu, \"refresh\": %s}",
            jsonEscape(p.scheme.label()).c_str(),
            jsonEscape(p.geom.key()).c_str(), jsonDouble(r.meanWs).c_str(),
            static_cast<unsigned long long>(r.simCycles),
            refreshStatsJson(r.refresh).c_str());
    }
    out += "\n  ]\n}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}
