/**
 * @file
 * Trace record -> replay walkthrough (src/workload/).
 *
 * Runs a small multiprogrammed simulation twice per trace format:
 * first live from the synthetic generators while recording each core's
 * instruction stream to disk, then again with every core replaying its
 * recorded file through "file:" workload specs. The two runs must
 * produce bitwise-identical per-core IPC — the replay path is exact,
 * not approximate — so this doubles as a CI smoke check of trace I/O.
 *
 * Build and run: ./build/examples/example_trace_replay
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/knobs.hh"
#include "sim/experiment.hh"

using namespace hira;

namespace {

std::string
makeTempDir()
{
    const char *base = std::getenv("TMPDIR");
    std::string templ = std::string(base != nullptr ? base : "/tmp") +
                        "/hira_trace_replay.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
        std::perror("mkdtemp");
        std::exit(1);
    }
    return std::string(buf.data());
}

} // namespace

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    Cycle warmup = static_cast<Cycle>(knobs.warmup);
    Cycle measure = static_cast<Cycle>(knobs.cycles);

    const WorkloadMix mix = {"mcf-like", "gcc-like", "libquantum-like",
                             "h264-like"};
    GeomSpec geom;
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;

    std::string dir = makeTempDir();
    std::printf("recording %zu-core mix to %s\n", mix.size(), dir.c_str());

    bool all_identical = true;
    std::vector<std::string> cleanup;
    for (TraceFormat fmt : {TraceFormat::Text, TraceFormat::Binary}) {
        const char *fmt_name = fmt == TraceFormat::Text ? "text" : "binary";
        const char *ext = fmt == TraceFormat::Text ? "trace" : "bin";

        // Live run, recording every core's stream.
        SystemConfig cfg = makeSystemConfig(geom, scheme, mix, /*seed=*/7);
        cfg.traceDumpDir = dir;
        cfg.traceDumpFormat = fmt;
        RunResult live = runOne(cfg, warmup, measure);

        // Replay run: same system, workloads read back from disk.
        WorkloadMix replay_mix;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            std::string path =
                dir + "/core" + std::to_string(i) + "." + ext;
            replay_mix.push_back("file:" + path);
            cleanup.push_back(path);
        }
        SystemConfig rcfg =
            makeSystemConfig(geom, scheme, replay_mix, /*seed=*/7);
        RunResult replay = runOne(rcfg, warmup, measure);

        std::printf("\n%s format: per-core IPC, live generator vs file "
                    "replay\n", fmt_name);
        std::printf("%-8s%14s%14s%12s\n", "core", "live", "replay",
                    "identical");
        bool identical = true;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            bool same = live.sys.ipc[i] == replay.sys.ipc[i];
            identical = identical && same;
            std::printf("%-8zu%14.6f%14.6f%12s\n", i, live.sys.ipc[i],
                        replay.sys.ipc[i], same ? "yes" : "NO");
        }
        std::printf("memory traffic: live %llu reads / %llu writes, "
                    "replay %llu / %llu\n",
                    static_cast<unsigned long long>(live.sys.memReads),
                    static_cast<unsigned long long>(live.sys.memWrites),
                    static_cast<unsigned long long>(replay.sys.memReads),
                    static_cast<unsigned long long>(replay.sys.memWrites));
        identical = identical && live.sys.memReads == replay.sys.memReads &&
                    live.sys.memWrites == replay.sys.memWrites;
        std::printf("%s replay is %s\n", fmt_name,
                    identical ? "bitwise-identical" : "DIVERGENT");
        all_identical = all_identical && identical;
    }

    for (const std::string &path : cleanup)
        ::unlink(path.c_str());
    ::rmdir(dir.c_str());

    if (!all_identical) {
        std::printf("\nFAIL: replay diverged from the live generators\n");
        return 1;
    }
    std::printf("\nboth formats replay bitwise-identically\n");
    return 0;
}
