/**
 * @file
 * hira_tracegen: build a deterministic CPU2017-style trace corpus
 * ready for HIRA_CORPUS=<dir>.
 *
 * Two sources of traces, freely combined:
 *
 *  - synthesis: each requested synthetic-pool profile is recorded
 *    through the TraceRecorder path (text or binary) with a seed
 *    derived from the profile name, so the corpus is identical across
 *    machines and runs;
 *  - preprocessing: --import name=path replays an existing trace file
 *    and re-records it into the corpus (normalizing the format and
 *    instruction count).
 *
 * Every trace is binned by memory intensity (H/M/L, accesses per
 * kilo-instruction). Sweeps measure each trace's alone IPC per
 * geometry, like any other workload's; HIRA_RESULT_CACHE keeps those
 * runs across processes.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/corpus.hh"
#include "workload/file_trace.hh"

using namespace hira;

namespace {

/** Recording slice: region-relative addresses stay below 1 GB. */
constexpr Addr kRecordSlice = 1ull << 30;

struct Options
{
    std::string out;
    std::vector<std::string> benchmarks;
    std::vector<std::pair<std::string, std::string>> imports;
    std::uint64_t instructions = 200000;
    std::string format = "alternate"; //!< text | binary | alternate
    std::uint64_t seed = 0x7ace;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --out <dir> [options]\n"
        "\n"
        "Synthesize/preprocess a deterministic trace corpus for "
        "HIRA_CORPUS.\n"
        "\n"
        "  --out <dir>            corpus directory (created if missing)\n"
        "  --benchmarks <a,b,..>  synthetic pool profiles to record\n"
        "                         (default: the whole pool; 'none' for "
        "imports only)\n"
        "  --import <name>=<file> re-record an existing trace file into\n"
        "                         the corpus (repeatable)\n"
        "  --instructions <n>     instructions per trace (default "
        "200000)\n"
        "  --format <f>           text | binary | alternate (default)\n"
        "  --seed <s>             synthesis seed (default 0x7ace)\n",
        argv0);
}

std::uint64_t
parseU64(const std::string &value, const char *flag)
{
    // strtoull silently wraps negatives ('-1' -> ULLONG_MAX), which
    // would turn a typo into an effectively unbounded run.
    if (value.find('-') != std::string::npos)
        fatal("%s must be non-negative, got '%s'", flag, value.c_str());
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        fatal("bad %s value '%s'", flag, value.c_str());
    return v;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool benchmarksSet = false;
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            fatal("%s needs a value (see --help)", flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else if (arg == "--out") {
            opt.out = value(i, "--out");
        } else if (arg == "--benchmarks") {
            opt.benchmarks = splitCommas(value(i, "--benchmarks"));
            benchmarksSet = true;
        } else if (arg == "--import") {
            std::string spec = value(i, "--import");
            std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size())
                fatal("--import expects <name>=<file>, got '%s'",
                      spec.c_str());
            opt.imports.emplace_back(spec.substr(0, eq),
                                     spec.substr(eq + 1));
        } else if (arg == "--instructions") {
            opt.instructions = parseU64(value(i, "--instructions"),
                                        "--instructions");
            if (opt.instructions == 0)
                fatal("--instructions must be positive");
        } else if (arg == "--format") {
            opt.format = value(i, "--format");
            if (opt.format != "text" && opt.format != "binary" &&
                opt.format != "alternate") {
                fatal("--format must be text, binary, or alternate");
            }
        } else if (arg == "--seed") {
            opt.seed = parseU64(value(i, "--seed"), "--seed");
        } else {
            fatal("unknown option '%s' (see --help)", arg.c_str());
        }
    }
    if (opt.out.empty())
        fatal("--out <dir> is required (see --help)");
    if (!benchmarksSet) {
        for (const BenchmarkProfile &p : benchmarkPool())
            opt.benchmarks.push_back(p.name);
    } else if (opt.benchmarks.size() == 1 && opt.benchmarks[0] == "none") {
        opt.benchmarks.clear();
    }
    if (opt.benchmarks.empty() && opt.imports.empty())
        fatal("nothing to do: no --benchmarks and no --import");
    return opt;
}

/**
 * Pull @p count instructions from @p src through a TraceRecorder into
 * @p path, returning the memory-access count (for APKI binning).
 */
std::uint64_t
recordTrace(TraceSource &src, const std::string &path, TraceFormat format,
            std::uint64_t count)
{
    TraceRecorder rec(src, path, format);
    std::uint64_t mem = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (rec.next().isMem)
            ++mem;
    }
    rec.flush();
    return mem;
}

TraceFormat
formatFor(const Options &opt, std::size_t index)
{
    if (opt.format == "text")
        return TraceFormat::Text;
    if (opt.format == "binary")
        return TraceFormat::Binary;
    // Alternate so both on-disk formats are exercised by default.
    return index % 2 == 0 ? TraceFormat::Text : TraceFormat::Binary;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (::mkdir(opt.out.c_str(), 0777) != 0 && errno != EEXIST) {
        fatal("cannot create output directory '%s': %s (mkdir is one "
              "level deep; create missing parents first)",
              opt.out.c_str(), std::strerror(errno));
    }

    // Record every trace and bin it by intensity.
    std::vector<CorpusEntry> entries;
    auto record = [&](const std::string &name, TraceSource &src) {
        TraceFormat format = formatFor(opt, entries.size());
        CorpusEntry e;
        e.name = name;
        e.file = name + (format == TraceFormat::Binary ? ".bin" : ".trace");
        std::uint64_t mem = recordTrace(src, opt.out + "/" + e.file, format,
                                        opt.instructions);
        e.mpki = classifyApki(1000.0 * static_cast<double>(mem) /
                              static_cast<double>(opt.instructions));
        entries.push_back(std::move(e));
    };
    for (const std::string &name : opt.benchmarks) {
        TraceGen gen(benchmarkByName(name),
                     hashCombine(opt.seed, hashString(name)), 0,
                     kRecordSlice);
        record(name, gen);
    }
    for (const auto &imp : opt.imports) {
        // Loop the input so short traces still fill the requested
        // instruction count (degenerate inputs die with a diagnostic).
        FileTraceSource src(imp.second, 0, kRecordSlice);
        record(imp.first, src);
    }

    // Validate the set (duplicate names, resolvable files) before
    // writing its manifest.
    Corpus corpus(opt.out, std::move(entries));
    writeManifest(opt.out, corpus.entries());

    std::printf("wrote %zu traces of %llu instructions + manifest.tsv to "
                "%s\n",
                corpus.size(),
                static_cast<unsigned long long>(opt.instructions),
                opt.out.c_str());
    for (const CorpusEntry &e : corpus.entries()) {
        std::printf("  %-20s %-26s class %c\n", e.name.c_str(),
                    e.file.c_str(), mpkiClassLetter(e.mpki));
    }
    std::printf("use it with: HIRA_CORPUS=%s ./bench/<driver>\n",
                opt.out.c_str());
    return 0;
}
