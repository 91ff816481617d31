/**
 * @file
 * Trace-corpus manifests: a directory of trace files plus each trace's
 * memory-intensity class, addressed by "corpus:<name>" workload specs.
 *
 * A corpus directory holds the trace files and a `manifest.tsv`.
 * Comment lines start with '#'; each record line has three
 * whitespace-separated columns
 *
 *     <name> <file> <class>
 *
 * where <class> is `H`, `M`, or `L` (memory-intensity bin, see
 * classifyApki). The trace format is sniffed from the file itself.
 * A six-column manifest of the retired format (with format,
 * instruction-count and alone-IPC columns) is rejected.
 *
 * `<file>` paths are resolved relative to the manifest's directory;
 * absolute paths pass through. `tools/hira_tracegen` writes the
 * manifest; see BUILDING.md for the workflow.
 *
 * The *active* corpus (Corpus::active) backs `corpus:` spec resolution.
 * It loads lazily from the HIRA_CORPUS environment variable, or is
 * installed explicitly (tools/tests). A corpus trace's alone IPC is
 * measured per geometry like any other workload's (SweepRunner::aloneIpc).
 */

#ifndef HIRA_WORKLOAD_CORPUS_HH
#define HIRA_WORKLOAD_CORPUS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/workloads.hh"

namespace hira {

/** Memory-intensity bin of one trace (the paper's H/M/L categories). */
enum class MpkiClass
{
    Low,
    Medium,
    High,
};

/** Manifest letter of a class (L/M/H). */
char mpkiClassLetter(MpkiClass cls);

/**
 * Bin a trace by its memory accesses per kilo-instruction: High at
 * >= 200, Medium at >= 80, Low below. APKI is intrinsic to the trace
 * (unlike cache-dependent MPKI), so the bin is stable across machine
 * configurations.
 */
MpkiClass classifyApki(double apki);

/** One manifest entry. */
struct CorpusEntry
{
    std::string name;         //!< workload name ("corpus:<name>" spec)
    std::string file;         //!< path as written in the manifest
    std::string path;         //!< resolved path (relative to the dir)
    MpkiClass mpki = MpkiClass::Low;

    std::string spec() const { return "corpus:" + name; }
};

/** An immutable, loaded trace corpus. */
class Corpus
{
  public:
    /**
     * Load `manifest.tsv` of @p dir. Fatal on a missing/malformed
     * manifest, on duplicate names, and on entries whose trace file
     * does not exist.
     */
    static Corpus load(const std::string &dir);

    /** Build from in-memory entries (tools/tests). Same validation. */
    Corpus(std::string dir, std::vector<CorpusEntry> entries);

    const std::string &dir() const { return dir_; }
    const std::vector<CorpusEntry> &entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }

    /** Entry by name, or nullptr. */
    const CorpusEntry *find(const std::string &name) const;

    /** Entry by name; fatal with the available names on a miss. */
    const CorpusEntry &at(const std::string &name) const;

    // ----- the process-wide active corpus -------------------------------

    /**
     * The corpus "corpus:" specs resolve against.
     * On first use, loads from $HIRA_CORPUS when set; nullptr when no
     * corpus is configured. Thread-safe.
     */
    static std::shared_ptr<const Corpus> active();

    /**
     * active(), but fatal (naming @p what) when none is configured.
     * Returns the shared_ptr so the corpus outlives the caller's use
     * even if setActive replaces it concurrently.
     */
    static std::shared_ptr<const Corpus> activeOrFatal(const char *what);

    /** Install @p corpus as the active one (nullptr to clear). */
    static void setActive(std::shared_ptr<const Corpus> corpus);

  private:
    std::string dir_;
    std::vector<CorpusEntry> entries_;
    std::map<std::string, std::size_t> byName;
};

/** Write @p entries as `manifest.tsv` into @p dir. */
void writeManifest(const std::string &dir,
                   const std::vector<CorpusEntry> &entries);

/**
 * Build @p count intensity-binned mixes of @p cores "corpus:" specs,
 * cycling through the paper-style categories — all-High, all-Medium,
 * all-Low, and fully mixed — restricted to the bins the corpus
 * actually populates. Deterministic in @p seed.
 */
std::vector<WorkloadMix> makeCorpusMixes(int count, int cores,
                                         const Corpus &corpus,
                                         std::uint64_t seed = 0xc0b05);

} // namespace hira

#endif // HIRA_WORKLOAD_CORPUS_HH
