#include "workload/corpus.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include <sys/stat.h>

#include "common/logging.hh"
#include "common/rng.hh"

namespace hira {

namespace {

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/**
 * Reject @p value if it cannot round-trip through the manifest:
 * whitespace, '#' and control characters break the TSV columns, and
 * '"' and '\\' are reserved so a name never needs quoting.
 */
void
checkManifestToken(const std::string &what, const std::string &value,
                   const std::string &context)
{
    for (char c : value) {
        if (std::isspace(static_cast<unsigned char>(c)) ||
            static_cast<unsigned char>(c) < 0x20 || c == '#' ||
            c == '"' || c == '\\') {
            fatal("%s: %s '%s' contains '%c', which cannot round-trip "
                  "through a corpus manifest",
                  context.c_str(), what.c_str(), value.c_str(),
                  std::isspace(static_cast<unsigned char>(c)) ? ' ' : c);
        }
    }
}

std::string
joinPath(const std::string &dir, const std::string &file)
{
    if (!file.empty() && file[0] == '/')
        return file;
    return dir + "/" + file;
}

MpkiClass
classFromLetter(const std::string &s, const std::string &where)
{
    if (s == "H" || s == "h")
        return MpkiClass::High;
    if (s == "M" || s == "m")
        return MpkiClass::Medium;
    if (s == "L" || s == "l")
        return MpkiClass::Low;
    fatal("%s: unknown intensity class '%s' (expected H, M, or L)",
          where.c_str(), s.c_str());
}

// ---------------------------------------------------------------------
// Manifest reader
// ---------------------------------------------------------------------

std::vector<CorpusEntry>
parseTsvManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open corpus manifest '%s'", path.c_str());
    std::vector<CorpusEntry> entries;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::istringstream fields(line);
        std::string name;
        if (!(fields >> name) || name[0] == '#')
            continue; // blank or comment
        std::string where = strprintf("%s:%zu", path.c_str(), lineno);
        std::vector<std::string> cols{name};
        for (std::string col; fields >> col;)
            cols.push_back(col);
        if (cols.size() == 6) {
            fatal("%s: six-column manifest of the retired format (name "
                  "file format instructions class alone-ipc); its "
                  "format, instructions and alone-ipc columns are gone. "
                  "Regenerate the corpus with hira_tracegen, or keep "
                  "columns 1, 2 and 5 (name file class)",
                  where.c_str());
        }
        if (cols.size() != 3) {
            fatal("%s: expected 3 columns (name file class), got %zu",
                  where.c_str(), cols.size());
        }
        CorpusEntry e;
        e.name = cols[0];
        e.file = cols[1];
        e.mpki = classFromLetter(cols[2], where);
        entries.push_back(std::move(e));
    }
    return entries;
}

// ---------------------------------------------------------------------
// Active-corpus state
// ---------------------------------------------------------------------

std::mutex &
activeMutex()
{
    static std::mutex m;
    return m;
}

struct ActiveCorpus
{
    std::shared_ptr<const Corpus> corpus;
    bool envChecked = false;
};

ActiveCorpus &
activeState()
{
    static ActiveCorpus s;
    return s;
}

} // namespace

char
mpkiClassLetter(MpkiClass cls)
{
    switch (cls) {
      case MpkiClass::Low: return 'L';
      case MpkiClass::Medium: return 'M';
      case MpkiClass::High: return 'H';
    }
    panic("unreachable intensity class");
}

MpkiClass
classifyApki(double apki)
{
    if (apki >= 200.0)
        return MpkiClass::High;
    if (apki >= 80.0)
        return MpkiClass::Medium;
    return MpkiClass::Low;
}

Corpus::Corpus(std::string dir, std::vector<CorpusEntry> entries)
    : dir_(std::move(dir)), entries_(std::move(entries))
{
    if (entries_.empty())
        fatal("corpus '%s' has no traces", dir_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        CorpusEntry &e = entries_[i];
        if (e.name.empty() || e.name.find('?') != std::string::npos ||
            e.name.find(':') != std::string::npos) {
            fatal("corpus '%s': invalid trace name '%s' ('?' and ':' "
                  "are spec syntax)",
                  dir_.c_str(), e.name.c_str());
        }
        std::string context = "corpus '" + dir_ + "'";
        checkManifestToken("trace name", e.name, context);
        if (e.file.empty())
            fatal("corpus '%s': entry '%s' has no file", dir_.c_str(),
                  e.name.c_str());
        checkManifestToken("file path", e.file, context);
        e.path = joinPath(dir_, e.file);
        if (!fileExists(e.path)) {
            fatal("corpus '%s': trace file '%s' (entry '%s') does not "
                  "exist",
                  dir_.c_str(), e.path.c_str(), e.name.c_str());
        }
        if (!byName.emplace(e.name, i).second) {
            fatal("corpus '%s': duplicate trace name '%s'", dir_.c_str(),
                  e.name.c_str());
        }
    }
}

Corpus
Corpus::load(const std::string &dir)
{
    std::string tsv = dir + "/manifest.tsv";
    if (!fileExists(tsv))
        fatal("corpus directory '%s' has no manifest.tsv", dir.c_str());
    return Corpus(dir, parseTsvManifest(tsv));
}

const CorpusEntry *
Corpus::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : &entries_[it->second];
}

const CorpusEntry &
Corpus::at(const std::string &name) const
{
    const CorpusEntry *e = find(name);
    if (e == nullptr) {
        std::string names;
        for (const CorpusEntry &cur : entries_)
            names += (names.empty() ? "" : ", ") + cur.name;
        fatal("corpus '%s' has no trace '%s'; it has: %s", dir_.c_str(),
              name.c_str(), names.c_str());
    }
    return *e;
}

std::shared_ptr<const Corpus>
Corpus::active()
{
    std::lock_guard<std::mutex> lock(activeMutex());
    ActiveCorpus &s = activeState();
    if (s.corpus == nullptr && !s.envChecked) {
        s.envChecked = true;
        const char *dir = std::getenv("HIRA_CORPUS");
        if (dir != nullptr && *dir != '\0')
            s.corpus = std::make_shared<const Corpus>(Corpus::load(dir));
    }
    return s.corpus;
}

std::shared_ptr<const Corpus>
Corpus::activeOrFatal(const char *what)
{
    std::shared_ptr<const Corpus> c = active();
    if (c == nullptr) {
        fatal("%s needs an active trace corpus: set HIRA_CORPUS=<dir> "
              "(a directory with a manifest.tsv, see BUILDING.md) or "
              "install one via Corpus::setActive",
              what);
    }
    return c;
}

void
Corpus::setActive(std::shared_ptr<const Corpus> corpus)
{
    std::lock_guard<std::mutex> lock(activeMutex());
    ActiveCorpus &s = activeState();
    s.corpus = std::move(corpus);
    // A later clear falls back to HIRA_CORPUS again.
    s.envChecked = s.corpus != nullptr;
}

void
writeManifest(const std::string &dir,
              const std::vector<CorpusEntry> &entries)
{
    std::string tsv = dir + "/manifest.tsv";
    // Entries usually come through a validated Corpus, but tools and
    // tests may hand-build them: reject fields that would produce a
    // manifest the reader mis-parses — before truncating any existing
    // manifest file.
    for (const CorpusEntry &e : entries) {
        std::string context = "writing manifest '" + tsv + "'";
        checkManifestToken("trace name", e.name, context);
        checkManifestToken("file path", e.file, context);
    }
    std::ofstream out(tsv);
    if (!out)
        fatal("cannot write corpus manifest '%s'", tsv.c_str());
    out << "# hira corpus manifest v2\n"
        << "# name file class\n";
    for (const CorpusEntry &e : entries) {
        out << e.name << '\t' << e.file << '\t' << mpkiClassLetter(e.mpki)
            << '\n';
    }
    out.flush();
    if (!out)
        fatal("write error on corpus manifest '%s'", tsv.c_str());
}

std::vector<WorkloadMix>
makeCorpusMixes(int count, int cores, const Corpus &corpus,
                std::uint64_t seed)
{
    // Bins in category order: High, Medium, Low, then the whole corpus
    // as the "mixed" category. Empty bins drop out, so a single-class
    // corpus still yields valid mixes.
    std::vector<std::vector<const CorpusEntry *>> bins(4);
    for (const CorpusEntry &e : corpus.entries()) {
        switch (e.mpki) {
          case MpkiClass::High: bins[0].push_back(&e); break;
          case MpkiClass::Medium: bins[1].push_back(&e); break;
          case MpkiClass::Low: bins[2].push_back(&e); break;
        }
        bins[3].push_back(&e);
    }
    std::vector<const std::vector<const CorpusEntry *> *> categories;
    for (const auto &bin : bins) {
        if (!bin.empty())
            categories.push_back(&bin);
    }
    hira_assert(!categories.empty());

    Rng rng(seed);
    std::vector<WorkloadMix> mixes;
    mixes.reserve(static_cast<std::size_t>(count));
    for (int m = 0; m < count; ++m) {
        const auto &bin =
            *categories[static_cast<std::size_t>(m) % categories.size()];
        WorkloadMix mix;
        mix.reserve(static_cast<std::size_t>(cores));
        for (int c = 0; c < cores; ++c)
            mix.push_back(bin[rng.below(bin.size())]->spec());
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

} // namespace hira
