#include "workload/file_trace.hh"

#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace hira {

namespace {

constexpr char kMagic[8] = {'H', 'I', 'R', 'A', 'T', 'R', 'C', '1'};
constexpr std::size_t kMagicSize = sizeof(kMagic);
constexpr std::size_t kBinaryRecordSize = 4 + 1 + 8; //!< nonmem, kind, addr
constexpr std::size_t kReadChunk = 256 * 1024;
/** Non-memory run of one record an exhausted source returns. */
constexpr std::uint64_t kIdleRun = std::uint64_t(1) << 16;

enum RecordKind
{
    kRead = 0,
    kWrite = 1,
    kNoAccess = 2,
};

void
putLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
getLe(const unsigned char *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// FileTraceSource
// ---------------------------------------------------------------------

FileTraceSource::FileTraceSource(const std::string &path, Addr base_addr,
                                 Addr slice_bytes, FileTraceOptions options)
    : filePath(path), base(base_addr), sliceLines(slice_bytes / 64),
      opts(options)
{
    hira_assert(slice_bytes >= 64);
    file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        fatal("cannot open trace file '%s': %s", path.c_str(),
              std::strerror(errno));
    }
    // Sniff the format: a binary trace starts with the 8-byte magic.
    char head[kMagicSize];
    std::size_t got = std::fread(head, 1, kMagicSize, file);
    isBinary = got == kMagicSize &&
               std::memcmp(head, kMagic, kMagicSize) == 0;
    rewindPayload();
}

FileTraceSource::~FileTraceSource()
{
    if (file != nullptr)
        std::fclose(file);
}

void
FileTraceSource::parseError(const std::string &what) const
{
    if (isBinary) {
        fatal("%s: corrupt binary trace at byte offset %llu: %s",
              filePath.c_str(),
              static_cast<unsigned long long>(byteOffset), what.c_str());
    }
    fatal("%s:%zu: %s", filePath.c_str(), lineNo, what.c_str());
}

void
FileTraceSource::rewindPayload()
{
    long start = isBinary ? static_cast<long>(kMagicSize) : 0L;
    if (std::fseek(file, start, SEEK_SET) != 0)
        fatal("cannot seek in trace file '%s'", filePath.c_str());
    buffer.clear();
    bufPos = 0;
    lineNo = 0;
    byteOffset = static_cast<std::uint64_t>(start);
    recordsThisPass = 0;
}

bool
FileTraceSource::fillBuffer()
{
    if (bufPos < buffer.size())
        return true;
    buffer.resize(kReadChunk);
    std::size_t got = std::fread(&buffer[0], 1, kReadChunk, file);
    buffer.resize(got);
    bufPos = 0;
    return got > 0;
}

bool
FileTraceSource::readByte(int &out)
{
    if (!fillBuffer())
        return false;
    out = static_cast<unsigned char>(buffer[bufPos++]);
    ++byteOffset;
    return true;
}

bool
FileTraceSource::readLine(std::string &out)
{
    out.clear();
    bool any = false;
    int c;
    while (readByte(c)) {
        any = true;
        if (c == '\n')
            break;
        out.push_back(static_cast<char>(c));
    }
    if (!any)
        return false;
    if (!out.empty() && out.back() == '\r')
        out.pop_back();
    ++lineNo;
    return true;
}

bool
FileTraceSource::readTextRecord(Record &rec)
{
    std::string line;
    for (;;) {
        if (!readLine(line))
            return false; // EOF
        const char *p = line.c_str();
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        if (*p == '\0' || *p == '#')
            continue; // blank or comment

        // <nonmem-count>
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            parseError("expected decimal non-memory count, got '" + line +
                       "'");
        char *end = nullptr;
        errno = 0;
        rec.nonMem = std::strtoull(p, &end, 10);
        if (errno == ERANGE)
            parseError("non-memory count out of range");
        p = end;
        if (!std::isspace(static_cast<unsigned char>(*p)))
            parseError("expected whitespace after non-memory count");
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;

        // R|W|N
        switch (*p) {
          case 'R': rec.kind = kRead; break;
          case 'W': rec.kind = kWrite; break;
          case 'N': rec.kind = kNoAccess; break;
          default:
            parseError(std::string("expected access kind R, W, or N, "
                                   "got '") +
                       (*p != '\0' ? std::string(1, *p)
                                   : std::string("end of line")) +
                       "'");
        }
        ++p;
        if (!std::isspace(static_cast<unsigned char>(*p)))
            parseError("expected whitespace after access kind");
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;

        // <hex-addr>, with or without 0x.
        if (!std::isxdigit(static_cast<unsigned char>(*p)) &&
            !(p[0] == '0' && (p[1] == 'x' || p[1] == 'X'))) {
            parseError("expected hexadecimal address");
        }
        errno = 0;
        rec.addr = std::strtoull(p, &end, 16);
        if (end == p)
            parseError("expected hexadecimal address");
        if (errno == ERANGE)
            parseError("address out of range");
        p = end;
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        if (*p != '\0')
            parseError(std::string("trailing garbage '") + p + "'");
        if (rec.kind == kNoAccess && rec.addr != 0)
            parseError("kind N must carry address 0");
        return true;
    }
}

bool
FileTraceSource::readBinaryRecord(Record &rec)
{
    unsigned char raw[kBinaryRecordSize];
    std::size_t got = 0;
    int c;
    while (got < kBinaryRecordSize && readByte(c))
        raw[got++] = static_cast<unsigned char>(c);
    if (got == 0)
        return false; // clean EOF at a record boundary
    if (got < kBinaryRecordSize) {
        parseError(strprintf("truncated record (%zu of %zu bytes)", got,
                             kBinaryRecordSize));
    }
    rec.nonMem = getLe(raw, 4);
    rec.kind = raw[4];
    rec.addr = getLe(raw + 5, 8);
    if (rec.kind > kNoAccess)
        parseError(strprintf("invalid access kind %d", rec.kind));
    if (rec.kind == kNoAccess && rec.addr != 0)
        parseError("kind N must carry address 0");
    return true;
}

bool
FileTraceSource::readRecord(Record &rec)
{
    if (isBinary ? readBinaryRecord(rec) : readTextRecord(rec)) {
        ++nRecords;
        ++recordsThisPass;
        return true;
    }
    return false;
}

Addr
FileTraceSource::mapToSlice(Addr file_addr) const
{
    return base + ((file_addr / 64) % sliceLines) * 64;
}

TraceRecord
FileTraceSource::fetch()
{
    int rewinds = 0;
    for (;;) {
        if (doneForever) {
            TraceRecord idle;
            idle.nonMem = kIdleRun;
            return idle;
        }
        Record rec;
        if (readRecord(rec)) {
            if (rec.nonMem == 0 && rec.kind == kNoAccess)
                continue; // carries no instruction
            TraceRecord out;
            out.nonMem = rec.nonMem;
            if (rec.kind != kNoAccess) {
                out.access.isMem = true;
                out.access.isWrite = rec.kind == kWrite;
                out.access.addr = mapToSlice(rec.addr);
            }
            return out;
        }
        // EOF.
        if (recordsThisPass == 0 && nRecords == 0)
            parseError("trace contains no records");
        if (!opts.loop) {
            doneForever = true;
            continue;
        }
        // Two rewinds within one fetch means a full pass produced no
        // instruction (e.g., a file of "0 N 0" records): bail rather
        // than spin forever.
        if (++rewinds >= 2)
            parseError("trace yields no instructions");
        rewindPayload();
    }
}

TraceInst
FileTraceSource::next()
{
    if (staged.nonMem == 0 && !staged.access.isMem)
        staged = fetch();
    if (staged.nonMem > 0) {
        --staged.nonMem;
        return TraceInst{};
    }
    TraceInst inst = staged.access;
    staged.access = TraceInst{};
    return inst;
}

TraceRecord
FileTraceSource::nextRecord()
{
    if (staged.nonMem == 0 && !staged.access.isMem)
        return fetch();
    TraceRecord rec = staged;
    staged = TraceRecord{};
    return rec;
}

// ---------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------

TraceRecorder::TraceRecorder(std::unique_ptr<TraceSource> inner,
                             const std::string &path, TraceFormat format)
    : owned(std::move(inner)), src(owned.get()), filePath(path), fmt(format)
{
    hira_assert(src != nullptr);
    open(path);
}

TraceRecorder::TraceRecorder(TraceSource &inner, const std::string &path,
                             TraceFormat format)
    : src(&inner), filePath(path), fmt(format)
{
    open(path);
}

void
TraceRecorder::open(const std::string &path)
{
    file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        fatal("cannot create trace file '%s': %s", path.c_str(),
              std::strerror(errno));
    }
    // Buffer writes in 1 MB chunks: one record is tiny.
    std::setvbuf(file, nullptr, _IOFBF, 1 << 20);
    if (fmt == TraceFormat::Binary)
        std::fwrite(kMagic, 1, kMagicSize, file);
}

TraceRecorder::~TraceRecorder()
{
    flush();
    std::fclose(file);
}

void
TraceRecorder::writeRecord(std::uint64_t nonmem, int kind, Addr rel_addr)
{
    if (fmt == TraceFormat::Text) {
        std::fprintf(file, "%llu %c %llx\n",
                     static_cast<unsigned long long>(nonmem),
                     kind == kRead ? 'R' : (kind == kWrite ? 'W' : 'N'),
                     static_cast<unsigned long long>(rel_addr));
    } else {
        std::string rec;
        rec.reserve(kBinaryRecordSize);
        putLe(rec, nonmem, 4);
        rec.push_back(static_cast<char>(kind));
        putLe(rec, rel_addr, 8);
        std::fwrite(rec.data(), 1, rec.size(), file);
    }
    if (std::ferror(file))
        fatal("write error on trace file '%s'", filePath.c_str());
}

TraceInst
TraceRecorder::next()
{
    TraceInst inst = src->next();
    ++nInsts;
    if (!inst.isMem) {
        ++pendingNonMem;
        // The binary record's non-memory count is 32-bit; split absurdly
        // long compute runs across N records.
        if (pendingNonMem == 0xffffffffULL) {
            writeRecord(pendingNonMem, kNoAccess, 0);
            pendingNonMem = 0;
        }
        return inst;
    }
    Addr rb = src->regionBase();
    hira_assert(inst.addr >= rb);
    writeRecord(pendingNonMem, inst.isWrite ? kWrite : kRead,
                inst.addr - rb);
    pendingNonMem = 0;
    return inst;
}

void
TraceRecorder::flush()
{
    if (pendingNonMem > 0) {
        writeRecord(pendingNonMem, kNoAccess, 0);
        pendingNonMem = 0;
    }
    // A failed flush (e.g., ENOSPC) would silently truncate the file and
    // surface later as a baffling parse error on replay; die here instead.
    if (std::fflush(file) != 0 || std::ferror(file)) {
        fatal("write error flushing trace file '%s': %s", filePath.c_str(),
              std::strerror(errno));
    }
}

void
dumpTrace(TraceSource &src, const std::string &path, TraceFormat format,
          std::uint64_t count)
{
    TraceRecorder rec(src, path, format);
    for (std::uint64_t i = 0; i < count; ++i)
        rec.next();
}

} // namespace hira
