/**
 * @file
 * File-backed trace ingestion and recording.
 *
 * Two on-disk formats carry the same record stream (see BUILDING.md):
 *
 * Text (CPU2017-style, one record per line, '#' comments and blank
 * lines allowed):
 *
 *     <nonmem-count> R|W|N <hex-addr>
 *
 * meaning "<nonmem-count> non-memory instructions, then one memory
 * Read/Write at <hex-addr>". Kind N carries no access (addr must be 0)
 * and flushes a trailing run of non-memory instructions, which makes
 * record -> replay lossless.
 *
 * Binary: an 8-byte magic "HIRATRC1", then packed little-endian
 * records of { u32 nonmem-count, u8 kind (0=R 1=W 2=N), u64 addr },
 * 13 bytes each.
 *
 * Addresses in a file are region-relative: FileTraceSource maps them
 * into its core's private slice by line index modulo the slice size,
 * so a trace recorded from core i replays bitwise-identically into any
 * equally-sized slice, and absolute addresses from foreign traces are
 * confined to the slice.
 */

#ifndef HIRA_WORKLOAD_FILE_TRACE_HH
#define HIRA_WORKLOAD_FILE_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "workload/trace_source.hh"

namespace hira {

/** On-disk trace encoding. */
enum class TraceFormat
{
    Text,
    Binary,
};

/** FileTraceSource behavior switches. */
struct FileTraceOptions
{
    /**
     * Rewind and replay from the start when the file runs out (the
     * usual choice: simulations run for a fixed cycle count). When
     * false the source reports exhausted() and idles on non-memory
     * instructions instead.
     */
    bool loop = true;
};

/**
 * Streams a trace file (either format, sniffed from the magic) into a
 * core's address slice. I/O is buffered and record-at-a-time; the file
 * is never slurped. Parse errors are fatal with file:line (text) or
 * record-offset (binary) diagnostics.
 */
class FileTraceSource final : public TraceSource
{
  public:
    /**
     * @param path trace file to stream
     * @param base_addr start of the core's private address slice
     * @param slice_bytes size of the slice accesses are mapped into
     * @param opts looping behavior
     */
    FileTraceSource(const std::string &path, Addr base_addr,
                    Addr slice_bytes, FileTraceOptions opts = {});
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    TraceInst next() override;
    /** The file's records as parsed; "0 N 0" records are skipped. */
    TraceRecord nextRecord() override;
    Addr regionBase() const override { return base; }
    bool exhausted() const override { return doneForever; }

    bool binary() const { return isBinary; }
    const std::string &path() const { return filePath; }
    /** Records consumed so far (across loops). */
    std::uint64_t recordsRead() const { return nRecords; }

  private:
    struct Record
    {
        std::uint64_t nonMem = 0;
        int kind = 0; //!< 0=R 1=W 2=N
        Addr addr = 0;
    };

    bool fillBuffer();
    bool readByte(int &out);
    bool readLine(std::string &out);
    bool readRecord(Record &rec);
    bool readTextRecord(Record &rec);
    bool readBinaryRecord(Record &rec);
    /** The next record that holds an instruction (loops or idles). */
    TraceRecord fetch();
    void rewindPayload();
    [[noreturn]] void parseError(const std::string &what) const;
    Addr mapToSlice(Addr file_addr) const;

    std::string filePath;
    Addr base;
    std::uint64_t sliceLines;
    FileTraceOptions opts;

    std::FILE *file = nullptr;
    std::string buffer;       //!< read-ahead chunk
    std::size_t bufPos = 0;
    bool isBinary = false;
    std::size_t lineNo = 0;       //!< text diagnostics
    std::uint64_t byteOffset = 0; //!< binary diagnostics
    std::uint64_t nRecords = 0;
    std::uint64_t recordsThisPass = 0;

    // What next() has not yet emitted of the last fetched record.
    TraceRecord staged;
    bool doneForever = false;
};

/**
 * Pass-through TraceSource that records everything pulled through it to
 * a trace file. Wraps an owned source (System's per-core recording) or
 * a borrowed one (dumpTrace). Addresses are written relative to the
 * wrapped source's regionBase(). The trailing run of non-memory
 * instructions is flushed as an N record on destruction, so replaying
 * the file reproduces the pulled stream bitwise.
 */
class TraceRecorder final : public TraceSource
{
  public:
    TraceRecorder(std::unique_ptr<TraceSource> inner, const std::string &path,
                  TraceFormat format);
    /** Non-owning variant; @p inner must outlive the recorder. */
    TraceRecorder(TraceSource &inner, const std::string &path,
                  TraceFormat format);
    ~TraceRecorder() override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    TraceInst next() override;
    Addr regionBase() const override { return src->regionBase(); }
    /**
     * Never exhausted, even once the wrapped source is: exhausted()
     * lets a core fast-forward without calling next(), and the recorder
     * must see every next() for the file to replay the same stream.
     */
    bool exhausted() const override { return false; }

    /** Write the trailing non-memory run (if any) and flush the file. */
    void flush();

    std::uint64_t instructionsRecorded() const { return nInsts; }

  private:
    void open(const std::string &path);
    void writeRecord(std::uint64_t nonmem, int kind, Addr rel_addr);

    std::unique_ptr<TraceSource> owned;
    TraceSource *src;
    std::string filePath;
    TraceFormat fmt;
    std::FILE *file = nullptr;
    std::uint64_t pendingNonMem = 0;
    std::uint64_t nInsts = 0;
};

/**
 * Pull @p count instructions from @p src and record them to @p path.
 * Convenience wrapper over TraceRecorder for capturing a source outside
 * a simulation.
 */
void dumpTrace(TraceSource &src, const std::string &path, TraceFormat format,
               std::uint64_t count);

} // namespace hira

#endif // HIRA_WORKLOAD_FILE_TRACE_HH
