/**
 * @file
 * On-disk instruction traces.
 *
 * Lets users drive the simulator with their own workloads instead of
 * the built-in specgen models. The format is a compact fixed-size
 * binary record stream with a small header; `TraceWriter` produces
 * it (e.g. from an instrumented binary or another simulator) and
 * `FileTrace` replays it. `examples/` and `tools/` include a dumper
 * that converts specgen output to this format.
 *
 * Layout (little-endian):
 *   header : magic "CMTT", u32 version
 *   record : u8 type, u8 src0, u8 src1, u8 flags(bit0 = taken),
 *            u64 pc, u64 addr, u64 storeValue         (28 bytes)
 */

#ifndef CMT_TRACE_TRACE_FILE_H
#define CMT_TRACE_TRACE_FILE_H

// cmt-analyze: allow(stdout-discipline) - owns a FILE* for trace files
#include <cstdio>
#include <string>

#include "cpu/trace.h"

namespace cmt
{

/** Serialises TraceInstr records to a trace file. */
class TraceWriter
{
  public:
    /** Opens @p path for writing; fatal on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one instruction. */
    void append(const TraceInstr &instr);

    std::uint64_t written() const { return count_; }

  private:
    std::FILE *file_;
    std::uint64_t count_ = 0;
};

/** Replays a trace file as a TraceSource. */
class FileTrace : public TraceSource
{
  public:
    /** Opens @p path; fatal on missing file or bad magic. */
    explicit FileTrace(const std::string &path);
    ~FileTrace();

    FileTrace(const FileTrace &) = delete;
    FileTrace &operator=(const FileTrace &) = delete;

    bool next(TraceInstr &out) override;

  private:
    std::FILE *file_;
};

} // namespace cmt

#endif // CMT_TRACE_TRACE_FILE_H
