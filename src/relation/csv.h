#ifndef FIXREP_RELATION_CSV_H_
#define FIXREP_RELATION_CSV_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/quarantine.h"
#include "common/status.h"
#include "relation/table.h"

namespace fixrep {

// Minimal RFC-4180-style CSV: comma-separated, '"'-quoted fields with ""
// escapes; the first record is the header and becomes the schema.
//
// Two tiers of entry points:
//  * ReadCsv / ReadCsvFile / WriteCsvFile CHECK-fail on malformed input
//    or IO failure — for trusted, developer-controlled artifacts.
//  * The *Lenient / Try* variants return Status and, per
//    CsvReadOptions::on_error, can skip or quarantine malformed data
//    records (arity mismatch, unterminated quote at EOF) instead of
//    failing the whole read. Header problems (empty input, unterminated
//    quote, duplicate column names) are always fatal: without a schema
//    there is nothing to salvage. Unquoted whitespace is preserved
//    verbatim either way.
//
// For out-of-core ingestion, CsvChunkReader parses the same format
// incrementally: open once (header -> schema), then pull fixed-size row
// chunks — the input side of the streaming repair pipeline
// (repair/streaming.h, docs/storage.md). Every read entry point,
// whole-table or chunked, stream or in-memory, goes through it; every
// write entry point goes through one buffered renderer.

struct CsvReadOptions {
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  // Receives a Diagnostic per dropped record when on_error is
  // kQuarantine. Diagnostic::line is the 0-based data-record ordinal
  // (header excluded), matching the row index a clean read would give
  // the record; raw_text preserves the record verbatim.
  QuarantineSink* quarantine = nullptr;
};

// Incremental CSV reader: parses the header eagerly at Open, then hands
// out data records in chunks of at most `max_rows`, applying the same
// lenient error policy as ReadCsvLenient. Record ordinals (and thus
// quarantine Diagnostic::line values) are global across chunks, so a
// chunked read of a file is indistinguishable from a whole-file read.
//
// A stream source is read ahead in 1 MiB blocks (istream::read into one
// reused buffer; a record that crosses the block end moves to the front
// and the next block lands behind it, and a record longer than the
// buffer doubles it). Records with no '"' and no '\r' are split in place
// and their fields interned straight from the block; any other record
// runs the full quoting state machine. The stream (or the in-memory
// bytes) must outlive the reader, and the reader owns the stream's
// position: it has read past the records it has handed out.
class CsvChunkReader {
 public:
  // Reads and validates the header. Header problems are fatal (same
  // policy as ReadCsvLenient).
  static StatusOr<CsvChunkReader> Open(std::istream& in,
                                       const std::string& relation_name,
                                       std::shared_ptr<ValuePool> pool,
                                       const CsvReadOptions& options = {});
  // The same reader over CSV bytes already in memory (no copy, no
  // stream); `csv` must outlive the reader.
  static StatusOr<CsvChunkReader> Open(std::string_view csv,
                                       const std::string& relation_name,
                                       std::shared_ptr<ValuePool> pool,
                                       const CsvReadOptions& options = {});

  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::shared_ptr<ValuePool>& pool() const { return pool_; }

  // An empty table bound to the reader's schema and pool, for use as the
  // chunk buffer (Clear() it between chunks to reuse the allocation).
  Table MakeChunkTable() const { return Table(schema_, pool_); }

  // Appends up to `max_rows` data records to *chunk (which must use the
  // reader's schema). Returns the number appended — 0 exactly at end of
  // input. Malformed records follow the open options: kAbort returns
  // their error, kSkip/kQuarantine drop them (they count toward the
  // record ordinal but not toward the returned row count).
  StatusOr<size_t> ReadChunk(Table* chunk, size_t max_rows);

  bool at_end() const { return at_end_; }
  // Data records consumed so far, including dropped ones.
  size_t records_read() const { return record_; }
  // The current quarantine sink (may be null). Streaming WAL journaling
  // swaps a capture sink in around a ReadChunk to see exactly the
  // diagnostics one chunk produced; error policy and record ordinals
  // are unaffected by the swap.
  QuarantineSink* quarantine() const { return options_.quarantine; }
  QuarantineSink* SwapQuarantine(QuarantineSink* sink) {
    QuarantineSink* previous = options_.quarantine;
    options_.quarantine = sink;
    return previous;
  }
  // Input offset in bytes just past the last record consumed (header
  // and dropped records included), for input-progress reporting — not
  // the read-ahead position. Stream offsets count from 0 at the stream's
  // start; 0 when the stream could not tellg at Open (pipes).
  uint64_t bytes_read() const {
    return start_offset_ < 0
               ? 0
               : static_cast<uint64_t>(start_offset_) + shifted_ + begin_;
  }

 private:
  CsvChunkReader(std::istream* in, std::string_view input,
                 std::shared_ptr<ValuePool> pool,
                 const CsvReadOptions& options);
  static StatusOr<CsvChunkReader> ReadHeader(CsvChunkReader reader,
                                             const std::string& name);

  // Parses the next record into fields_ and consumes it. Returns false
  // at end of input. With a non-null `raw`, the record's text (line
  // terminators outside quotes stripped) is stored there for quarantine
  // diagnostics. `*unterminated` reports a quoted field still open when
  // the input ended.
  bool NextRecord(std::string* raw, bool* unterminated);
  // Runs the quoting state machine over the record at the buffer head.
  // Returns false when the record may continue past the buffered bytes.
  bool ScanQuotedRecord(std::string* raw, bool* unterminated);
  // Stream sources only: moves the unconsumed bytes to the front of the
  // buffer (doubling it when they fill it) and reads behind them.
  void Refill();
  const char* buffer() const {
    return in_ != nullptr ? block_.data() : input_.data();
  }

  std::istream* in_;          // null for an in-memory source
  std::string_view input_;    // the in-memory source
  std::string block_;         // the stream source's read buffer
  size_t begin_ = 0;          // first unconsumed buffered byte
  size_t end_ = 0;            // end of the buffered bytes
  bool source_done_ = false;  // no bytes beyond end_
  int64_t start_offset_ = 0;  // tellg at Open; -1 when untellable
  uint64_t shifted_ = 0;      // bytes moved out by Refill
  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<ValuePool> pool_;
  CsvReadOptions options_;
  size_t record_ = 0;
  bool at_end_ = false;
  // Per-record scratch, reused across the whole read: the fields as
  // views into the block (plain records) or into unquoted_ (quoted
  // ones, whose unescaped bytes field_ends_ delimits).
  std::vector<std::string_view> fields_;
  std::string unquoted_;
  std::vector<size_t> field_ends_;
  std::string raw_;
};

// Reads a table from a stream. `relation_name` names the schema. Every
// dropped record ticks fixrep.quarantine.rows (kSkip and kQuarantine).
StatusOr<Table> ReadCsvLenient(std::istream& in,
                               const std::string& relation_name,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options = {});
// The same over CSV bytes already in memory (a daemon request body).
StatusOr<Table> ReadCsvLenient(std::string_view csv,
                               const std::string& relation_name,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options = {});

// Reads a table from a file path. Pre-sizes the row store from the file
// size so bulk ingestion avoids regrowth; the value pool grows by
// doubling, so nothing is reserved there.
StatusOr<Table> ReadCsvFileLenient(const std::string& path,
                                   const std::string& relation_name,
                                   std::shared_ptr<ValuePool> pool,
                                   const CsvReadOptions& options = {});

// Writes header + rows; fields containing comma/quote/newline are quoted.
// Rows render into one reused buffer that goes to the stream with
// ostream::write about every 1 MiB; whether a value needs quoting is
// decided once per ValueId per call.
void WriteCsv(const Table& table, std::ostream& out);
// The same bytes appended to *out (a daemon response body).
void WriteCsv(const Table& table, std::string* out);

// Streaming-friendly pieces of WriteCsv: the header line alone, and a
// row range [begin_row, table.num_rows()) with no header. WriteCsv ==
// WriteCsvHeader + WriteCsvRows, byte for byte.
void WriteCsvHeader(const Schema& schema, std::ostream& out);
void WriteCsvRows(const Table& table, std::ostream& out,
                  size_t begin_row = 0);

// Writes, flushes, and verifies the stream so short writes (disk full,
// revoked mount) surface as kIoError instead of silently truncating.
Status TryWriteCsvFile(const Table& table, const std::string& path);

// CHECK-ing wrappers over the lenient/Try variants above.
Table ReadCsv(std::istream& in, const std::string& relation_name,
              std::shared_ptr<ValuePool> pool);
Table ReadCsvFile(const std::string& path, const std::string& relation_name,
                  std::shared_ptr<ValuePool> pool);
void WriteCsvFile(const Table& table, const std::string& path);

}  // namespace fixrep

#endif  // FIXREP_RELATION_CSV_H_
