#include "relation/csv.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace fixrep {

namespace {

// Read-ahead block of a stream source, and the size at which the writer
// hands its buffer to the stream.
constexpr size_t kBlockBytes = size_t{1} << 20;

}  // namespace

CsvChunkReader::CsvChunkReader(std::istream* in, std::string_view input,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options)
    : in_(in),
      input_(input),
      pool_(std::move(pool)),
      options_(options) {
  if (in_ == nullptr) {
    end_ = input_.size();
    source_done_ = true;
  } else {
    const std::streamoff pos = in_->tellg();
    start_offset_ = pos < 0 ? -1 : static_cast<int64_t>(pos);
  }
}

StatusOr<CsvChunkReader> CsvChunkReader::Open(std::istream& in,
                                              const std::string& relation_name,
                                              std::shared_ptr<ValuePool> pool,
                                              const CsvReadOptions& options) {
  return ReadHeader(CsvChunkReader(&in, {}, std::move(pool), options),
                    relation_name);
}

StatusOr<CsvChunkReader> CsvChunkReader::Open(std::string_view csv,
                                              const std::string& relation_name,
                                              std::shared_ptr<ValuePool> pool,
                                              const CsvReadOptions& options) {
  return ReadHeader(CsvChunkReader(nullptr, csv, std::move(pool), options),
                    relation_name);
}

StatusOr<CsvChunkReader> CsvChunkReader::ReadHeader(CsvChunkReader reader,
                                                    const std::string& name) {
  bool unterminated = false;
  if (!reader.NextRecord(/*raw=*/nullptr, &unterminated)) {
    return Status::MalformedInput("empty CSV input");
  }
  if (unterminated) {
    return Status::MalformedInput(
        "unterminated quoted field at EOF in CSV header");
  }
  std::vector<std::string> names(reader.fields_.begin(),
                                 reader.fields_.end());
  {
    std::unordered_set<std::string> seen;
    for (const std::string& column : names) {
      if (!seen.insert(column).second) {
        return Status::MalformedInput("duplicate CSV header column '" +
                                      column + "'");
      }
    }
  }
  reader.schema_ = std::make_shared<Schema>(name, std::move(names));
  return reader;
}

void CsvChunkReader::Refill() {
  const size_t pending = end_ - begin_;
  if (begin_ > 0) {
    std::memmove(block_.data(), block_.data() + begin_, pending);
    shifted_ += begin_;
    begin_ = 0;
    end_ = pending;
  }
  if (block_.empty()) {
    block_.resize(kBlockBytes);
  } else if (end_ == block_.size()) {
    block_.resize(block_.size() * 2);  // one record fills the buffer
  }
  const size_t want = block_.size() - end_;
  in_->read(block_.data() + end_, static_cast<std::streamsize>(want));
  const size_t got = static_cast<size_t>(in_->gcount());
  end_ += got;
  // istream::read comes back short only at end of input or on error.
  if (got < want) source_done_ = true;
}

bool CsvChunkReader::NextRecord(std::string* raw, bool* unterminated) {
  *unterminated = false;
  while (true) {
    const char* p = buffer() + begin_;
    const char* end = buffer() + end_;
    if (p == end) {
      if (source_done_) return false;
      Refill();
      continue;
    }
    const char* newline =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (newline == nullptr && !source_done_) {
      Refill();
      continue;
    }
    const char* line_end = newline != nullptr ? newline : end;
    const size_t line_size = static_cast<size_t>(line_end - p);
    if (std::memchr(p, '"', line_size) != nullptr ||
        std::memchr(p, '\r', line_size) != nullptr) {
      if (ScanQuotedRecord(raw, unterminated)) return true;
      Refill();
      continue;
    }
    // Plain record: split in place, the fields stay views into the block.
    fields_.clear();
    for (const char* field = p;;) {
      const char* comma = static_cast<const char*>(
          std::memchr(field, ',', static_cast<size_t>(line_end - field)));
      if (comma == nullptr) {
        fields_.emplace_back(field, static_cast<size_t>(line_end - field));
        break;
      }
      fields_.emplace_back(field, static_cast<size_t>(comma - field));
      field = comma + 1;
    }
    if (raw != nullptr) raw->assign(p, line_size);
    begin_ = static_cast<size_t>((newline != nullptr ? newline + 1 : end) -
                                 buffer());
    return true;
  }
}

bool CsvChunkReader::ScanQuotedRecord(std::string* raw, bool* unterminated) {
  // Running out of buffered bytes before the record ends returns false
  // ("refill and rescan") at the loop top, unless the input has ended; a
  // quote whose lookahead runs out gets there too.
  const char* const data = buffer();
  size_t i = begin_;
  const auto exhausted = [&] { return i == end_; };
  unquoted_.clear();
  field_ends_.clear();
  if (raw != nullptr) raw->clear();
  bool in_quotes = false;
  bool terminated = false;
  while (true) {
    if (exhausted()) {
      if (!source_done_) return false;
      break;
    }
    const char ch = data[i++];
    if (raw != nullptr && ch != '\n' && ch != '\r') raw->push_back(ch);
    if (in_quotes) {
      if (raw != nullptr && (ch == '\n' || ch == '\r')) raw->push_back(ch);
      if (ch == '"') {
        if (!exhausted() && data[i] == '"') {
          ++i;
          unquoted_.push_back('"');
          if (raw != nullptr) raw->push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        unquoted_.push_back(ch);
      }
      continue;
    }
    if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      field_ends_.push_back(unquoted_.size());
    } else if (ch == '\n') {
      terminated = true;
      break;
    } else if (ch != '\r') {  // tolerate CRLF
      unquoted_.push_back(ch);
    }
  }
  field_ends_.push_back(unquoted_.size());
  *unterminated = !terminated && in_quotes;
  fields_.clear();
  size_t field_begin = 0;
  for (const size_t field_end : field_ends_) {
    fields_.emplace_back(unquoted_.data() + field_begin,
                         field_end - field_begin);
    field_begin = field_end;
  }
  begin_ = i;
  return true;
}

StatusOr<size_t> CsvChunkReader::ReadChunk(Table* chunk, size_t max_rows) {
  FIXREP_CHECK(chunk != nullptr);
  FIXREP_CHECK_EQ(chunk->num_columns(), schema_->arity());
  const bool lenient = options_.on_error != OnErrorPolicy::kAbort;
  // Raw text is only captured when a record can end up quarantined.
  std::string* raw =
      options_.on_error == OnErrorPolicy::kQuarantine ? &raw_ : nullptr;
  Counter* quarantined_rows =
      CurrentMetrics().GetCounter("fixrep.quarantine.rows");

  size_t appended = 0;
  bool unterminated = false;
  while (appended < max_rows) {
    if (!NextRecord(raw, &unterminated)) {
      at_end_ = true;
      break;
    }
    Status problem = Status::Ok();
    if (unterminated) {
      problem = Status::MalformedInput("unterminated quoted field at EOF");
    } else if (fields_.size() != schema_->arity()) {
      problem = Status::MalformedInput(
          "CSV record arity mismatch at row " + std::to_string(record_) +
          " (got " + std::to_string(fields_.size()) + ", want " +
          std::to_string(schema_->arity()) + ")");
    } else if (FIXREP_FAULT("csv.append_row")) {
      problem = Status::Internal("injected failure appending row " +
                                 std::to_string(record_));
    }
    if (!problem.ok()) {
      if (!lenient) return problem;
      quarantined_rows->Add(1);
      if (options_.on_error == OnErrorPolicy::kQuarantine &&
          options_.quarantine != nullptr) {
        options_.quarantine->Add(
            Diagnostic{record_, problem.code(), problem.message(), raw_});
      }
      ++record_;
      continue;
    }
    chunk->AppendRowViews(fields_);
    ++record_;
    ++appended;
  }
  return appended;
}

namespace {

// Shared by the whole-table entry points; `expected_rows` pre-sizes the
// row store when the caller can estimate it (0 = unknown).
StatusOr<Table> ReadAll(StatusOr<CsvChunkReader> reader,
                        size_t expected_rows) {
  if (!reader.ok()) return reader.status();
  Table table = reader.value().MakeChunkTable();
  if (expected_rows > 0) table.Reserve(expected_rows);
  StatusOr<size_t> appended = reader.value().ReadChunk(
      &table, std::numeric_limits<size_t>::max());
  if (!appended.ok()) return appended.status();
  return table;
}

}  // namespace

StatusOr<Table> ReadCsvLenient(std::istream& in,
                               const std::string& relation_name,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options) {
  return ReadAll(
      CsvChunkReader::Open(in, relation_name, std::move(pool), options),
      /*expected_rows=*/0);
}

StatusOr<Table> ReadCsvLenient(std::string_view csv,
                               const std::string& relation_name,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options) {
  return ReadAll(
      CsvChunkReader::Open(csv, relation_name, std::move(pool), options),
      /*expected_rows=*/0);
}

StatusOr<Table> ReadCsvFileLenient(const std::string& path,
                                   const std::string& relation_name,
                                   std::shared_ptr<ValuePool> pool,
                                   const CsvReadOptions& options) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (FIXREP_FAULT("csv.open_read") || !in.good()) {
    return Status::IoError("cannot open " + path);
  }
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0);
  // Pre-size the row store from the file size so bulk ingestion avoids
  // regrowth. A deliberately low-ball estimate (CSV rows are rarely under
  // 32 bytes); the reservation is not touched until rows land in it.
  const size_t expected_rows =
      file_bytes > 0 ? static_cast<size_t>(file_bytes) / 32 : 0;
  return ReadAll(
      CsvChunkReader::Open(in, relation_name, std::move(pool), options),
      expected_rows);
}

namespace {

// Renders CSV text into one string: the caller's (string sink) or its
// own buffer, handed to an ostream with one write about every
// kBlockBytes and at Flush. Stream errors land in the stream's state,
// where the caller checks them.
class CsvRenderer {
 public:
  explicit CsvRenderer(std::string* sink) : out_(nullptr), text_(sink) {}
  explicit CsvRenderer(std::ostream* out) : out_(out), text_(&buffer_) {
    buffer_.reserve(kBlockBytes + (kBlockBytes >> 4));
  }
  // text_ may point at buffer_.
  CsvRenderer(const CsvRenderer&) = delete;
  CsvRenderer& operator=(const CsvRenderer&) = delete;

  void Header(const Schema& schema) {
    for (size_t a = 0; a < schema.arity(); ++a) {
      if (a > 0) text_->push_back(',');
      AppendCsvField(text_, schema.attribute_name(static_cast<AttrId>(a)));
    }
    EndRow();
  }

  // Rows [begin_row, num_rows).
  void Rows(const Table& table, size_t begin_row) {
    const ValuePool& pool = table.pool();
    // Per ValueId: 0 = not yet seen, 1 = verbatim, 2 = quoted.
    quoting_.assign(pool.size(), 0);
    const size_t arity = table.num_columns();
    for (size_t r = begin_row; r < table.num_rows(); ++r) {
      const TupleRef row = table.row(r);
      for (size_t a = 0; a < arity; ++a) {
        if (a > 0) text_->push_back(',');
        const ValueId id = row[a];
        if (id == kNullValue) continue;
        const std::string& value = pool.GetString(id);
        uint8_t& quoting = quoting_[static_cast<size_t>(id)];
        if (quoting == 0) quoting = CsvFieldNeedsQuotes(value) ? 2 : 1;
        if (quoting == 1) {
          text_->append(value);
        } else {
          AppendCsvField(text_, value);
        }
      }
      EndRow();
    }
  }

  // Hands buffered text to the stream (a no-op for a string sink).
  void Flush() {
    if (out_ == nullptr || text_->empty()) return;
    out_->write(text_->data(), static_cast<std::streamsize>(text_->size()));
    text_->clear();
  }

 private:
  void EndRow() {
    text_->push_back('\n');
    if (out_ != nullptr && text_->size() >= kBlockBytes) Flush();
  }

  std::ostream* out_;  // null for a string sink
  std::string* text_;
  std::string buffer_;
  std::vector<uint8_t> quoting_;
};

}  // namespace

void WriteCsvHeader(const Schema& schema, std::ostream& out) {
  CsvRenderer renderer(&out);
  renderer.Header(schema);
  renderer.Flush();
}

void WriteCsvRows(const Table& table, std::ostream& out, size_t begin_row) {
  CsvRenderer renderer(&out);
  renderer.Rows(table, begin_row);
  renderer.Flush();
}

void WriteCsv(const Table& table, std::ostream& out) {
  CsvRenderer renderer(&out);
  renderer.Header(table.schema());
  renderer.Rows(table, /*begin_row=*/0);
  renderer.Flush();
}

void WriteCsv(const Table& table, std::string* out) {
  CsvRenderer renderer(out);
  renderer.Header(table.schema());
  renderer.Rows(table, /*begin_row=*/0);
}

Status TryWriteCsvFile(const Table& table, const std::string& path) {
  if (FIXREP_FAULT("csv.open_write")) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  // Stage in path.tmp and rename into place on Commit, so a crash or a
  // failed write never leaves a truncated CSV under the final name.
  StatusOr<AtomicFile> out = AtomicFile::Create(path);
  if (!out.ok()) return out.status();
  WriteCsv(table, out->stream());
  if (FIXREP_FAULT("csv.write_flush")) {
    out->stream().setstate(std::ios::badbit);
  }
  return out->Commit();
}

Table ReadCsv(std::istream& in, const std::string& relation_name,
              std::shared_ptr<ValuePool> pool) {
  StatusOr<Table> result = ReadCsvLenient(in, relation_name, std::move(pool));
  FIXREP_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

Table ReadCsvFile(const std::string& path, const std::string& relation_name,
                  std::shared_ptr<ValuePool> pool) {
  StatusOr<Table> result =
      ReadCsvFileLenient(path, relation_name, std::move(pool));
  FIXREP_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

void WriteCsvFile(const Table& table, const std::string& path) {
  const Status status = TryWriteCsvFile(table, path);
  FIXREP_CHECK(status.ok()) << status.message();
}

}  // namespace fixrep
