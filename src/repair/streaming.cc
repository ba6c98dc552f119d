#include "repair/streaming.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace fixrep {

namespace {

// Rows between live fixrep.progress.rows publications. Small enough that
// an endpoint scrape mid-chunk sees movement even in a large chunk,
// large enough to keep the counter off the per-tuple path.
constexpr size_t kProgressStride = 2048;

// Live progress state, published from the calling thread only. Counters
// are cumulative across the run; gauges reflect the latest chunk.
// fixrep.progress.budget_bytes belongs to RepairSession::RepairStream,
// which owns the memory budget.
struct LiveProgress {
  Counter* rows = nullptr;
  Gauge* chunk = nullptr;
  Gauge* resident = nullptr;
  Gauge* peak_resident = nullptr;
  Gauge* input_bytes = nullptr;
  size_t pending_rows = 0;

  explicit LiveProgress(MetricsRegistry* registry) {
    rows = registry->GetCounter("fixrep.progress.rows");
    chunk = registry->GetGauge("fixrep.progress.chunk");
    resident = registry->GetGauge("fixrep.progress.resident_bytes");
    peak_resident = registry->GetGauge("fixrep.progress.peak_resident_bytes");
    input_bytes = registry->GetGauge("fixrep.progress.input_bytes_read");
  }

  void AddRows(size_t n) {
    pending_rows += n;
    if (pending_rows >= kProgressStride) FlushRows();
  }

  void FlushRows() {
    if (pending_rows == 0) return;
    rows->Add(pending_rows);
    pending_rows = 0;
  }
};

}  // namespace

StreamingRepairSession::StreamingRepairSession(
    const RuleRepository* repo, const StreamingRepairOptions& options)
    : repo_(repo), options_(options) {
  FIXREP_CHECK(repo_ != nullptr);
  FIXREP_CHECK_GT(options_.chunk_rows, 0u);
}

StatusOr<StreamingRepairResult> StreamingRepairSession::Run(
    CsvChunkReader* reader, std::ostream& out) {
  FIXREP_CHECK(reader != nullptr);
  if (reader->schema()->arity() != repo_->arity()) {
    return Status::MalformedInput(
        "stream arity " + std::to_string(reader->schema()->arity()) +
        " does not match rule arity " + std::to_string(repo_->arity()));
  }
  FIXREP_TRACE_SPAN("streaming.run");
  const bool quarantining =
      options_.repair.on_error == OnErrorPolicy::kQuarantine &&
      options_.repair.quarantine != nullptr;
  FIXREP_LOG(Debug) << "streaming repair"
                    << Kv("chunk_rows", options_.chunk_rows)
                    << Kv("threads", options_.repair.threads)
                    << Kv("rules", repo_->num_rules());

  // Journaling scratch: the chunk's rule-attributed deltas (chunk-local
  // rows, from the driver's write log) and its tuple diagnostics, both
  // cleared per chunk and written to the WAL at commit time.
  const bool journaling = options_.journal != nullptr;
  std::vector<CellRepair> chunk_deltas;
  std::vector<Diagnostic> chunk_diags;

  // One driver for the whole run. Its diagnostics land in range_sink at
  // chunk-local rows and are rebased onto global output rows below.
  VectorQuarantineSink range_sink;
  RepairDriverOptions driver_options = options_.repair;
  driver_options.quarantine = quarantining ? &range_sink : nullptr;
  driver_options.write_log = journaling ? &chunk_deltas : nullptr;
  RepairDriver driver(*repo_, driver_options);

  // CSV-level quarantine journaling (WAL version >= 2): a capture sink
  // interposed around each ReadChunk sees exactly the reader
  // diagnostics one chunk produced, so they land in the chunk's WAL
  // records and resume can validate the re-read input against the log
  // instead of silently trusting it. Appending to a resumed version-1
  // log keeps the old record set (old scanners refuse the new type).
  const bool journal_csv =
      journaling && (options_.resume == nullptr ||
                     options_.resume->header.version >=
                         kCsvQuarantineWalVersion);
  VectorQuarantineSink csv_capture;

  WriteCsvHeader(*reader->schema(), out);

  StreamingRepairResult result;
  Table chunk = reader->MakeChunkTable();
  // Pre-size only sensible chunk sizes; a whole-file sentinel like
  // SIZE_MAX must not try to reserve. The store keeps this allocation
  // across chunks (Clear), so a chunk that fits never regrows it.
  chunk.Reserve(std::min(options_.chunk_rows, size_t{1} << 20));

  auto& registry = CurrentMetrics();
  LiveProgress progress(&registry);
  // Publishes the chunk's cell bytes; called after the reservation and
  // after every chunk read (a read only grows the store past a chunk
  // size too large to reserve up front).
  auto note_residency = [&] {
    const size_t bytes = chunk.cell_bytes();
    result.peak_resident_bytes = std::max(result.peak_resident_bytes, bytes);
    progress.resident->Set(static_cast<int64_t>(bytes));
    progress.peak_resident->Set(
        static_cast<int64_t>(result.peak_resident_bytes));
  };
  note_residency();

  // Repairs chunk rows [begin, end), accumulating totals (and
  // diagnostics at global row indices) into `result`. `base_row` is the
  // global index of chunk row 0. Sub-ranges of kProgressStride rows per
  // participant keep fixrep.progress.rows live inside a large chunk.
  const size_t stride = kProgressStride * driver.threads();
  auto repair_range = [&](size_t begin, size_t end, size_t base_row) {
    for (size_t sub = begin; sub < end; sub += stride) {
      const size_t sub_end = std::min(end, sub + stride);
      const RangeOutcome outcome = driver.RepairRows(&chunk, sub, sub_end);
      result.cells_changed += outcome.cells_changed;
      result.tuples_quarantined += outcome.tuples_quarantined;
      progress.AddRows(sub_end - sub);
    }
    for (const Diagnostic& d : range_sink.diagnostics()) {
      Diagnostic rebased{base_row + d.line, d.code, d.message, d.raw_text};
      options_.repair.quarantine->Add(rebased);
      if (journaling) chunk_diags.push_back(std::move(rebased));
    }
    range_sink.Clear();
  };

  // Crash recovery: fast-forward over the durable chunks of a previous
  // run. Each is re-read from the input (the reader regenerates any
  // CSV-level diagnostics deterministically), its journaled deltas are
  // applied by interning the recorded strings — no re-chase — its
  // journaled tuple diagnostics are forwarded, and its rows re-emitted.
  // Byte-identical to the uninterrupted run because the chase is a pure
  // per-tuple function: same input chunk + same deltas = same rows.
  if (options_.resume != nullptr) {
    // Version >= 2 logs carry the reader diagnostics each chunk
    // produced: re-render them into a capture sink, refuse on any
    // disagreement with the log (the input changed since the journaled
    // run), and forward the journaled records — never the silently
    // trusted re-rendering — to the live sink. Version-1 logs keep the
    // historical behavior (re-rendered diagnostics flow straight
    // through).
    const bool validate_csv =
        options_.resume->header.version >= kCsvQuarantineWalVersion;
    for (const WalChunk& durable : options_.resume->chunks) {
      chunk.Clear();
      QuarantineSink* live_sink = nullptr;
      if (validate_csv) {
        csv_capture.Clear();
        live_sink = reader->SwapQuarantine(&csv_capture);
      }
      StatusOr<size_t> read = reader->ReadChunk(&chunk, options_.chunk_rows);
      if (validate_csv) {
        reader->SwapQuarantine(live_sink);
      }
      if (!read.ok()) return read.status();
      if (validate_csv) {
        if (csv_capture.diagnostics() != durable.csv_quarantined) {
          return Status::MalformedInput(
              "resume divergence at chunk " +
              std::to_string(durable.chunk_index) + ": WAL journaled " +
              std::to_string(durable.csv_quarantined.size()) +
              " CSV-level diagnostics, re-reading the input rendered " +
              std::to_string(csv_capture.size()) +
              " (or their contents differ) — was the input modified since "
              "the journaled run?");
        }
        if (live_sink != nullptr) {
          for (const Diagnostic& diagnostic : durable.csv_quarantined) {
            live_sink->Add(diagnostic);
          }
        }
      }
      if (read.value() != durable.rows ||
          durable.base_row != result.rows_emitted) {
        return Status::MalformedInput(
            "resume divergence at chunk " +
            std::to_string(durable.chunk_index) + ": WAL recorded " +
            std::to_string(durable.rows) + " rows at base " +
            std::to_string(durable.base_row) + ", re-reading gave " +
            std::to_string(read.value()) + " at base " +
            std::to_string(result.rows_emitted) +
            " — was the input modified since the journaled run?");
      }
      ValuePool& pool = *chunk.pool_ptr();
      for (const WalCellDelta& delta : durable.deltas) {
        if (delta.row >= chunk.num_rows() ||
            delta.attr >= chunk.num_columns()) {
          return Status::MalformedInput(
              "resume divergence: journaled delta addresses row " +
              std::to_string(delta.row) + " attr " +
              std::to_string(delta.attr) + " outside chunk " +
              std::to_string(durable.chunk_index));
        }
        chunk.WriteCell(static_cast<size_t>(delta.row),
                        static_cast<AttrId>(delta.attr),
                        pool.Intern(delta.new_value));
      }
      if (quarantining) {
        for (const Diagnostic& diagnostic : durable.quarantined) {
          options_.repair.quarantine->Add(diagnostic);
        }
      }
      if (durable.tuples_quarantined > 0) {
        registry.GetCounter("fixrep.quarantine.tuples")
            ->Add(durable.tuples_quarantined);
      }
      note_residency();
      WriteCsvRows(chunk, out);
      ++result.chunks;
      result.rows_emitted += chunk.num_rows();
      result.cells_changed += durable.cells_changed;
      result.tuples_quarantined += durable.tuples_quarantined;
      progress.AddRows(chunk.num_rows());
      progress.chunk->Set(static_cast<int64_t>(result.chunks));
    }
    progress.FlushRows();
    registry.GetCounter("fixrep.wal.chunks_replayed")->Add(result.chunks);
    registry.GetCounter("fixrep.wal.rows_replayed")->Add(result.rows_emitted);
    FIXREP_LOG(Info) << "resumed from WAL"
                     << Kv("chunks_replayed", result.chunks)
                     << Kv("rows_replayed", result.rows_emitted);
    if (TelemetryJournal* journal = GetGlobalJournal()) {
      TelemetryEvent event("resume");
      event.Set("chunks_replayed", static_cast<uint64_t>(result.chunks))
          .Set("rows_replayed", static_cast<uint64_t>(result.rows_emitted))
          .Set("cells_changed_replayed",
               static_cast<uint64_t>(result.cells_changed))
          .Set("durable_bytes", options_.resume->durable_bytes);
      journal->Append(event);
    }
  }

  while (true) {
    chunk.Clear();
    QuarantineSink* live_sink = nullptr;
    if (journal_csv) {
      csv_capture.Clear();
      live_sink = reader->SwapQuarantine(&csv_capture);
    }
    StatusOr<size_t> read = reader->ReadChunk(&chunk, options_.chunk_rows);
    if (journal_csv) {
      reader->SwapQuarantine(live_sink);
      // The capture must be invisible to the caller's sink.
      if (live_sink != nullptr) {
        for (const Diagnostic& diagnostic : csv_capture.diagnostics()) {
          live_sink->Add(diagnostic);
        }
      }
    }
    if (!read.ok()) return read.status();
    // Records dropped after the last full chunk are consumed too, so the
    // gauge ends at the input size.
    progress.input_bytes->Set(static_cast<int64_t>(reader->bytes_read()));
    if (read.value() == 0 && reader->at_end()) break;
    ++result.chunks;
    const size_t chunk_cells_before = result.cells_changed;
    const size_t chunk_quarantined_before = result.tuples_quarantined;
    chunk_deltas.clear();
    chunk_diags.clear();
    const uint64_t chunk_start_ns = TraceNowNanos();
    progress.chunk->Set(static_cast<int64_t>(result.chunks));
    note_residency();

    repair_range(0, chunk.num_rows(), result.rows_emitted);
    driver.FlushMetrics();

    // Commit the chunk to the WAL BEFORE emitting its rows: once a row
    // is in the output stream it is covered by a durable chunk, so a
    // crash at any point resumes to byte-identical output.
    if (journaling) {
      ChunkJournal& journal = *options_.journal;
      Status journaled = journal.BeginChunk(
          result.chunks, result.rows_emitted, chunk.num_rows());
      const ValuePool& pool = *chunk.pool_ptr();
      for (const CellRepair& repair : chunk_deltas) {
        if (!journaled.ok()) break;
        WalCellDelta delta;
        delta.row = repair.row;
        delta.attr = static_cast<uint32_t>(repair.attr);
        delta.old_is_null = repair.old_value == kNullValue;
        if (!delta.old_is_null) {
          delta.old_value = pool.GetString(repair.old_value);
        }
        delta.new_value = pool.GetString(repair.new_value);
        delta.rule_index = repair.rule_index;
        journaled = journal.AddDelta(delta);
      }
      if (journal_csv) {
        for (const Diagnostic& diagnostic : csv_capture.diagnostics()) {
          if (!journaled.ok()) break;
          journaled = journal.AddCsvQuarantine(diagnostic);
        }
      }
      for (const Diagnostic& diagnostic : chunk_diags) {
        if (!journaled.ok()) break;
        journaled = journal.AddQuarantine(diagnostic);
      }
      if (journaled.ok()) {
        journaled = journal.Commit(
            result.chunks, chunk.num_rows(),
            result.cells_changed - chunk_cells_before,
            result.tuples_quarantined - chunk_quarantined_before);
      }
      if (!journaled.ok()) return journaled.WithContext("WAL journaling");
      registry.GetCounter("fixrep.wal.chunks_committed")->Add(1);
      registry.GetCounter("fixrep.wal.deltas_journaled")
          ->Add(chunk_deltas.size());
      if (TelemetryJournal* telemetry = GetGlobalJournal()) {
        TelemetryEvent event("wal_commit");
        event.Set("chunk", static_cast<uint64_t>(result.chunks))
            .Set("deltas", static_cast<uint64_t>(chunk_deltas.size()))
            .Set("quarantined", static_cast<uint64_t>(chunk_diags.size()))
            .Set("wal_bytes", journal.appended_bytes())
            .Set("fsyncs", journal.fsync_count());
        telemetry->Append(event);
      }
    }

    WriteCsvRows(chunk, out);
    result.rows_emitted += chunk.num_rows();
    progress.FlushRows();
    if (TelemetryJournal* journal = GetGlobalJournal()) {
      const uint64_t duration_ns = TraceNowNanos() - chunk_start_ns;
      TelemetryEvent event("chunk");
      event.Set("index", static_cast<uint64_t>(result.chunks))
          .Set("rows", static_cast<uint64_t>(chunk.num_rows()))
          .Set("rows_total", static_cast<uint64_t>(result.rows_emitted))
          .Set("cells_changed_total",
               static_cast<uint64_t>(result.cells_changed))
          .Set("duration_ns", duration_ns)
          .Set("resident_bytes", static_cast<uint64_t>(chunk.cell_bytes()))
          .Set("peak_resident_bytes",
               static_cast<uint64_t>(result.peak_resident_bytes));
      if (duration_ns > 0) {
        event.Set("rows_per_s", static_cast<double>(chunk.num_rows()) * 1e9 /
                                    static_cast<double>(duration_ns));
      }
      journal->Append(event);
    }
  }

  progress.FlushRows();
  registry.GetCounter("fixrep.streaming.chunks")->Add(result.chunks);
  registry.GetCounter("fixrep.streaming.rows")->Add(result.rows_emitted);
  FIXREP_LOG(Debug) << "streaming repair done"
                    << Kv("rows", result.rows_emitted)
                    << Kv("chunks", result.chunks)
                    << Kv("cells_changed", result.cells_changed)
                    << Kv("quarantined", result.tuples_quarantined)
                    << Kv("peak_resident", result.peak_resident_bytes);
  return result;
}

}  // namespace fixrep
