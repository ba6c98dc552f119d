#ifndef FIXREP_REPAIR_STREAMING_H_
#define FIXREP_REPAIR_STREAMING_H_

#include <cstddef>
#include <iosfwd>

#include "common/quarantine.h"
#include "common/status.h"
#include "relation/csv.h"
#include "repair/driver.h"
#include "repair/recovery.h"
#include "repair/rule_index.h"

namespace fixrep {

// Chunked streaming repair: CSV in, repaired CSV out, with peak memory
// proportional to one chunk instead of the whole relation.
//
// New call sites should go through RepairSession::RepairStream
// (repair/session.h), which forwards here; this class stays public as
// the engine layer for callers that manage their own rule backend (any
// RuleRepository — the in-RAM CompiledRuleIndex or a mapped RuleDict).
//
// The pipeline (docs/storage.md) is
//
//   CsvChunkReader --chunk--> repair in place --rows--> std::ostream
//
// One chunk Table (its flat RowStore reused across chunks via Clear())
// holds at most `chunk_rows` rows at a time; repaired rows are emitted
// before the next chunk is read. Because fixing-rule repair is per tuple,
// chunking cannot change the output: the repaired stream is bit-identical
// to repairing the whole table in memory and writing it out, for every
// chunk size, engine width, and error policy (streaming_test).
//
// One RepairDriver (repair/driver.h) is built per run and reused for
// every chunk, so its per-slot scratch lives across chunk boundaries.
//
// The chunk size is the only memory knob: RepairSession::RepairStream
// turns RepairConfig::memory_budget_bytes into a cap on it.
struct StreamingRepairOptions {
  // Rows per chunk; the peak-memory knob. 64K rows * arity * 4 bytes of
  // cells plus the interned strings.
  size_t chunk_rows = size_t{64} * 1024;
  // Driver configuration (RepairDriverOptions semantics), except:
  // * repair.on_error: kAbort fails fast on the first bad tuple and is
  //   the default; kSkip/kQuarantine isolate per tuple.
  // * repair.quarantine: one Diagnostic per failed *tuple* when
  //   on_error is kQuarantine; Diagnostic::line is the global
  //   output-row index (the same index a whole-table run would report).
  //   Malformed *CSV records* flow through the CsvChunkReader's own
  //   sink instead.
  // * repair.write_log: ignored; the chunk journal captures its own.
  RepairDriverOptions repair;

  // --- durability (docs/durability.md) ---
  // Non-null: journal each chunk to this WAL as chunk_begin /
  // cell_delta* / quarantine* / chunk_commit, committing (group fsync)
  // BEFORE the chunk's rows are emitted, so a crash anywhere leaves
  // every emitted row covered by a durable chunk. Borrowed.
  ChunkJournal* journal = nullptr;
  // Non-null: fast-forward over this scanned run's committed chunks
  // before repairing — each is re-read from the input, its recorded
  // deltas and diagnostics replayed, and its rows re-emitted, so resumed
  // output is byte-identical to an uninterrupted run. The caller has
  // already validated the header against this run's configuration
  // (ValidateWalHeader) and reopened `journal` with ChunkJournal::Resume.
  const RecoveredRun* resume = nullptr;
};

struct StreamingRepairResult {
  size_t rows_emitted = 0;
  size_t chunks = 0;
  size_t cells_changed = 0;
  size_t tuples_quarantined = 0;
  // High-water mark of the chunk table's cell bytes (RowStore::bytes).
  // The number a memory budget governs.
  size_t peak_resident_bytes = 0;
};

class StreamingRepairSession {
 public:
  // The repository is borrowed and must outlive the session.
  explicit StreamingRepairSession(const RuleRepository* repo,
                                  const StreamingRepairOptions& options = {});

  // Drains `reader` chunk by chunk, writing the CSV header and every
  // repaired row to `out`. Returns the totals, or the first error in
  // abort mode. The reader's schema must match the rules' arity.
  StatusOr<StreamingRepairResult> Run(CsvChunkReader* reader,
                                      std::ostream& out);

 private:
  const RuleRepository* repo_;
  StreamingRepairOptions options_;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_STREAMING_H_
