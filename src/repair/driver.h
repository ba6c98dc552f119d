#ifndef FIXREP_REPAIR_DRIVER_H_
#define FIXREP_REPAIR_DRIVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/quarantine.h"
#include "relation/table.h"
#include "repair/lrepair.h"
#include "repair/provenance.h"
#include "repair/repair_stats.h"
#include "rules/rule_source.h"

namespace fixrep {

// The one lRepair driver: repairs a row range of a table against a
// shared rule backend (any RuleRepository — the in-RAM CompiledRuleIndex
// or a mapped RuleDict).
//
// Fixing-rule repair is per tuple (Section 6), so a row-range loop over
// the Fig. 7 kernel (FastRepairer) is the whole algorithm. The driver
// owns one RuleSourceHandle + FastRepairer scratch per slot and runs a
// range either inline on the calling thread (threads resolves to 1) or
// by claiming sub-ranges from ThreadPool::Global()'s atomic cursor.
// Output, stats, write-log capture and diagnostics are identical for
// every width: per-slot captures and failures are merged back into row
// order after the join.
//
// One driver is built per RepairSession::Repair / RepairStream call and
// reused across every streamed chunk, so its scratch amortizes over the
// whole run.
struct RepairDriverOptions {
  // 1 = serial on the calling thread; 0 = the pool's full width (caller
  // plus every pool worker); > 1 = that many participants, capped at the
  // pool's width.
  size_t threads = 1;
  // kAbort chases with the batched row-group kernel (a chase without a
  // step budget cannot fail). kSkip/kQuarantine isolate each tuple: a
  // failure (chase budget exhausted, injected worker fault) restores the
  // tuple to its original values and the rest of the range completes.
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  // kQuarantine only: one Diagnostic per failed tuple, forwarded from the
  // calling thread in row order after the join. Diagnostic::line is the
  // table row index; raw_text renders the preserved original values.
  QuarantineSink* quarantine = nullptr;
  // Per-tuple chase-step budget in lenient mode (0 = unlimited).
  size_t max_chase_steps = 0;
  // Rule-attributed write capture (WAL journaling, `--log`): every
  // committed cell write is appended as a CellRepair with its table row,
  // rows ascending and intra-row entries in chase order. Failed
  // (restored) tuples contribute no entries. Borrowed.
  std::vector<CellRepair>* write_log = nullptr;
};

struct RangeOutcome {
  size_t cells_changed = 0;
  size_t tuples_quarantined = 0;
};

class RepairDriver {
 public:
  // The repository is borrowed and must outlive the driver.
  RepairDriver(const RuleRepository& repo, const RepairDriverOptions& options);

  RepairDriver(const RepairDriver&) = delete;
  RepairDriver& operator=(const RepairDriver&) = delete;

  // The resolved participant count (options.threads with 0 expanded,
  // capped at the pool width).
  size_t threads() const { return threads_; }

  // Repairs rows [begin, end) of `table` in place. Failed tuples are
  // counted into fixrep.quarantine.tuples. Call from one thread at a
  // time; nothing may append to the table meanwhile.
  RangeOutcome RepairRows(Table* table, size_t begin, size_t end);

  // Publishes the fixrep.lrepair.* work done since the last flush, from
  // the calling thread; a sequence of range calls sums to one
  // whole-table call.
  void FlushMetrics();

  // Cumulative stats merged over every slot.
  RepairStats stats() const;

 private:
  // Creates slot scratch up to `n` participants (serial-only: MakeHandle
  // must not race).
  void EnsureSlots(size_t n);
  // Chases rows [begin, end) with one slot's repairer.
  void RunSlot(size_t slot, Table* table, size_t begin, size_t end);

  const RuleRepository& repo_;
  RepairDriverOptions options_;
  size_t threads_;
  std::vector<std::unique_ptr<RuleSourceHandle>> handles_;
  std::vector<std::unique_ptr<FastRepairer>> repairers_;
  // Slot 0 captures straight into options_.write_log; the others merge
  // into it after the join.
  std::vector<std::vector<CellRepair>> slot_logs_;
  std::vector<std::vector<Diagnostic>> slot_failures_;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_DRIVER_H_
