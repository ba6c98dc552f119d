#include "repair/driver.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace fixrep {

RepairDriver::RepairDriver(const RuleRepository& repo,
                           const RepairDriverOptions& options)
    : repo_(repo), options_(options) {
  // Slot ids never exceed the pool's participant count, so a wider
  // request only caps the number of claiming threads.
  const size_t pool_width = ThreadPool::Global().num_workers() + 1;
  threads_ = options_.threads == 0 ? pool_width
                                   : std::min(options_.threads, pool_width);
  slot_logs_.resize(threads_);
  slot_failures_.resize(threads_);
}

void RepairDriver::EnsureSlots(size_t n) {
  while (repairers_.size() < n) {
    const size_t slot = repairers_.size();
    handles_.push_back(repo_.MakeHandle());
    auto repairer = std::make_unique<FastRepairer>(handles_.back()->source());
    repairer->set_max_chase_steps(options_.max_chase_steps);
    if (options_.write_log != nullptr) {
      repairer->set_write_log(slot == 0 ? options_.write_log
                                        : &slot_logs_[slot]);
    }
    repairers_.push_back(std::move(repairer));
  }
}

void RepairDriver::RunSlot(size_t slot, Table* table, size_t begin,
                           size_t end) {
  FastRepairer& repairer = *repairers_[slot];
  if (options_.on_error == OnErrorPolicy::kAbort) {
    repairer.RepairRows(table, begin, end);
    return;
  }
  for (size_t r = begin; r < end; ++r) {
    size_t cells_changed = 0;
    repairer.set_write_log_row(r);
    const Status status =
        repairer.TryRepairTuple(table->WriteRow(r), &cells_changed);
    if (status.ok()) continue;
    // TryRepairTuple restored the row, so FormatRow renders the
    // preserved original values.
    slot_failures_[slot].push_back(
        Diagnostic{r, status.code(), status.message(), table->FormatRow(r)});
  }
}

RangeOutcome RepairDriver::RepairRows(Table* table, size_t begin,
                                      size_t end) {
  FIXREP_CHECK(table != nullptr);
  FIXREP_CHECK(begin <= end && end <= table->num_rows());
  const size_t rows = end - begin;
  const size_t participants = std::min(threads_, std::max<size_t>(rows, 1));
  EnsureSlots(participants);

  const size_t log_mark =
      options_.write_log != nullptr ? options_.write_log->size() : 0;
  size_t cells_before = 0;
  for (size_t s = 0; s < participants; ++s) {
    cells_before += repairers_[s]->stats().cells_changed;
  }

  if (participants == 1) {
    RunSlot(0, table, begin, end);
  } else {
    // Chunks small enough that fast workers absorb stragglers' leftovers,
    // large enough that the atomic cursor is off the per-tuple path.
    const size_t grain = std::clamp<size_t>(rows / (participants * 8),
                                            size_t{16}, size_t{2048});
    ThreadPool::Global().ParallelFor(
        rows, grain, participants, [&](size_t lo, size_t hi, size_t slot) {
          RunSlot(slot, table, begin + lo, begin + hi);
        });
  }

  RangeOutcome outcome;
  for (size_t s = 0; s < participants; ++s) {
    outcome.cells_changed += repairers_[s]->stats().cells_changed;
  }
  outcome.cells_changed -= cells_before;

  if (participants > 1 && options_.write_log != nullptr) {
    // Every slot captured its claims in cursor order and a row is chased
    // by exactly one slot, so a stable sort on row reproduces the serial
    // capture: rows ascending, intra-row entries in chase order.
    std::vector<CellRepair>* out = options_.write_log;
    for (size_t s = 1; s < participants; ++s) {
      out->insert(out->end(), std::make_move_iterator(slot_logs_[s].begin()),
                  std::make_move_iterator(slot_logs_[s].end()));
      slot_logs_[s].clear();
    }
    std::stable_sort(out->begin() + static_cast<std::ptrdiff_t>(log_mark),
                     out->end(), [](const CellRepair& a, const CellRepair& b) {
                       return a.row < b.row;
                     });
  }

  std::vector<Diagnostic> failures;
  for (size_t s = 0; s < participants; ++s) {
    failures.insert(failures.end(),
                    std::make_move_iterator(slot_failures_[s].begin()),
                    std::make_move_iterator(slot_failures_[s].end()));
    slot_failures_[s].clear();
  }
  if (failures.empty()) return outcome;
  std::sort(failures.begin(), failures.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.line < b.line;
            });
  outcome.tuples_quarantined = failures.size();
  CurrentMetrics()
      .GetCounter("fixrep.quarantine.tuples")
      ->Add(failures.size());
  if (options_.on_error == OnErrorPolicy::kQuarantine &&
      options_.quarantine != nullptr) {
    for (const Diagnostic& diagnostic : failures) {
      options_.quarantine->Add(diagnostic);
    }
  }
  return outcome;
}

void RepairDriver::FlushMetrics() {
  for (const auto& repairer : repairers_) repairer->FlushMetrics();
}

RepairStats RepairDriver::stats() const {
  RepairStats merged;
  merged.Reset(repo_.num_rules());
  for (const auto& repairer : repairers_) merged.MergeFrom(repairer->stats());
  return merged;
}

}  // namespace fixrep
