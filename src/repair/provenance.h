#ifndef FIXREP_REPAIR_PROVENANCE_H_
#define FIXREP_REPAIR_PROVENANCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relation/schema.h"
#include "relation/table.h"

namespace fixrep {

// One recorded cell repair: which rule rewrote which cell, from what to
// what. Captured by the lRepair write log (RepairSession::Repair's
// `write_log`, the WAL's cell deltas) so that a curator can audit every
// change a rule set made — the "dependable" in dependable repairing
// includes being able to say why each cell changed.
struct CellRepair {
  size_t row = 0;
  AttrId attr = kInvalidAttr;
  ValueId old_value = kNullValue;
  ValueId new_value = kNullValue;
  size_t rule_index = 0;

  bool operator==(const CellRepair&) const = default;
};

// A full audit log of one table repair.
struct RepairLog {
  std::vector<CellRepair> repairs;

  // Renders one entry like:
  //   row 12 capital: 'Shanghai' -> 'Beijing' by rule #3
  std::string Describe(const CellRepair& repair, const Schema& schema,
                       const ValuePool& pool) const;

  // Repairs grouped per rule (index -> how many cells it fixed).
  std::vector<size_t> PerRuleCounts(size_t num_rules) const;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_PROVENANCE_H_
