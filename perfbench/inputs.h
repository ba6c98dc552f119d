#ifndef FIXREP_PERFBENCH_INPUTS_H_
#define FIXREP_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

// Sizes of the generated corpus. hosp is the ROADMAP's realistic corpus
// (300K rows, ~38% distinct, ~1K rules). uis stays at 50K rows: its
// generator aborts with "name pool exhausted" near 100K rows.
inline constexpr size_t kHospRows = 300000;
inline constexpr size_t kUisRows = 50000;
inline constexpr size_t kMaxRules = 1000;
inline constexpr size_t kDictScaleRules = 250000;
// The output check compares every kSampleStride-th row (0, 16, 32, ...)
// against the reference cRepair chase of that row.
inline constexpr size_t kSampleStride = 16;

// One generated dataset in the per-seed input directory.
struct Dataset {
  std::string name;       // "hosp" or "uis"
  std::string dirty_csv;  // dirty input, header + rows
  std::string rules;      // text rules file
  // Header + the cRepair-repaired rows 0, 16, 32, ... of dirty_csv.
  std::string reference_csv;
  std::vector<std::string> attrs;
  size_t rows = 0;
  size_t bytes = 0;     // dirty CSV file size
  size_t distinct = 0;  // distinct dirty rows
  size_t rules_count = 0;
};

struct Inputs {
  uint64_t seed = 0;
  Dataset hosp;
  Dataset uis;
  // FXRDICT artifact: the hosp rules plus kDictScaleRules synthetic ones.
  std::string hosp_dict;
  size_t hosp_dict_rules = 0;
  size_t hosp_dict_bytes = 0;
};

// Which datasets a workload reads; hosp is always present.
struct Needs {
  bool uis = false;
  bool dict = false;
};

// Generates the parts of `dir` that `needs` asks for and that are not
// there yet. Deterministic in the seed; run in its own process, before
// any timed region, so generation never shows in a workload's memory.
fixrep::Status GenerateInputs(const std::string& dir, uint64_t seed,
                              Needs needs);

// Describes the parts of `dir` that `needs` asks for, which
// GenerateInputs must have produced.
fixrep::StatusOr<Inputs> LoadInputs(const std::string& dir, uint64_t seed,
                                    Needs needs);

// The tenant spec `path@a,b,c` for a text rules file.
std::string TextTenantSpec(const Dataset& data);

// A file's size in bytes (0 when it does not exist).
size_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // FIXREP_PERFBENCH_INPUTS_H_
