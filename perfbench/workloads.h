#ifndef FIXREP_PERFBENCH_WORKLOADS_H_
#define FIXREP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "inputs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string inputs_dir;  // the seed's generated inputs (inputs.h)
  std::string work_dir;    // outputs, logs, sockets and span files
};

// What one run reports. `attempted` counts passes, submitted batches and
// reloads; `failed` counts those that returned an error Status, were
// refused with kUnavailable, or produced output that fails the check.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Context and report lines, printed before the result line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Counts one operation; `mismatches` > 0 also marks the run incorrect.
  void Count(const fixrep::Status& status, size_t mismatches,
             const std::string& what);
};

// hosp_file, hosp_stream_durable, chase_resident, serve_mixed.
const std::vector<std::string>& WorkloadNames();

// The inputs a run needs. Traced runs measure every layer, so they
// need every input.
Needs NeedsOf(const std::string& workload, bool trace);

// Untraced: the workload's end-to-end metrics. Traced: every per-layer
// metric (a fixed sweep over all layers, the same for every workload)
// plus the workload's own traced passes for its self-time report and
// tracing overhead.
fixrep::StatusOr<Outcome> RunWorkload(const RunOptions& options,
                                      const Inputs& inputs);

}  // namespace perfbench

#endif  // FIXREP_PERFBENCH_WORKLOADS_H_
