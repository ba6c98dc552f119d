#ifndef FIXREP_PERFBENCH_TRACED_H_
#define FIXREP_PERFBENCH_TRACED_H_

#include "common/status.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

// The traced run (--trace 1): a layer sweep that measures every
// per-layer metric the same way on every workload, then the workload's
// own passes with tracing switched off and on, for its self-time report
// and the tracing overhead. Spans are written to the work directory.
fixrep::StatusOr<Outcome> RunTraced(const RunOptions& options,
                                    const Inputs& inputs);

}  // namespace perfbench

#endif  // FIXREP_PERFBENCH_TRACED_H_
