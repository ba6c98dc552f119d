#ifndef FIXREP_PERFBENCH_PASSES_H_
#define FIXREP_PERFBENCH_PASSES_H_

// The timed units the workloads are built from: one file pass, one
// stream pass, one chase of a resident table, and the serve closed loop.
// Each records a span around every call it makes into a fixrep layer;
// with a disabled Tracer the spans only time the calls.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check.h"
#include "common/status.h"
#include "inputs.h"
#include "relation/table.h"
#include "repair/session.h"
#include "rules/rule_set.h"
#include "serve/daemon.h"
#include "serve/registry.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

// hosp_stream_durable's `repair --stream` knobs: 64Ki-row chunks, a WAL,
// and a 2 MiB spill budget.
inline constexpr size_t kChunkRows = 65536;
inline constexpr size_t kMemoryBudget = size_t{2} << 20;
// serve_mixed: rows per submitted batch, client connections, and how
// often connection 0 reloads the uis tenant.
inline constexpr size_t kBatchRows = 4096;
inline constexpr int kConnections = 2;
inline constexpr size_t kReloadEvery = 200;
inline constexpr const char* kTenants[] = {"hosp", "hosp_dict", "uis"};

double Median(std::vector<double> v);
// Linear interpolation between closest ranks; pct in [0, 100].
double Percentile(std::vector<double> v, double pct);
double PeakRssMb();
double CurrentRssMb();
// A MetricsRegistry::Global() counter's value (0 when absent).
uint64_t CounterValue(const char* name);

// One timed operation (a pass, or a submitted batch): when it ended,
// how long it took, and the rows it repaired correctly.
struct Op {
  int64_t end_ns = 0;
  double ms = 0;
  double rows = 0;
};

// Runs pass(i) until `seconds` of wall time have gone by, and at least
// `min_passes` times.
template <typename Pass>
void Loop(double seconds, size_t min_passes, Pass pass) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; i < min_passes || NowNs() < deadline; ++i) pass(i);
}

// One `fixrep_cli repair --rules R --in I --out O` run, in-process:
// read, parse, build the session (default serial config), repair, write.
struct FilePass {
  fixrep::Status status;
  double pass_ms = 0;
  double read_ms = 0;
  double parse_ms = 0;
  double index_ms = 0;
  double write_ms = 0;
  size_t values = 0;  // ValuePool::size() after the read
  size_t cells = 0;   // rows x arity read
  size_t cells_changed = 0;
};

FilePass RunFilePass(const Dataset& data, const std::string& out_path,
                     Tracer* tracer, uint64_t request);

// One `fixrep_cli repair --stream --chunk-rows 65536 --wal W
// --memory-budget 2MiB` run: chunked read, streaming repair with the WAL
// (when `wal_path` is non-empty), output through AtomicFile.
struct StreamPass {
  fixrep::Status status;
  double pass_ms = 0;
  double stream_ms = 0;
  double commit_ms = 0;
  fixrep::RepairReport report;
};

StreamPass RunStreamPass(const Dataset& data, const std::string& out_path,
                         const std::string& wal_path, Tracer* tracer,
                         uint64_t request);

// A table and its session kept in memory across passes (the library
// caller's setting: Fig. 13 times the chase alone).
struct Resident {
  std::optional<fixrep::Table> table;
  std::optional<fixrep::RuleSet> rules;
  std::unique_ptr<fixrep::RepairSession> session;
  std::optional<Reference> reference;
};

// Reads the table and parses its rules (untimed).
fixrep::Status LoadResident(const Dataset& data, Resident* resident);

// Builds the session (its CompiledRuleIndex); returns the time taken.
double BuildSession(Resident* resident, Tracer* tracer, uint64_t request);

struct ChaseResult {
  fixrep::Status status;
  double ms = 0;
  size_t cells_changed = 0;
  size_t mismatches = 0;
};

// Repairs a fresh copy of the resident table; the copy and the output
// check are outside the timing.
ChaseResult Chase(Resident* resident, Tracer* tracer, uint64_t request);

struct Batches {
  std::vector<std::string> csv;  // header + rows
  std::vector<size_t> rows;
};

// What serve_mixed sends: tenant specs, the dirty inputs cut into
// batches, and the references the answers are checked against.
struct ServeInputs {
  std::string socket_path;
  std::map<std::string, std::string> specs;  // tenant -> spec
  Batches hosp;
  Batches uis;
  std::optional<Reference> hosp_reference;
  std::optional<Reference> uis_reference;
};

fixrep::StatusOr<std::unique_ptr<ServeInputs>> LoadServeInputs(
    const Inputs& inputs, const std::string& work_dir);

struct Server {
  // The registry must outlive the daemon: members are destroyed in
  // reverse order.
  std::unique_ptr<fixrep::serve::TenantRegistry> registry;
  std::unique_ptr<fixrep::serve::RepairDaemon> daemon;
  std::map<std::string, double> load_ms;
  double setup_ms = 0;  // every Load plus Start
};

// Loads every tenant, then starts the daemon on serve.socket_path.
fixrep::StatusOr<std::unique_ptr<Server>> StartServer(const ServeInputs& serve,
                                                      Tracer* tracer);

// The closed loop of serve_mixed: each connection submits its next batch
// as soon as the previous answer arrives, cycling through the tenants;
// connection 0 reloads uis every kReloadEvery-th request. Every answer
// is checked against the reference.
struct LoopResult {
  Outcome outcome;  // attempted / failed / notes
  std::vector<Op> submits;  // answered submits, in no particular order
  std::vector<double> reload_ms;
  uint64_t rows = 0;  // rows in correct answers
  int64_t start_ns = 0;
  double elapsed_s = 0;
  // Per hosp batch: the digest of its repaired rows, once answered.
  std::vector<std::optional<OutputDigest>> hosp_digests;
};

LoopResult ClosedLoop(const ServeInputs& serve, double seconds,
                      Tracer* tracer);

}  // namespace perfbench

#endif  // FIXREP_PERFBENCH_PASSES_H_
