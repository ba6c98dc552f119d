#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "check.h"
#include "passes.h"
#include "relation/csv.h"
#include "rules/rule_io.h"
#include "traced.h"

namespace perfbench {
namespace {

using fixrep::RepairConfig;
using fixrep::RepairSession;
using fixrep::RuleSet;
using fixrep::Status;
using fixrep::StatusOr;
using fixrep::Table;

// Set-up repetitions (setup_s is the fastest): before the first pass and
// after every pass, so a slow stretch of the host cannot hold every
// sample; serve_mixed sets up before and after its loop.
constexpr size_t kSetupsPerPass = 4;
constexpr size_t kServeSetups = 3;
// Length of the windows a run is cut into (see SetTimings).
constexpr double kWindowS = 3.0;

// The highest percentile up to p99 that leaves at least ten samples
// above it, to one decimal, but never below p90: under 100 samples the
// tail is p90 with fewer than ten samples above it (the note says so).
double TailPercentile(size_t n) {
  if (n < 100) return 90.0;
  const double pct = 100.0 * static_cast<double>(n - 10) /
                     static_cast<double>(n);
  return std::min(99.0, std::floor(pct * 10) / 10);
}

// Sets rows_per_s, op_ms_p50 and op_ms_tail from the run's quietest
// window. The run is cut into kWindowS windows by op end time; a
// window's throughput is its rows over its busy time (the sum of its op
// times for serial passes, its wall span for the concurrent closed
// loop). The shared host this was tuned on slows whole stretches of a
// run, so the window with the highest throughput is reported: its
// figures repeat run to run far better than whole-run medians. A note
// gives the whole-run figures too.
void SetTimings(Outcome* out, const std::vector<Op>& ops, int64_t start_ns,
                bool concurrent, const std::string& op) {
  const int64_t window_ns = static_cast<int64_t>(kWindowS * 1e9);
  int64_t end_ns = start_ns;
  for (const Op& o : ops) end_ns = std::max(end_ns, o.end_ns);
  const size_t windows =
      static_cast<size_t>((end_ns - start_ns) / window_ns) + 1;
  std::vector<std::vector<double>> ms(windows);
  std::vector<double> rows(windows, 0);
  std::vector<double> busy_ms(windows, 0);
  for (const Op& o : ops) {
    const size_t w = static_cast<size_t>((o.end_ns - start_ns) / window_ns);
    ms[w].push_back(o.ms);
    rows[w] += o.rows;
    busy_ms[w] += o.ms;
  }
  // A closing window shorter than half a window holds too few
  // operations to use.
  const double last_span_ms =
      MsBetween(start_ns + static_cast<int64_t>(windows - 1) * window_ns,
                end_ns);
  if (windows > 1 && last_span_ms < kWindowS * 1e3 / 2) rows.back() = 0;
  if (concurrent) {
    for (size_t w = 0; w + 1 < windows; ++w) busy_ms[w] = kWindowS * 1e3;
    busy_ms.back() = last_span_ms;
  }
  auto rate = [&](size_t w) {
    return busy_ms[w] > 0 ? rows[w] / busy_ms[w] * 1e3 : 0;
  };
  size_t best = 0;
  for (size_t w = 1; w < windows; ++w) {
    if (rate(w) > rate(best)) best = w;
  }
  const double pct = TailPercentile(ms[best].size());
  out->Set("rows_per_s", rate(best), "rows/s");
  out->Set("op_ms_p50", Median(ms[best]), "ms");
  out->Set("op_ms_tail", Percentile(ms[best], pct), "ms");

  std::vector<double> all_ms;
  for (const Op& o : ops) all_ms.push_back(o.ms);
  std::ostringstream note;
  note << "timing: op=" << op << " window=" << best + 1 << "/" << windows
       << " window_ops=" << ms[best].size() << " tail_percentile=" << pct
       << " | whole run: ops=" << ops.size()
       << " p50_ms=" << Median(all_ms) << " min_ms=" << Percentile(all_ms, 0)
       << " max_ms=" << Percentile(all_ms, 100);
  out->notes.push_back(note.str());
}

double MinOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// Reassembles the hosp batches' digests into the whole-file digest and
// compares it with the other workloads'. Skipped (true) when the loop
// did not answer every batch.
bool CheckServeDigest(const LoopResult& loop, const std::string& dir,
                      Outcome* out) {
  OutputDigest whole;
  for (const auto& digest : loop.hosp_digests) {
    if (!digest.has_value()) {
      out->notes.push_back(
          "check: not every hosp batch was answered; digest check skipped");
      return true;
    }
    whole.Merge(*digest);
  }
  return RecordHospDigest(dir, "serve_mixed", whole);
}

// Times one set-up of a hosp pass: rule parsing plus RepairSession
// construction, into the fresh pool of a reader opened on the CSV
// header (a stream pass's state; a file pass's pool also holds the
// read values, which only turns a few rule-constant inserts into
// lookups).
StatusOr<double> TimeSetup(const Dataset& data) {
  std::ifstream in(data.dirty_csv, std::ios::binary);
  auto pool = std::make_shared<fixrep::ValuePool>();
  StatusOr<fixrep::CsvChunkReader> reader =
      fixrep::CsvChunkReader::Open(in, "data", pool);
  if (!reader.ok()) return reader.status();
  const int64_t start = NowNs();
  StatusOr<RuleSet> rules =
      fixrep::ParseRulesFileLenient(data.rules, reader->schema(), pool);
  if (!rules.ok()) return rules.status();
  RepairSession session(&rules.value());
  return MsBetween(start, NowNs());
}

// hosp_file and hosp_stream_durable: repeated passes over the hosp CSV,
// each output checked against the reference and the run's digest.
StatusOr<Outcome> RunHospPasses(const RunOptions& options,
                                const Inputs& inputs, bool stream) {
  Outcome out;
  StatusOr<Reference> ref = Reference::Load(inputs.hosp.reference_csv);
  if (!ref.ok()) return ref.status();
  std::vector<double> setup_ms;
  Status setup_status;
  auto time_setups = [&] {
    for (size_t k = 0; k < kSetupsPerPass && setup_status.ok(); ++k) {
      StatusOr<double> ms = TimeSetup(inputs.hosp);
      if (ms.ok()) setup_ms.push_back(ms.value());
      else setup_status = ms.status();
    }
  };
  time_setups();
  const std::string out_path =
      options.work_dir + "/" + options.workload + "_out.csv";
  const std::string wal_path = options.work_dir + "/hosp_stream.wal";
  const double rows = static_cast<double>(inputs.hosp.rows);
  Tracer off(false);
  std::vector<Op> passes;
  std::optional<OutputDigest> digest;
  const int64_t start_ns = NowNs();
  Loop(options.seconds, 3, [&](size_t i) {
    Status status;
    double pass_ms = 0;
    if (stream) {
      const StreamPass pass =
          RunStreamPass(inputs.hosp, out_path, wal_path, &off, i);
      status = pass.status;
      pass_ms = pass.pass_ms;
    } else {
      const FilePass pass = RunFilePass(inputs.hosp, out_path, &off, i);
      status = pass.status;
      pass_ms = pass.pass_ms;
    }
    const int64_t end_ns = NowNs();
    size_t mismatches = 0;
    if (status.ok()) {
      OutputDigest d;
      mismatches = ref->CheckCsvFile(out_path, inputs.hosp.rows, &d);
      if (!digest.has_value()) digest = d;
      if (!(*digest == d)) ++mismatches;
      passes.push_back({end_ns, pass_ms, mismatches == 0 ? rows : 0});
    }
    out.Count(status, mismatches, options.workload + " pass");
    time_setups();
  });
  FIXREP_RETURN_IF_ERROR(setup_status);
  if (digest.has_value() &&
      !RecordHospDigest(options.inputs_dir, options.workload, *digest)) {
    out.Count(Status::Ok(), 1, "hosp digest across workloads");
  }
  SetTimings(&out, passes, start_ns, /*concurrent=*/false, "pass");
  out.Set("setup_s", MinOf(setup_ms) / 1e3, "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

StatusOr<Outcome> RunChaseResident(const RunOptions& options,
                                   const Inputs& inputs) {
  Outcome out;
  Resident hosp;
  Resident uis;
  FIXREP_RETURN_IF_ERROR(LoadResident(inputs.hosp, &hosp));
  FIXREP_RETURN_IF_ERROR(LoadResident(inputs.uis, &uis));
  Tracer off(false);
  std::vector<double> setup_ms;
  auto time_setup = [&] {
    setup_ms.push_back(BuildSession(&hosp, &off, 0) +
                       BuildSession(&uis, &off, 0));
  };
  for (size_t k = 0; k < kSetupsPerPass; ++k) time_setup();
  const double rows = static_cast<double>(inputs.hosp.rows + inputs.uis.rows);
  std::vector<Op> passes;
  std::optional<std::pair<size_t, size_t>> changed;
  const int64_t start_ns = NowNs();
  Loop(options.seconds, 3, [&](size_t i) {
    const ChaseResult h = Chase(&hosp, &off, i);
    out.Count(h.status, h.mismatches, "chase hosp");
    const ChaseResult u = Chase(&uis, &off, i);
    out.Count(u.status, u.mismatches, "chase uis");
    if (!h.status.ok() || !u.status.ok()) return;
    const std::pair<size_t, size_t> c{h.cells_changed, u.cells_changed};
    if (!changed.has_value()) changed = c;
    size_t mismatches = h.mismatches + u.mismatches;
    if (*changed != c) {
      ++mismatches;
      out.Count(Status::Ok(), 1, "cells_changed drift");
    }
    passes.push_back({NowNs(), h.ms + u.ms, mismatches == 0 ? rows : 0});
    time_setup();
  });
  SetTimings(&out, passes, start_ns, /*concurrent=*/false,
             "pass (hosp + uis)");
  out.Set("setup_s", MinOf(setup_ms) / 1e3, "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

StatusOr<Outcome> RunServeMixed(const RunOptions& options,
                                const Inputs& inputs) {
  Outcome out;
  StatusOr<std::unique_ptr<ServeInputs>> serve =
      LoadServeInputs(inputs, options.work_dir);
  if (!serve.ok()) return serve.status();
  Tracer off(false);
  std::vector<double> setup_ms;
  auto time_setups = [&]() -> StatusOr<std::unique_ptr<Server>> {
    std::unique_ptr<Server> server;
    for (size_t k = 0; k < kServeSetups; ++k) {
      server.reset();
      StatusOr<std::unique_ptr<Server>> started = StartServer(**serve, &off);
      if (!started.ok()) return started.status();
      server = std::move(started).value();
      setup_ms.push_back(server->setup_ms);
    }
    return server;
  };
  // Set-ups before and after the loop, so a slow stretch of the host
  // cannot hold every sample.
  StatusOr<std::unique_ptr<Server>> server = time_setups();
  if (!server.ok()) return server.status();
  LoopResult loop = ClosedLoop(**serve, options.seconds, &off);
  const uint64_t rejected = server.value()->daemon->requests_rejected();
  server.value().reset();
  server = time_setups();
  if (!server.ok()) return server.status();
  out.correct = loop.outcome.correct;
  out.attempted = loop.outcome.attempted;
  out.failed = loop.outcome.failed;
  out.notes = loop.outcome.notes;
  if (!CheckServeDigest(loop, options.inputs_dir, &out)) {
    out.Count(Status::Ok(), 1, "hosp digest across workloads");
  }
  std::ostringstream note;
  note << "serve: requests=" << loop.outcome.attempted
       << " reloads=" << loop.reload_ms.size() << " rejected=" << rejected;
  out.notes.push_back(note.str());
  SetTimings(&out, loop.submits, loop.start_ns, /*concurrent=*/true,
             "submit");
  out.Set("setup_s", MinOf(setup_ms) / 1e3, "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace

void Outcome::Count(const Status& status, size_t mismatches,
                    const std::string& what) {
  ++attempted;
  if (status.ok() && mismatches == 0) return;
  ++failed;
  if (mismatches > 0) correct = false;
  if (notes.size() < 64) {
    std::ostringstream note;
    note << "failed: " << what << ": ";
    if (!status.ok()) note << status;
    if (mismatches > 0) note << mismatches << " output mismatches";
    notes.push_back(note.str());
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "hosp_file", "hosp_stream_durable", "chase_resident", "serve_mixed"};
  return names;
}

Needs NeedsOf(const std::string& workload, bool trace) {
  Needs needs;
  needs.uis = trace || workload == "chase_resident" ||
              workload == "serve_mixed";
  needs.dict = trace || workload == "serve_mixed";
  return needs;
}

StatusOr<Outcome> RunWorkload(const RunOptions& options,
                              const Inputs& inputs) {
  if (options.trace) return RunTraced(options, inputs);
  if (options.workload == "hosp_file" ||
      options.workload == "hosp_stream_durable") {
    return RunHospPasses(options, inputs,
                         options.workload == "hosp_stream_durable");
  }
  if (options.workload == "chase_resident") {
    return RunChaseResident(options, inputs);
  }
  if (options.workload == "serve_mixed") return RunServeMixed(options, inputs);
  return Status::MalformedInput("unknown workload " + options.workload);
}

}  // namespace perfbench
