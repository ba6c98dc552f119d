#include "traced.h"

#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <streambuf>

#include "check.h"
#include "passes.h"
#include "relation/csv.h"
#include "repair/config.h"
#include "rules/rule_dict.h"
#include "serve/client.h"
#include "spans.h"

namespace perfbench {
namespace {

using fixrep::RepairConfig;
using fixrep::RepairSession;
using fixrep::Status;
using fixrep::StatusOr;
using fixrep::Table;

// Read-only streambuf over a string, so an in-process parse of a batch
// reads it in place as the daemon does.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

// Rounds of the direct-vs-wire comparison (one batch per tenant each)
// and reloads in the sweep.
constexpr size_t kSweepRounds = 3;
constexpr size_t kSweepReloads = 3;

// Per-layer metrics that need a dictionary of their own: Open and Bind of
// the hosp_dict artifact, and the resident-set growth across Bind.
Status SweepDict(const Inputs& inputs, Tracer* tracer, Outcome* out) {
  std::ifstream csv(inputs.hosp.dirty_csv, std::ios::binary);
  auto pool = std::make_shared<fixrep::ValuePool>();
  StatusOr<fixrep::CsvChunkReader> reader =
      fixrep::CsvChunkReader::Open(csv, "data", pool);
  if (!reader.ok()) return reader.status();
  Span open(tracer, "rules", "RuleDict::Open");
  StatusOr<std::unique_ptr<fixrep::RuleDict>> dict =
      fixrep::RuleDict::Open(inputs.hosp_dict);
  const double open_ms = open.Stop();
  if (!dict.ok()) return dict.status();
  const double rss_before = CurrentRssMb();
  Span bind(tracer, "rules", "RuleDict::Bind");
  const Status bound = dict.value()->Bind(*reader->schema(), pool);
  const double bind_ms = bind.Stop();
  const double rss_after = CurrentRssMb();
  FIXREP_RETURN_IF_ERROR(bound);
  out->Set("rules.dict_open_ms", open_ms, "ms");
  out->Set("rules.dict_bind_ms", bind_ms, "ms");
  out->Set("rules.dict_bind_rss_mb", rss_after - rss_before, "MB");
  return Status::Ok();
}

Status SweepFiles(const RunOptions& options, const Inputs& inputs,
                  Tracer* tracer, Outcome* out) {
  StatusOr<Reference> ref = Reference::Load(inputs.hosp.reference_csv);
  if (!ref.ok()) return ref.status();
  const std::string out_path = options.work_dir + "/sweep_out.csv";
  const std::string wal_path = options.work_dir + "/sweep.wal";
  const size_t rows = inputs.hosp.rows;

  const FilePass file = RunFilePass(inputs.hosp, out_path, tracer, 1);
  out->Count(file.status,
             file.status.ok() ? ref->CheckCsvFile(out_path, rows, nullptr) : 0,
             "sweep file pass");
  out->Set("relation.read_ms", file.read_ms, "ms");
  out->Set("relation.read_values", static_cast<double>(file.values), "count");
  out->Set("relation.read_cells", static_cast<double>(file.cells), "count");
  out->Set("relation.write_ms", file.write_ms, "ms");
  out->Set("rules.parse_ms", file.parse_ms, "ms");
  out->Set("repair.index_build_ms", file.index_ms, "ms");
  out->Set("repair.cells_changed", static_cast<double>(file.cells_changed),
           "count");

  // Stream passes with and without the WAL, in the order with, without,
  // without, with; the overhead is the mean of the two adjacent pairs.
  auto stream = [&](bool wal, uint64_t request) {
    const StreamPass pass = RunStreamPass(
        inputs.hosp, out_path, wal ? wal_path : "", tracer, request);
    out->Count(pass.status,
               pass.status.ok() ? ref->CheckCsvFile(out_path, rows, nullptr)
                                : 0,
               wal ? "sweep stream pass (WAL)" : "sweep stream pass");
    return pass;
  };
  const uint64_t fsyncs = CounterValue("fixrep.wal.fsyncs");
  const StreamPass with_wal = stream(true, 2);
  const uint64_t wal_fsyncs = CounterValue("fixrep.wal.fsyncs") - fsyncs;
  const size_t wal_bytes = FileBytes(wal_path);
  const StreamPass no_wal = stream(false, 3);
  const StreamPass no_wal_2 = stream(false, 4);
  const StreamPass with_wal_2 = stream(true, 5);
  const double wal_overhead_ms =
      (with_wal.pass_ms - no_wal.pass_ms + with_wal_2.pass_ms -
       no_wal_2.pass_ms) / 2;
  const double peak = static_cast<double>(with_wal.report.peak_resident_bytes);
  out->Set("repair.stream_ms", with_wal.stream_ms, "ms");
  out->Set("repair.chunks", static_cast<double>(with_wal.report.chunks),
           "count");
  out->Set("relation.spill_peak_resident_bytes", peak, "bytes");
  out->Set("relation.spill_peak_share",
           peak / static_cast<double>(kMemoryBudget), "ratio");
  out->Set("common.commit_ms", with_wal.commit_ms, "ms");
  out->Set("common.wal_overhead_ms", wal_overhead_ms, "ms");
  out->Set("common.wal_fsyncs", static_cast<double>(wal_fsyncs), "count");
  out->Set("common.wal_bytes", static_cast<double>(wal_bytes), "bytes");

  // Chunked read and write alone, same input and chunk size.
  std::ifstream in(inputs.hosp.dirty_csv, std::ios::binary);
  auto pool = std::make_shared<fixrep::ValuePool>();
  StatusOr<fixrep::CsvChunkReader> reader =
      fixrep::CsvChunkReader::Open(in, "data", pool);
  if (!reader.ok()) return reader.status();
  Table chunk = reader->MakeChunkTable();
  std::ofstream copy(options.work_dir + "/sweep_chunks.csv",
                     std::ios::binary);
  fixrep::WriteCsvHeader(*reader->schema(), copy);
  double read_ms = 0;
  double write_ms = 0;
  for (uint64_t request = 6;; ++request) {
    Span read(tracer, "relation", "CsvChunkReader::ReadChunk", request);
    StatusOr<size_t> n = reader->ReadChunk(&chunk, kChunkRows);
    read_ms += read.Stop();
    if (!n.ok() || n.value() == 0) {
      out->Count(n.status(), 0, "sweep chunked read");
      break;
    }
    Span write(tracer, "relation", "WriteCsvRows", request);
    fixrep::WriteCsvRows(chunk, copy);
    write_ms += write.Stop();
    chunk.Clear();
  }
  out->Set("relation.chunk_read_ms", read_ms, "ms");
  out->Set("relation.chunk_write_ms", write_ms, "ms");
  return Status::Ok();
}

Status SweepChase(const Inputs& inputs, Tracer* tracer, Outcome* out) {
  uint64_t probes = 0;
  for (const Dataset* data : {&inputs.hosp, &inputs.uis}) {
    Resident resident;
    FIXREP_RETURN_IF_ERROR(LoadResident(*data, &resident));
    BuildSession(&resident, tracer, 10);
    const uint64_t hits = CounterValue("fixrep.memo.hits");
    const uint64_t misses = CounterValue("fixrep.memo.misses");
    const uint64_t batch_probes = CounterValue("fixrep.lrepair.batch_probes");
    const ChaseResult chase = Chase(&resident, tracer, 10);
    out->Count(chase.status, chase.mismatches, "sweep chase " + data->name);
    const double h = static_cast<double>(CounterValue("fixrep.memo.hits") -
                                         hits);
    const double lookups =
        h + static_cast<double>(CounterValue("fixrep.memo.misses") - misses);
    probes += CounterValue("fixrep.lrepair.batch_probes") - batch_probes;
    out->Set("repair.chase_ms." + data->name, chase.ms, "ms");
    out->Set("repair.memo_hit_rate." + data->name,
             lookups > 0 ? h / lookups : 0, "ratio");
    out->Set("repair.memo_lookups." + data->name, lookups, "count");
  }
  out->Set("repair.batch_probes", static_cast<double>(probes), "count");
  return Status::Ok();
}

Status SweepServe(const RunOptions& options, const Inputs& inputs,
                  Tracer* tracer, Outcome* out) {
  StatusOr<std::unique_ptr<ServeInputs>> serve_or =
      LoadServeInputs(inputs, options.work_dir);
  if (!serve_or.ok()) return serve_or.status();
  const ServeInputs& serve = *serve_or.value();
  StatusOr<std::unique_ptr<Server>> server_or = StartServer(serve, tracer);
  if (!server_or.ok()) return server_or.status();
  Server& server = *server_or.value();
  for (const char* tenant : kTenants) {
    out->Set(std::string("serve.tenant_load_ms.") + tenant,
             server.load_ms[tenant], "ms");
  }
  fixrep::serve::ClientOptions client_options;
  client_options.unix_socket_path = serve.socket_path;
  StatusOr<fixrep::serve::Client> client =
      fixrep::serve::Client::Connect(client_options);
  if (!client.ok()) return client.status();
  const auto headers = fixrep::FormatRepairConfig(RepairConfig{});

  // The same batches in-process (parse into the tenant's pool, repair
  // against its prebuilt backend, render) and through the daemon.
  std::vector<double> direct_ms;
  std::vector<double> submit_ms;
  double request_bytes = 0;
  double response_bytes = 0;
  for (size_t round = 0; round < kSweepRounds; ++round) {
    for (const char* tenant : kTenants) {
      const bool is_uis = std::string(tenant) == "uis";
      const Batches& batches = is_uis ? serve.uis : serve.hosp;
      const Reference& ref = is_uis ? *serve.uis_reference
                                    : *serve.hosp_reference;
      const size_t batch = (round * 5) % batches.csv.size();
      const std::string& csv = batches.csv[batch];
      const uint64_t request = 100 + round;

      const auto snapshot = server.registry->Find(tenant);
      const int64_t start = NowNs();
      StatusOr<Table> table = [&] {
        Span read(tracer, "relation", "ReadCsvLenient", request);
        ViewBuf buf(csv);
        std::istream in(&buf);
        std::unique_lock<std::shared_mutex> writer(snapshot->pool_mutex());
        return fixrep::ReadCsvLenient(in, "data", snapshot->pool());
      }();
      if (!table.ok()) return table.status();
      Status repaired;
      {
        Span repair(tracer, "repair", "Repair", request);
        std::shared_lock<std::shared_mutex> reader(snapshot->pool_mutex());
        RepairSession session(snapshot->repository(), RepairConfig{});
        repaired = session.Repair(&table.value()).status();
      }
      std::ostringstream rendered;
      {
        Span write(tracer, "relation", "WriteCsv", request);
        fixrep::WriteCsv(table.value(), rendered);
      }
      direct_ms.push_back(MsBetween(start, NowNs()));
      const std::string direct = rendered.str();
      out->Count(repaired,
                 ref.CheckCsv(direct, batch * kBatchRows,
                              batches.rows[batch], nullptr),
                 std::string("sweep direct ") + tenant);

      Span submit(tracer, "serve", "Client::Submit", request);
      auto result = client->Submit(tenant, headers, csv);
      submit_ms.push_back(submit.Stop());
      request_bytes += static_cast<double>(csv.size());
      size_t mismatches = 0;
      if (result.ok()) {
        response_bytes += static_cast<double>(result->csv.size());
        mismatches = result->csv == direct ? 0 : 1;
      }
      out->Count(result.status(), mismatches,
                 std::string("sweep submit ") + tenant);
    }
  }
  std::vector<double> reload_ms;
  for (size_t i = 0; i < kSweepReloads; ++i) {
    Span reload(tracer, "serve", "Client::Reload", 200 + i);
    auto reloaded = client->Reload("uis", serve.specs.at("uis"));
    reload_ms.push_back(reload.Stop());
    out->Count(reloaded.status(), 0, "sweep reload uis");
  }
  out->Set("serve.direct_ms_p50", Median(direct_ms), "ms");
  out->Set("serve.wire_ms_p50", Median(submit_ms) - Median(direct_ms), "ms");
  out->Set("serve.reload_ms", Median(reload_ms), "ms");
  out->Set("serve.request_mb", request_bytes / 1e6, "MB");
  out->Set("serve.response_mb", response_bytes / 1e6, "MB");
  out->Set("serve.rejected",
           static_cast<double>(server.daemon->requests_rejected()), "count");
  return Status::Ok();
}

// The traced workload itself: passes (or quarters of the closed loop)
// switch tracing off and on in the order off, on, on, off, ... so the
// overhead is measured in one run, balanced against warm-up drift.
// Returns the wall time covered by traced passes and the rows per second
// each way.
bool Traced(size_t i) { return i % 4 == 1 || i % 4 == 2; }

struct Phase {
  double traced_wall_ms = 0;
  double traced_rows_per_s = 0;
  double untraced_rows_per_s = 0;
};

StatusOr<Phase> TracedPhase(const RunOptions& options, const Inputs& inputs,
                            Tracer* tracer, Outcome* out) {
  Phase phase;
  std::vector<double> ms[2];  // [untraced, traced]
  double rows = static_cast<double>(inputs.hosp.rows);
  const std::string& w = options.workload;
  if (w == "hosp_file" || w == "hosp_stream_durable") {
    StatusOr<Reference> ref = Reference::Load(inputs.hosp.reference_csv);
    if (!ref.ok()) return ref.status();
    const std::string out_path = options.work_dir + "/phase_out.csv";
    const std::string wal_path = options.work_dir + "/phase.wal";
    Loop(options.seconds, 4, [&](size_t i) {
      const bool traced = Traced(i);
      tracer->set_enabled(traced);
      Status status;
      double pass_ms = 0;
      if (w == "hosp_file") {
        const FilePass pass =
            RunFilePass(inputs.hosp, out_path, tracer, 1000 + i);
        status = pass.status;
        pass_ms = pass.pass_ms;
      } else {
        const StreamPass pass =
            RunStreamPass(inputs.hosp, out_path, wal_path, tracer, 1000 + i);
        status = pass.status;
        pass_ms = pass.pass_ms;
      }
      out->Count(status,
                 status.ok()
                     ? ref->CheckCsvFile(out_path, inputs.hosp.rows, nullptr)
                     : 0,
                 w + " traced-phase pass");
      if (status.ok()) ms[traced].push_back(pass_ms);
    });
  } else if (w == "chase_resident") {
    rows += static_cast<double>(inputs.uis.rows);
    Resident hosp;
    Resident uis;
    FIXREP_RETURN_IF_ERROR(LoadResident(inputs.hosp, &hosp));
    FIXREP_RETURN_IF_ERROR(LoadResident(inputs.uis, &uis));
    tracer->set_enabled(false);
    BuildSession(&hosp, tracer, 0);
    BuildSession(&uis, tracer, 0);
    Loop(options.seconds, 4, [&](size_t i) {
      const bool traced = Traced(i);
      tracer->set_enabled(traced);
      const ChaseResult h = Chase(&hosp, tracer, 1000 + i);
      const ChaseResult u = Chase(&uis, tracer, 1000 + i);
      out->Count(h.status, h.mismatches, "traced-phase chase hosp");
      out->Count(u.status, u.mismatches, "traced-phase chase uis");
      ms[traced].push_back(h.ms + u.ms);
    });
  } else {
    StatusOr<std::unique_ptr<ServeInputs>> serve =
        LoadServeInputs(inputs, options.work_dir);
    if (!serve.ok()) return serve.status();
    tracer->set_enabled(false);
    StatusOr<std::unique_ptr<Server>> server = StartServer(**serve, tracer);
    if (!server.ok()) return server.status();
    double rows_served[2] = {0, 0};
    double elapsed_s[2] = {0, 0};
    for (size_t quarter = 0; quarter < 4; ++quarter) {
      const bool traced = Traced(quarter);
      tracer->set_enabled(traced);
      LoopResult loop = ClosedLoop(**serve, options.seconds / 4, tracer);
      out->attempted += loop.outcome.attempted;
      out->failed += loop.outcome.failed;
      out->correct = out->correct && loop.outcome.correct;
      rows_served[traced] += static_cast<double>(loop.rows);
      elapsed_s[traced] += loop.elapsed_s;
    }
    tracer->set_enabled(true);
    phase.traced_wall_ms = kConnections * elapsed_s[1] * 1e3;
    phase.traced_rows_per_s = rows_served[1] / elapsed_s[1];
    phase.untraced_rows_per_s = rows_served[0] / elapsed_s[0];
    return phase;
  }
  tracer->set_enabled(true);
  for (const double pass_ms : ms[1]) phase.traced_wall_ms += pass_ms;
  phase.traced_rows_per_s = rows / (Median(ms[1]) / 1e3);
  phase.untraced_rows_per_s = rows / (Median(ms[0]) / 1e3);
  return phase;
}

}  // namespace

StatusOr<Outcome> RunTraced(const RunOptions& options, const Inputs& inputs) {
  Tracer tracer(true);
  Outcome out;
  FIXREP_RETURN_IF_ERROR(SweepDict(inputs, &tracer, &out));
  FIXREP_RETURN_IF_ERROR(SweepFiles(options, inputs, &tracer, &out));
  FIXREP_RETURN_IF_ERROR(SweepChase(inputs, &tracer, &out));
  FIXREP_RETURN_IF_ERROR(SweepServe(options, inputs, &tracer, &out));

  const size_t first_span = tracer.Snapshot().size();
  StatusOr<Phase> phase = TracedPhase(options, inputs, &tracer, &out);
  if (!phase.ok()) return phase.status();
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  const std::vector<SpanRecord> phase_spans(spans.begin() + first_span,
                                            spans.end());
  const double depth0_share =
      phase->traced_wall_ms > 0 ? DepthZeroMs(phase_spans) /
                                      phase->traced_wall_ms
                                : 0;
  out.Set("trace.rows_per_s", phase->traced_rows_per_s, "rows/s");
  out.Set("trace.untraced_rows_per_s", phase->untraced_rows_per_s, "rows/s");
  out.Set("trace.overhead_share",
          phase->untraced_rows_per_s / phase->traced_rows_per_s - 1, "ratio");
  out.Set("trace.depth0_share", depth0_share, "ratio");

  // The self-time report: each layer's self time in the traced passes.
  std::ostringstream report;
  report << "self_ms workload=" << options.workload;
  for (const auto& [layer, ms] : SelfMsByLayer(phase_spans, first_span)) {
    report << ' ' << layer << '=' << ms;
  }
  report << " traced_wall_ms=" << phase->traced_wall_ms;
  out.notes.push_back(report.str());
  const std::string spans_path = options.work_dir + "/spans-" +
                                 options.workload + "-seed" +
                                 std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(spans_path)) {
    return Status::IoError("cannot write " + spans_path);
  }
  out.notes.push_back("spans: " + spans_path);
  return out;
}

}  // namespace perfbench
