#include "passes.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/atomic_file.h"
#include "common/metrics.h"
#include "relation/csv.h"
#include "repair/config.h"
#include "rules/rule_io.h"
#include "serve/client.h"

namespace perfbench {

using fixrep::RepairConfig;
using fixrep::RepairReport;
using fixrep::RepairSession;
using fixrep::RuleSet;
using fixrep::Status;
using fixrep::StatusOr;
using fixrep::Table;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  size_t size = 0;
  size_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t CounterValue(const char* name) {
  const fixrep::Counter* counter =
      fixrep::MetricsRegistry::Global().FindCounter(name);
  return counter != nullptr ? counter->Value() : 0;
}

FilePass RunFilePass(const Dataset& data, const std::string& out_path,
                     Tracer* tracer, uint64_t request) {
  FilePass pass;
  const int64_t start = NowNs();
  auto pool = std::make_shared<fixrep::ValuePool>();
  Span read(tracer, "relation", "ReadCsvFileLenient", request);
  StatusOr<Table> table =
      fixrep::ReadCsvFileLenient(data.dirty_csv, "data", pool);
  pass.read_ms = read.Stop();
  if (!table.ok()) {
    pass.status = table.status();
    return pass;
  }
  pass.values = pool->size();
  pass.cells = table->num_rows() * table->num_columns();
  Span parse(tracer, "rules", "ParseRulesFileLenient", request);
  StatusOr<RuleSet> rules =
      fixrep::ParseRulesFileLenient(data.rules, table->schema_ptr(), pool);
  pass.parse_ms = parse.Stop();
  if (!rules.ok()) {
    pass.status = rules.status();
    return pass;
  }
  Span build(tracer, "repair", "RepairSession", request);
  auto session = std::make_unique<RepairSession>(&rules.value());
  pass.index_ms = build.Stop();
  Span repair(tracer, "repair", "Repair", request);
  StatusOr<RepairReport> report = session->Repair(&table.value());
  repair.Stop();
  if (!report.ok()) {
    pass.status = report.status();
    return pass;
  }
  pass.cells_changed = report->cells_changed;
  Span write(tracer, "relation", "TryWriteCsvFile", request);
  pass.status = fixrep::TryWriteCsvFile(table.value(), out_path);
  pass.write_ms = write.Stop();
  pass.pass_ms = MsBetween(start, NowNs());
  return pass;
}

StreamPass RunStreamPass(const Dataset& data, const std::string& out_path,
                         const std::string& wal_path, Tracer* tracer,
                         uint64_t request) {
  if (!wal_path.empty()) std::remove(wal_path.c_str());
  StreamPass pass;
  const int64_t start = NowNs();
  std::ifstream in(data.dirty_csv, std::ios::binary);
  auto pool = std::make_shared<fixrep::ValuePool>();
  Span open(tracer, "relation", "CsvChunkReader::Open", request);
  StatusOr<fixrep::CsvChunkReader> reader =
      fixrep::CsvChunkReader::Open(in, "data", pool);
  open.Stop();
  if (!reader.ok()) {
    pass.status = reader.status();
    return pass;
  }
  Span parse(tracer, "rules", "ParseRulesFileLenient", request);
  StatusOr<RuleSet> rules =
      fixrep::ParseRulesFileLenient(data.rules, reader->schema(), pool);
  parse.Stop();
  if (!rules.ok()) {
    pass.status = rules.status();
    return pass;
  }
  RepairConfig config;
  config.chunk_rows = kChunkRows;
  config.memory_budget_bytes = kMemoryBudget;
  config.wal_path = wal_path;
  Span build(tracer, "repair", "RepairSession", request);
  auto session = std::make_unique<RepairSession>(&rules.value(), config);
  build.Stop();
  Span create(tracer, "common", "AtomicFile::Create", request);
  StatusOr<fixrep::AtomicFile> file = fixrep::AtomicFile::Create(out_path);
  create.Stop();
  if (!file.ok()) {
    pass.status = file.status();
    return pass;
  }
  Span stream(tracer, "repair", "RepairStream", request);
  StatusOr<RepairReport> report =
      session->RepairStream(&reader.value(), file->stream());
  pass.stream_ms = stream.Stop();
  if (!report.ok()) {
    pass.status = report.status();
    return pass;
  }
  pass.report = report.value();
  Span commit(tracer, "common", "AtomicFile::Commit", request);
  pass.status = file->Commit();
  pass.commit_ms = commit.Stop();
  pass.pass_ms = MsBetween(start, NowNs());
  return pass;
}

// ------------------------------------------------------ resident tables

Status LoadResident(const Dataset& data, Resident* resident) {
  auto pool = std::make_shared<fixrep::ValuePool>();
  StatusOr<Table> table =
      fixrep::ReadCsvFileLenient(data.dirty_csv, "data", pool);
  if (!table.ok()) return table.status();
  StatusOr<RuleSet> rules =
      fixrep::ParseRulesFileLenient(data.rules, table->schema_ptr(), pool);
  if (!rules.ok()) return rules.status();
  StatusOr<Reference> reference = Reference::Load(data.reference_csv);
  if (!reference.ok()) return reference.status();
  resident->session.reset();
  resident->table.emplace(std::move(table).value());
  resident->rules.emplace(std::move(rules).value());
  resident->reference.emplace(std::move(reference).value());
  return Status::Ok();
}

// Builds the session (its CompiledRuleIndex); returns the time taken.
double BuildSession(Resident* resident, Tracer* tracer, uint64_t request) {
  resident->session.reset();
  Span build(tracer, "repair", "RepairSession", request);
  resident->session = std::make_unique<RepairSession>(&*resident->rules);
  return build.Stop();
}

// Repairs a fresh copy of the resident table; the copy and the output
// check are outside the timing.
ChaseResult Chase(Resident* resident, Tracer* tracer, uint64_t request) {
  Table copy = *resident->table;
  ChaseResult result;
  Span repair(tracer, "repair", "Repair", request);
  StatusOr<RepairReport> report = resident->session->Repair(&copy);
  result.ms = repair.Stop();
  if (!report.ok()) {
    result.status = report.status();
    return result;
  }
  result.cells_changed = report->cells_changed;
  result.mismatches = resident->reference->CheckTable(copy);
  return result;
}

// --------------------------------------------------------------- serving

namespace {

// Cuts the dirty CSV into header-prefixed batches of kBatchRows lines
// (the generated data has no quoted newlines).
StatusOr<Batches> CutBatches(const Dataset& data) {
  std::ifstream in(data.dirty_csv);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::IoError("empty input " + data.dirty_csv);
  }
  Batches batches;
  std::string line;
  while (std::getline(in, line)) {
    if (batches.rows.empty() || batches.rows.back() == kBatchRows) {
      batches.csv.push_back(header + "\n");
      batches.rows.push_back(0);
    }
    batches.csv.back() += line;
    batches.csv.back() += '\n';
    ++batches.rows.back();
  }
  return batches;
}

}  // namespace

StatusOr<std::unique_ptr<ServeInputs>> LoadServeInputs(
    const Inputs& inputs, const std::string& work_dir) {
  auto serve = std::make_unique<ServeInputs>();
  serve->socket_path = work_dir + "/serve.sock";
  serve->specs["hosp"] = TextTenantSpec(inputs.hosp);
  serve->specs["hosp_dict"] = inputs.hosp_dict;
  serve->specs["uis"] = TextTenantSpec(inputs.uis);
  StatusOr<Batches> hosp = CutBatches(inputs.hosp);
  if (!hosp.ok()) return hosp.status();
  serve->hosp = std::move(hosp).value();
  StatusOr<Batches> uis = CutBatches(inputs.uis);
  if (!uis.ok()) return uis.status();
  serve->uis = std::move(uis).value();
  StatusOr<Reference> hosp_ref = Reference::Load(inputs.hosp.reference_csv);
  if (!hosp_ref.ok()) return hosp_ref.status();
  serve->hosp_reference.emplace(std::move(hosp_ref).value());
  StatusOr<Reference> uis_ref = Reference::Load(inputs.uis.reference_csv);
  if (!uis_ref.ok()) return uis_ref.status();
  serve->uis_reference.emplace(std::move(uis_ref).value());
  return serve;
}

StatusOr<std::unique_ptr<Server>> StartServer(const ServeInputs& serve,
                                              Tracer* tracer) {
  auto server = std::make_unique<Server>();
  server->registry = std::make_unique<fixrep::serve::TenantRegistry>();
  for (const char* tenant : kTenants) {
    Span load(tracer, "serve", "TenantRegistry::Load");
    const Status loaded =
        server->registry->Load(tenant, serve.specs.at(tenant));
    server->load_ms[tenant] = load.Stop();
    server->setup_ms += server->load_ms[tenant];
    if (!loaded.ok()) return loaded;
  }
  std::remove(serve.socket_path.c_str());
  fixrep::serve::DaemonOptions options;
  options.unix_socket_path = serve.socket_path;
  Span start(tracer, "serve", "RepairDaemon::Start");
  auto daemon =
      fixrep::serve::RepairDaemon::Start(server->registry.get(), options);
  server->setup_ms += start.Stop();
  if (!daemon.ok()) return daemon.status();
  server->daemon = std::move(daemon).value();
  return server;
}

LoopResult ClosedLoop(const ServeInputs& serve, double seconds,
                      Tracer* tracer) {
  const auto headers = fixrep::FormatRepairConfig(RepairConfig{});
  std::atomic<size_t> hosp_next{0};
  std::atomic<size_t> uis_next{0};
  std::atomic<uint64_t> request_ids{0};
  std::mutex mu;
  LoopResult total;
  total.hosp_digests.resize(serve.hosp.csv.size());
  const int64_t start = NowNs();
  total.start_ns = start;
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

  auto connection = [&](int conn) {
    LoopResult local;
    fixrep::serve::ClientOptions options;
    options.unix_socket_path = serve.socket_path;
    StatusOr<fixrep::serve::Client> client =
        fixrep::serve::Client::Connect(options);
    if (!client.ok()) {
      local.outcome.Count(client.status(), 0, "connect");
    }
    for (size_t i = 0; client.ok() && NowNs() < deadline; ++i) {
      if (conn == 0 && i > 0 && i % kReloadEvery == 0) {
        Span reload(tracer, "serve", "Client::Reload", ++request_ids);
        auto reloaded = client->Reload("uis", serve.specs.at("uis"));
        local.reload_ms.push_back(reload.Stop());
        local.outcome.Count(reloaded.status(), 0, "reload uis");
      }
      const std::string tenant = kTenants[(i + conn) % 3];
      const bool is_uis = tenant == "uis";
      const Batches& batches = is_uis ? serve.uis : serve.hosp;
      const size_t batch =
          (is_uis ? uis_next++ : hosp_next++) % batches.csv.size();
      Span submit(tracer, "serve", "Client::Submit", ++request_ids);
      auto result = client->Submit(tenant, headers, batches.csv[batch]);
      const double ms = submit.Stop();
      size_t mismatches = 0;
      if (result.ok()) {
        const Reference& ref =
            is_uis ? *serve.uis_reference : *serve.hosp_reference;
        OutputDigest digest;
        mismatches = ref.CheckCsv(result->csv, batch * kBatchRows,
                                  batches.rows[batch], &digest);
        if (!is_uis) {
          std::lock_guard<std::mutex> lock(mu);
          auto& seen = total.hosp_digests[batch];
          if (!seen.has_value()) seen = digest;
          if (!(*seen == digest)) ++mismatches;
        }
        if (mismatches == 0) local.rows += batches.rows[batch];
        local.submits.push_back(
            {NowNs(), ms,
             mismatches == 0 ? static_cast<double>(batches.rows[batch]) : 0});
      }
      local.outcome.Count(result.status(), mismatches, "submit " + tenant);
    }
    std::lock_guard<std::mutex> lock(mu);
    Outcome& out = total.outcome;
    out.correct = out.correct && local.outcome.correct;
    out.attempted += local.outcome.attempted;
    out.failed += local.outcome.failed;
    out.notes.insert(out.notes.end(), local.outcome.notes.begin(),
                     local.outcome.notes.end());
    total.submits.insert(total.submits.end(), local.submits.begin(),
                         local.submits.end());
    total.reload_ms.insert(total.reload_ms.end(), local.reload_ms.begin(),
                           local.reload_ms.end());
    total.rows += local.rows;
  };
  std::vector<std::thread> threads;
  for (int conn = 0; conn < kConnections; ++conn) {
    threads.emplace_back(connection, conn);
  }
  for (std::thread& t : threads) t.join();
  total.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return total;
}

}  // namespace perfbench
