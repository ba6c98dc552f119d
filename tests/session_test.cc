// RepairSession (repair/session.h): the unified facade must be
// bit-identical — repaired cells, reports, quarantine diagnostics, write
// log, AND published metrics — to calling the engine layer directly for
// every engine/threads/backend/error-policy combination it routes, in
// memory and streamed (chunked, and chunked under a memory budget). The
// ShardedRepair and
// ShardedSessionMatrix suites split a table into row ranges through one
// RepairDriver and hold every split to the same serial result.

#include <unistd.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "common/status.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/crepair.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/rule_index.h"
#include "repair/session.h"
#include "rulegen/rulegen.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using ::fixrep::testing::RandomRuleUniverse;

void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    ASSERT_EQ(got.row(r), want.row(r)) << context << " row " << r;
  }
}

// A budget caps the chunk size (ChunkRowsForBudget): a stream of `rows`
// takes ceil(rows / cap) chunks, and one chunk's cells stay within the
// budget rounded up to one RowStore block.
void ExpectBudgetGeometry(const RepairReport& report, size_t rows,
                          size_t arity, size_t chunk_rows, size_t budget,
                          const std::string& context) {
  const size_t cap = ChunkRowsForBudget(chunk_rows, budget, arity);
  EXPECT_EQ(report.chunks, testing::ChunksFor(rows, cap)) << context;
  if (budget > 0) {
    EXPECT_LE(report.peak_resident_bytes,
              testing::BudgetCeilingBytes(budget, arity))
        << context;
  }
}

// Counter snapshot of the repair-related metric namespaces, for
// facade-vs-engine delta comparison.
std::map<std::string, uint64_t> RepairCounters() {
  std::map<std::string, uint64_t> values;
  for (const char* name :
       {"fixrep.lrepair.tuples_examined", "fixrep.lrepair.tuples_changed",
        "fixrep.lrepair.cells_changed", "fixrep.lrepair.rule_applications",
        "fixrep.lrepair.index_builds", "fixrep.quarantine.tuples"}) {
    const Counter* c = MetricsRegistry::Global().FindCounter(name);
    values[name] = c == nullptr ? 0 : c->Value();
  }
  return values;
}

TEST(RepairSessionTest, DefaultConfigMatchesFastRepairer) {
  TravelExample example;
  Table direct = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&direct);

  Table via_session = example.dirty;
  RepairSession session(&example.rules);
  const StatusOr<RepairReport> report = session.Repair(&via_session);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ExpectSameRows(via_session, direct, "default config");
  EXPECT_EQ(report->rows, example.dirty.num_rows());
  EXPECT_EQ(report->cells_changed, repairer.stats().cells_changed);
  EXPECT_EQ(report->tuples_quarantined, 0u);
  ASSERT_NE(session.index(), nullptr);  // built once in the ctor
}

TEST(RepairSessionTest, CRepairEngineMatchesChaseRepairer) {
  TravelExample example;
  Table direct = example.dirty;
  ChaseRepairer chase(&example.rules);
  chase.RepairTable(&direct);

  Table via_session = example.dirty;
  RepairConfig config;
  config.engine = RepairEngine::kCRepair;
  RepairSession session(&example.rules, config);
  const StatusOr<RepairReport> report = session.Repair(&via_session);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ExpectSameRows(via_session, direct, "crepair");
  EXPECT_EQ(session.index(), nullptr);  // no lRepair index for the chase
}

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

void ExpectSameDiagnostics(const std::vector<Diagnostic>& got,
                           const std::vector<Diagnostic>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << context << " #" << i;
  }
}

struct Dataset {
  std::string name;
  std::shared_ptr<ValuePool> pool;
  Table dirty;
  RuleSet rules;
};

Dataset TravelDataset() {
  TravelExample example;
  return {"travel", example.pool, example.dirty, std::move(example.rules)};
}

Dataset HospDataset() {
  HospOptions options;
  options.rows = 6000;
  options.num_hospitals = 250;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 300;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {"hosp", data.pool, std::move(dirty), std::move(rules)};
}

Dataset UisDataset() {
  UisOptions options;
  options.rows = 300;
  options.duplicate_ratio = 0.4;
  options.num_zips = 30;
  GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {"uis", data.pool, std::move(dirty), std::move(rules)};
}

// What every route must reproduce: the serial kernel driven by hand.
// Lenient policies run with a one-pop chase budget so cascading tuples
// fail and exercise the diagnostic path.
struct Expected {
  Table table;
  size_t cells_changed = 0;
  std::vector<Diagnostic> failures;  // every failed tuple, row order
  std::vector<CellRepair> log;       // rows ascending, chase order
};

Expected DirectSerial(const Dataset& data, OnErrorPolicy policy) {
  Expected want{data.dirty, 0, {}, {}};
  FastRepairer repairer(&data.rules);
  repairer.set_write_log(&want.log);
  if (policy == OnErrorPolicy::kAbort) {
    repairer.RepairTable(&want.table);
  } else {
    repairer.set_max_chase_steps(1);
    for (size_t r = 0; r < want.table.num_rows(); ++r) {
      size_t changed = 0;
      repairer.set_write_log_row(r);
      const Status status =
          repairer.TryRepairTuple(want.table.WriteRow(r), &changed);
      if (status.ok()) continue;
      want.failures.push_back(Diagnostic{r, status.code(), status.message(),
                                         want.table.FormatRow(r)});
    }
  }
  want.cells_changed = repairer.stats().cells_changed;
  return want;
}

RepairConfig MatrixConfig(OnErrorPolicy policy, size_t threads,
                          const std::string& dict_path,
                          VectorQuarantineSink* sink) {
  RepairConfig config;
  config.threads = threads;
  config.on_error = policy;
  config.max_chase_steps = policy == OnErrorPolicy::kAbort ? 0 : 1;
  if (policy == OnErrorPolicy::kQuarantine) config.quarantine = sink;
  config.rules_dict = dict_path;  // empty = in-RAM index backend
  return config;
}

// The width matrix: datasets × error policy × threads × backend
// {in-RAM index, FXRDICT} × write log, in memory, then streamed chunked
// and under a memory budget. Every route must reproduce the direct
// serial run's rows, cell count, diagnostics (row order, whatever the
// worker interleaving) and write log (rows ascending, chase order within
// a row).
TEST(RepairSessionTest, ThreadedConfigsMatchSerialOnGeneratedData) {
  for (Dataset (*make)() : {TravelDataset, HospDataset, UisDataset}) {
    const Dataset data = make();
    ASSERT_GT(data.rules.size(), 0u) << data.name;
    const std::string dict_path =
        ::testing::TempDir() + "fixrep_session_" + data.name + ".frd";
    ASSERT_TRUE(CompileRuleDict(data.rules, dict_path).ok()) << data.name;
    const std::string dirty_csv = ToCsv(data.dirty);

    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      const Expected want = DirectSerial(data, policy);
      const std::vector<Diagnostic> want_diags =
          policy == OnErrorPolicy::kQuarantine ? want.failures
                                               : std::vector<Diagnostic>{};
      const std::string want_csv = ToCsv(want.table);
      for (const size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
        for (const bool dict_backed : {false, true}) {
          const std::string dict = dict_backed ? dict_path : "";
          const std::string context =
              data.name + " " + OnErrorPolicyName(policy) + " threads=" +
              std::to_string(threads) + (dict_backed ? " dict" : " index");
          for (const bool capture : {false, true}) {
            Table table = data.dirty;
            VectorQuarantineSink sink;
            std::vector<CellRepair> log;
            RepairSession session(
                &data.rules, MatrixConfig(policy, threads, dict, &sink));
            const StatusOr<RepairReport> report =
                session.Repair(&table, capture ? &log : nullptr);
            ASSERT_TRUE(report.ok()) << context << ": " << report.status();
            ExpectSameRows(table, want.table, context);
            EXPECT_EQ(report->cells_changed, want.cells_changed) << context;
            EXPECT_EQ(report->tuples_quarantined, want.failures.size())
                << context;
            ExpectSameDiagnostics(sink.diagnostics(), want_diags, context);
            EXPECT_EQ(log, capture ? want.log : std::vector<CellRepair>{})
                << context << " write log";
          }
          struct StreamMode {
            const char* tag;
            size_t chunk_rows;
            size_t memory_budget;
          };
          for (const StreamMode& mode :
               {StreamMode{"chunked", 97, 0},
                StreamMode{"budget", RepairConfig::kWholeFile, 16 * 1024}}) {
            std::istringstream in(dirty_csv);
            StatusOr<CsvChunkReader> reader =
                CsvChunkReader::Open(in, "stream", data.pool, {});
            ASSERT_TRUE(reader.ok()) << reader.status();
            VectorQuarantineSink sink;
            RepairConfig config = MatrixConfig(policy, threads, dict, &sink);
            config.chunk_rows = mode.chunk_rows;
            config.memory_budget_bytes = mode.memory_budget;
            RepairSession session(&data.rules, config);
            std::ostringstream out;
            const StatusOr<RepairReport> report =
                session.RepairStream(&reader.value(), out);
            const std::string stream_context = context + " " + mode.tag;
            ASSERT_TRUE(report.ok()) << stream_context << ": "
                                     << report.status();
            EXPECT_EQ(out.str(), want_csv) << stream_context;
            EXPECT_EQ(report->cells_changed, want.cells_changed)
                << stream_context;
            ExpectBudgetGeometry(report.value(), data.dirty.num_rows(),
                                 data.dirty.num_columns(), mode.chunk_rows,
                                 mode.memory_budget, stream_context);
            ExpectSameDiagnostics(sink.diagnostics(), want_diags,
                                  stream_context);
          }
        }
      }
    }
  }
}

TEST(RepairSessionTest, MetricsDeltasEqualDirectEngineCall) {
  // The acceptance bar for the facade: zero behavior change, observable
  // through identical metric deltas for the same work.
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  TravelExample example;
  auto& registry = MetricsRegistry::Global();

  registry.ResetAllForTest();
  Table direct = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&direct);
  const auto direct_counters = RepairCounters();

  registry.ResetAllForTest();
  Table via_session = example.dirty;
  RepairSession session(&example.rules);
  ASSERT_TRUE(session.Repair(&via_session).ok());
  const auto session_counters = RepairCounters();

  EXPECT_EQ(session_counters, direct_counters);
}

// Cascading rules (from the quarantine suite): (name = flag) tuples need
// two chase pops, so max_chase_steps = 1 fails exactly those tuples.
RuleSet CascadeRules(std::shared_ptr<const Schema> schema,
                     std::shared_ptr<ValuePool> pool) {
  const std::string text =
      "RULE\n"
      "  IF country = China\n"
      "  WRONG capital IN Shanghai | Hongkong\n"
      "  THEN capital = Beijing\n"
      "END\n"
      "RULE\n"
      "  IF name = flag\n"
      "  WRONG country IN Chn\n"
      "  THEN country = China\n"
      "END\n";
  return ParseRulesFromString(text, std::move(schema), std::move(pool));
}

class RepairSessionLenientTest : public ::testing::Test {
 protected:
  std::shared_ptr<ValuePool> pool_ = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema_ = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "name"});
  RuleSet rules_ = CascadeRules(schema_, pool_);

  Table MakeTable() {
    Table table(schema_, pool_);
    table.AppendRowStrings({"China", "Shanghai", "x"});
    table.AppendRowStrings({"Chn", "Shanghai", "flag"});  // budget fail
    table.AppendRowStrings({"France", "Paris", "y"});
    table.AppendRowStrings({"Chn", "Hongkong", "flag"});  // budget fail
    return table;
  }
};

TEST_F(RepairSessionLenientTest, QuarantineMatchesLenientEngine) {
  const CompiledRuleIndex index(&rules_);
  Table direct = MakeTable();
  VectorQuarantineSink direct_sink;
  const testing::DriveResult direct_result = testing::DriveTable(
      index, &direct,
      {.on_error = OnErrorPolicy::kQuarantine, .quarantine = &direct_sink,
       .max_chase_steps = 1});
  ASSERT_EQ(direct_result.outcome.tuples_quarantined, 2u);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    Table via_session = MakeTable();
    VectorQuarantineSink sink;
    RepairConfig config;
    config.threads = threads;
    config.on_error = OnErrorPolicy::kQuarantine;
    config.quarantine = &sink;
    config.max_chase_steps = 1;
    RepairSession session(&rules_, config);
    const StatusOr<RepairReport> report = session.Repair(&via_session);
    ASSERT_TRUE(report.ok());
    const std::string context = "threads=" + std::to_string(threads);
    ExpectSameRows(via_session, direct, context);
    EXPECT_EQ(report->tuples_quarantined, 2u) << context;
    ASSERT_EQ(sink.size(), direct_sink.size()) << context;
    for (size_t i = 0; i < sink.size(); ++i) {
      EXPECT_EQ(sink.diagnostics()[i].line,
                direct_sink.diagnostics()[i].line)
          << context;
      EXPECT_EQ(sink.diagnostics()[i].raw_text,
                direct_sink.diagnostics()[i].raw_text)
          << context;
    }
  }
}

TEST_F(RepairSessionLenientTest, CRepairLenientMatchesDirectChaseLoop) {
  // Serial lenient cRepair (the old CLI loop, now inside the facade)
  // must match driving ChaseRepairer::TryRepairTuple by hand. The chase
  // budget counts rule examinations, so 2 passes already-clean tuples
  // but trips every tuple that needs an application.
  const size_t kBudget = 2;
  Table direct = MakeTable();
  ChaseRepairer chase(&rules_);
  chase.set_max_chase_steps(kBudget);
  std::vector<size_t> failed;
  for (size_t r = 0; r < direct.num_rows(); ++r) {
    size_t cells = 0;
    if (!chase.TryRepairTuple(direct.WriteRow(r), &cells).ok()) {
      failed.push_back(r);
    }
  }
  ASSERT_GT(failed.size(), 0u);  // the budget must bite...
  ASSERT_LT(failed.size(), direct.num_rows());  // ...but not on everything

  Table via_session = MakeTable();
  VectorQuarantineSink sink;
  RepairConfig config;
  config.engine = RepairEngine::kCRepair;
  config.on_error = OnErrorPolicy::kQuarantine;
  config.quarantine = &sink;
  config.max_chase_steps = kBudget;
  RepairSession session(&rules_, config);
  const StatusOr<RepairReport> report = session.Repair(&via_session);
  ASSERT_TRUE(report.ok());
  ExpectSameRows(via_session, direct, "crepair lenient");
  EXPECT_EQ(report->tuples_quarantined, failed.size());
  ASSERT_EQ(sink.size(), failed.size());
  for (size_t i = 0; i < failed.size(); ++i) {
    EXPECT_EQ(sink.diagnostics()[i].line, failed[i]) << "diagnostic " << i;
  }
}

TEST(RepairSessionTest, RejectsUnroutableConfigs) {
  TravelExample example;
  {
    RepairConfig config;
    config.engine = RepairEngine::kCRepair;
    config.threads = 4;  // the chase is serial-only
    RepairSession session(&example.rules, config);
    Table table = example.dirty;
    const StatusOr<RepairReport> report = session.Repair(&table);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kMalformedInput);
  }
  {
    RepairConfig config;
    config.engine = RepairEngine::kCRepair;
    RepairSession session(&example.rules, config);
    std::istringstream in("a,b\n1,2\n");
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", std::make_shared<ValuePool>());
    ASSERT_TRUE(reader.ok());
    std::ostringstream out;
    const StatusOr<RepairReport> report =
        session.RepairStream(&reader.value(), out);
    ASSERT_FALSE(report.ok());  // streaming is lRepair-only
    EXPECT_EQ(report.status().code(), StatusCode::kMalformedInput);
  }
}

TEST(RepairSessionTest, StreamMatchesInMemoryRepairBytes) {
  TravelExample example;
  Table repaired = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&repaired);
  std::ostringstream want;
  WriteCsv(repaired, want);

  std::ostringstream dirty_csv;
  WriteCsv(example.dirty, dirty_csv);

  // Budget 1 is smaller than one row: 1-row chunks.
  for (const size_t budget : {size_t{0}, size_t{1}}) {
    const std::string context = "budget=" + std::to_string(budget);
    std::istringstream in(dirty_csv.str());
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", example.pool);
    ASSERT_TRUE(reader.ok());
    RepairConfig config;
    config.chunk_rows = 2;
    config.memory_budget_bytes = budget;
    RepairSession session(&example.rules, config);
    std::ostringstream out;
    const StatusOr<RepairReport> report =
        session.RepairStream(&reader.value(), out);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(out.str(), want.str()) << context;
    EXPECT_EQ(report->rows, example.dirty.num_rows());
    EXPECT_EQ(report->chunks,
              budget == 0 ? 2u : example.dirty.num_rows())
        << context;
    ExpectBudgetGeometry(report.value(), example.dirty.num_rows(),
                         example.dirty.num_columns(), config.chunk_rows,
                         budget, context);
  }
}

// ------------------------------------------------- row-range shards --
//
// A shard is a contiguous row range handed to RepairDriver::RepairRows.
// A table repaired as any number of ranges through one driver, serial or
// pooled, must match one serial pass: rows, counts, diagnostics in row
// order and the write log rows ascending.

// CTest runs each case in its own process, concurrently: the pid keeps
// one case's files from being rewritten under another.
std::string ShardTestPath(const std::string& name) {
  return ::testing::TempDir() + "fixrep_sharded_" + std::to_string(getpid()) +
         "_" + name;
}

// Repairs `table` as `shards` contiguous row ranges, in row order, through
// one driver; returns the summed range outcomes.
RangeOutcome RepairInShards(RepairDriver* driver, Table* table,
                            size_t shards) {
  RangeOutcome total;
  const size_t rows = table->num_rows();
  for (size_t s = 0; s < shards; ++s) {
    const RangeOutcome part = driver->RepairRows(
        table, rows * s / shards, rows * (s + 1) / shards);
    total.cells_changed += part.cells_changed;
    total.tuples_quarantined += part.tuples_quarantined;
  }
  return total;
}

StatusOr<std::unique_ptr<RuleDict>> OpenBoundDict(
    const std::string& path, const Schema& schema,
    std::shared_ptr<ValuePool> pool) {
  StatusOr<std::unique_ptr<RuleDict>> dict = RuleDict::Open(path);
  if (!dict.ok()) return dict;
  FIXREP_RETURN_IF_ERROR((*dict)->Bind(schema, std::move(pool)));
  return dict;
}

TEST(ShardedRepair, ByteIdenticalToSerialAcrossShardCounts) {
  Rng rng(0x5a4d);
  for (int trial = 0; trial < 8; ++trial) {
    RandomRuleUniverse universe;
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(10);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    const CompiledRuleIndex index(&rules);

    Table base(universe.schema, universe.pool);
    for (int r = 0; r < 120; ++r) base.AppendRow(universe.RandomTuple(&rng));

    // Random universes can hold conflicting rules, so the reference runs
    // in lenient (skip) mode — every split must agree anyway.
    Table expected = base;
    size_t expected_quarantined = 0;
    {
      FastRepairer serial(&rules);
      for (size_t r = 0; r < expected.num_rows(); ++r) {
        size_t changed = 0;
        if (!serial.TryRepairTuple(expected.WriteRow(r), &changed).ok()) {
          ++expected_quarantined;
        }
      }
    }

    for (const size_t shards : {size_t{1}, size_t{2}, size_t{5}}) {
      for (const size_t threads : {size_t{1}, size_t{3}}) {
        Table actual = base;
        RepairDriverOptions options;
        options.threads = threads;
        options.on_error = OnErrorPolicy::kSkip;
        RepairDriver driver(index, options);
        const RangeOutcome outcome = RepairInShards(&driver, &actual, shards);
        const std::string context =
            "trial " + std::to_string(trial) + " shards " +
            std::to_string(shards) + " threads " + std::to_string(threads);
        ExpectSameRows(actual, expected, context);
        EXPECT_EQ(outcome.tuples_quarantined, expected_quarantined) << context;
      }
    }
  }
}

TEST(ShardedRepair, LenientDiagnosticsAndWriteLogMatchSerial) {
  auto pool = std::make_shared<ValuePool>();
  auto schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "name"});
  Dataset data{"cascade", pool, Table(schema, pool), CascadeRules(schema, pool)};
  const CompiledRuleIndex index(&data.rules);
  for (int i = 0; i < 40; ++i) {
    data.dirty.AppendRowStrings({"China", "Shanghai", "x" + std::to_string(i)});
    data.dirty.AppendRowStrings({"Chn", "Hongkong", "flag"});
    data.dirty.AppendRowStrings({"France", "Paris", "y" + std::to_string(i)});
  }
  const Expected want = DirectSerial(data, OnErrorPolicy::kQuarantine);
  ASSERT_FALSE(want.failures.empty());
  ASSERT_FALSE(want.log.empty());

  for (const size_t shards : {size_t{2}, size_t{3}, size_t{7}}) {
    Table actual = data.dirty;
    VectorQuarantineSink sink;
    std::vector<CellRepair> log;
    RepairDriverOptions options;
    options.threads = 3;
    options.on_error = OnErrorPolicy::kQuarantine;
    options.quarantine = &sink;
    options.max_chase_steps = 1;
    options.write_log = &log;
    RepairDriver driver(index, options);
    const RangeOutcome outcome = RepairInShards(&driver, &actual, shards);
    const std::string context = "shards " + std::to_string(shards);
    ExpectSameRows(actual, want.table, context);
    EXPECT_EQ(outcome.cells_changed, want.cells_changed) << context;
    EXPECT_EQ(outcome.tuples_quarantined, want.failures.size()) << context;
    ExpectSameDiagnostics(sink.diagnostics(), want.failures, context);
    EXPECT_EQ(log, want.log) << context << " write log";
  }
}

TEST(ShardedRepair, DictionaryBackendMatchesIndexBackend) {
  Rng rng(0xd1c7);
  RandomRuleUniverse universe;
  RuleSet rules(universe.schema, universe.pool);
  for (size_t i = 0; i < 9; ++i) rules.Add(universe.RandomRule(&rng));
  const CompiledRuleIndex index(&rules);

  const std::string path = ShardTestPath("engine_dict.frd");
  ASSERT_TRUE(CompileRuleDict(rules, path).ok());
  auto dict = OpenBoundDict(path, *universe.schema, universe.pool);
  ASSERT_TRUE(dict.ok()) << dict.status();

  Table base(universe.schema, universe.pool);
  for (int r = 0; r < 200; ++r) base.AppendRow(universe.RandomTuple(&rng));

  // Random universes can hold conflicting rules: both backends run in
  // lenient (skip) mode.
  RepairDriverOptions options;
  options.threads = 3;
  options.on_error = OnErrorPolicy::kSkip;

  Table via_index = base;
  Table via_dict = base;
  RepairDriver index_driver(index, options);
  RepairDriver dict_driver(**dict, options);
  const RangeOutcome index_outcome =
      RepairInShards(&index_driver, &via_index, 4);
  const RangeOutcome dict_outcome = RepairInShards(&dict_driver, &via_dict, 4);
  ExpectSameRows(via_dict, via_index, "dict vs index");
  EXPECT_EQ(dict_outcome.cells_changed, index_outcome.cells_changed);
  EXPECT_EQ(dict_driver.stats().per_rule_applications,
            index_driver.stats().per_rule_applications);
  EXPECT_EQ(dict_outcome.tuples_quarantined, index_outcome.tuples_quarantined);
}

// Datasets × error policy × backend {index, FXRDICT} × shard count ×
// threads, through one driver per run, against the direct serial run.
TEST(ShardedSessionMatrix, DictAndShardsByteIdenticalAcrossDatasets) {
  for (Dataset (*make)() : {TravelDataset, HospDataset, UisDataset}) {
    const Dataset data = make();
    ASSERT_GT(data.rules.size(), 0u) << data.name;
    const std::string dict_path = ShardTestPath(data.name + "_matrix.frd");
    ASSERT_TRUE(CompileRuleDict(data.rules, dict_path).ok()) << data.name;
    const CompiledRuleIndex index(&data.rules);
    auto dict = OpenBoundDict(dict_path, data.dirty.schema(), data.pool);
    ASSERT_TRUE(dict.ok()) << data.name << ": " << dict.status();

    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      const Expected want = DirectSerial(data, policy);
      const std::vector<Diagnostic> want_diags =
          policy == OnErrorPolicy::kQuarantine ? want.failures
                                               : std::vector<Diagnostic>{};
      for (const bool dict_backed : {false, true}) {
        const RuleRepository& repo =
            dict_backed ? static_cast<const RuleRepository&>(**dict) : index;
        for (const size_t shards : {size_t{1}, size_t{3}, size_t{7}}) {
          for (const size_t threads : {size_t{1}, size_t{4}}) {
            const std::string context =
                data.name + " " + OnErrorPolicyName(policy) + " shards=" +
                std::to_string(shards) + " threads=" +
                std::to_string(threads) + (dict_backed ? " dict" : " index");
            Table table = data.dirty;
            VectorQuarantineSink sink;
            std::vector<CellRepair> log;
            RepairDriverOptions options;
            options.threads = threads;
            options.on_error = policy;
            options.max_chase_steps =
                policy == OnErrorPolicy::kAbort ? 0 : 1;
            if (policy == OnErrorPolicy::kQuarantine) {
              options.quarantine = &sink;
            }
            options.write_log = &log;
            RepairDriver driver(repo, options);
            const RangeOutcome outcome =
                RepairInShards(&driver, &table, shards);
            ExpectSameRows(table, want.table, context);
            EXPECT_EQ(outcome.cells_changed, want.cells_changed) << context;
            EXPECT_EQ(outcome.tuples_quarantined, want.failures.size())
                << context;
            ExpectSameDiagnostics(sink.diagnostics(), want_diags, context);
            EXPECT_EQ(log, want.log) << context << " write log";
          }
        }
      }
    }
  }
}

// Streams cut into chunks of several sizes, set directly or by a memory
// budget — each chunk a row range handed to the session's driver —
// across both backends and widths, byte-identical to the direct serial
// run.
TEST(ShardedSessionMatrix, StreamAndSpillByteIdenticalAcrossBackends) {
  for (Dataset (*make)() : {TravelDataset, HospDataset, UisDataset}) {
    const Dataset data = make();
    ASSERT_GT(data.rules.size(), 0u) << data.name;
    const std::string dict_path = ShardTestPath(data.name + "_stream.frd");
    ASSERT_TRUE(CompileRuleDict(data.rules, dict_path).ok()) << data.name;
    const std::string dirty_csv = ToCsv(data.dirty);

    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kQuarantine}) {
      const Expected want = DirectSerial(data, policy);
      const std::string want_csv = ToCsv(want.table);
      struct StreamMode {
        const char* tag;
        size_t chunk_rows;
        size_t memory_budget;
      };
      for (const StreamMode& mode :
           {StreamMode{"chunked_7", 7, 0}, StreamMode{"chunked_500", 500, 0},
            StreamMode{"budget_4k", RepairConfig::kWholeFile, 4 * 1024},
            StreamMode{"budget_64k", RepairConfig::kWholeFile, 64 * 1024}}) {
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          for (const bool dict_backed : {false, true}) {
            const std::string context =
                data.name + " " + OnErrorPolicyName(policy) + " " + mode.tag +
                " threads=" + std::to_string(threads) +
                (dict_backed ? " dict" : " index");
            std::istringstream in(dirty_csv);
            StatusOr<CsvChunkReader> reader =
                CsvChunkReader::Open(in, "stream", data.pool, {});
            ASSERT_TRUE(reader.ok()) << reader.status();
            VectorQuarantineSink sink;
            RepairConfig config = MatrixConfig(
                policy, threads, dict_backed ? dict_path : "", &sink);
            config.chunk_rows = mode.chunk_rows;
            config.memory_budget_bytes = mode.memory_budget;
            RepairSession session(&data.rules, config);
            std::ostringstream out;
            const StatusOr<RepairReport> report =
                session.RepairStream(&reader.value(), out);
            ASSERT_TRUE(report.ok()) << context << ": " << report.status();
            EXPECT_EQ(out.str(), want_csv) << context;
            EXPECT_EQ(report->tuples_quarantined, want.failures.size())
                << context;
            ExpectBudgetGeometry(report.value(), data.dirty.num_rows(),
                                 data.dirty.num_columns(), mode.chunk_rows,
                                 mode.memory_budget, context);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fixrep
