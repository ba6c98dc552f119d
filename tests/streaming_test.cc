// The chunked streaming repair pipeline (repair/streaming.h): for every
// chunk size, engine width, and error policy, the streamed output —
// repaired CSV bytes AND quarantine diagnostics — is bit-identical to
// repairing the whole table in memory and writing it out.

#include <cstdio>
#include <fstream>
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
#include "relation/row_store.h"
#include "relation/table.h"
#include "repair/lrepair.h"
#include "repair/recovery.h"
#include "repair/rule_index.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/rulegen.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

uint64_t CounterValue(const char* name) {
  const Counter* counter = MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->Value();
}

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

// One end-to-end streaming run over CSV text: reader -> session -> string.
struct StreamRun {
  std::string csv;
  StreamingRepairResult result;
  std::vector<Diagnostic> tuple_diagnostics;  // failed repairs
  std::vector<Diagnostic> row_diagnostics;    // malformed CSV records
};

struct StreamConfig {
  size_t chunk_rows = 1;
  size_t threads = 1;
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  size_t max_chase_steps = 0;
  OnErrorPolicy csv_policy = OnErrorPolicy::kAbort;
  // > 0: run through RepairSession, where the budget caps chunk_rows.
  size_t memory_budget_bytes = 0;
};

StatusOr<StreamRun> RunStream(const std::string& csv_text,
                              std::shared_ptr<ValuePool> pool,
                              const CompiledRuleIndex& index,
                              const StreamConfig& config) {
  VectorQuarantineSink tuple_sink;
  VectorQuarantineSink row_sink;
  CsvReadOptions csv_options;
  csv_options.on_error = config.csv_policy;
  if (config.csv_policy == OnErrorPolicy::kQuarantine) {
    csv_options.quarantine = &row_sink;
  }
  std::istringstream in(csv_text);
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "stream", std::move(pool), csv_options);
  if (!reader.ok()) return reader.status();

  StreamRun run;
  std::ostringstream out;
  if (config.memory_budget_bytes > 0) {
    RepairConfig repair;
    repair.chunk_rows = config.chunk_rows;
    repair.memory_budget_bytes = config.memory_budget_bytes;
    repair.threads = config.threads;
    repair.on_error = config.on_error;
    if (config.on_error == OnErrorPolicy::kQuarantine) {
      repair.quarantine = &tuple_sink;
    }
    repair.max_chase_steps = config.max_chase_steps;
    RepairSession session(&index, repair);
    StatusOr<RepairReport> report =
        session.RepairStream(&reader.value(), out);
    if (!report.ok()) return report.status();
    run.result.rows_emitted = report->rows;
    run.result.chunks = report->chunks;
    run.result.cells_changed = report->cells_changed;
    run.result.tuples_quarantined = report->tuples_quarantined;
    run.result.peak_resident_bytes = report->peak_resident_bytes;
  } else {
    StreamingRepairOptions options;
    options.chunk_rows = config.chunk_rows;
    options.repair.threads = config.threads;
    options.repair.on_error = config.on_error;
    if (config.on_error == OnErrorPolicy::kQuarantine) {
      options.repair.quarantine = &tuple_sink;
    }
    options.repair.max_chase_steps = config.max_chase_steps;
    StreamingRepairSession session(&index, options);
    StatusOr<StreamingRepairResult> result =
        session.Run(&reader.value(), out);
    if (!result.ok()) return result.status();
    run.result = result.value();
  }
  run.csv = out.str();
  run.tuple_diagnostics = tuple_sink.diagnostics();
  run.row_diagnostics = row_sink.diagnostics();
  return run;
}

void ExpectSameDiagnostics(const std::vector<Diagnostic>& got,
                           const std::vector<Diagnostic>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].line) << context << " #" << i;
    EXPECT_EQ(got[i].code, want[i].code) << context << " #" << i;
    EXPECT_EQ(got[i].message, want[i].message) << context << " #" << i;
    EXPECT_EQ(got[i].raw_text, want[i].raw_text) << context << " #" << i;
  }
}

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetAllForTest(); }
};

// ------------------------------------------------------ running example --

TEST_F(StreamingTest, TravelExampleStreamsToTheCleanInstance) {
  TravelExample example;
  const CompiledRuleIndex index(&example.rules);
  const std::string dirty_csv = ToCsv(example.dirty);
  const std::string want = ToCsv(example.clean);
  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{100}}) {
    const StatusOr<StreamRun> run = RunStream(
        dirty_csv, example.pool, index, {.chunk_rows = chunk_rows});
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->csv, want) << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(run->result.rows_emitted, example.dirty.num_rows());
    EXPECT_TRUE(run->tuple_diagnostics.empty());
  }
}

TEST_F(StreamingTest, EmptyInputEmitsHeaderOnly) {
  TravelExample example;
  const CompiledRuleIndex index(&example.rules);
  Table empty(example.schema, example.pool);
  const StatusOr<StreamRun> run =
      RunStream(ToCsv(empty), example.pool, index, {.chunk_rows = 4});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->csv, ToCsv(empty));
  EXPECT_EQ(run->result.rows_emitted, 0u);
  EXPECT_EQ(run->result.chunks, 0u);
}

TEST_F(StreamingTest, ArityMismatchWithRulesIsMalformedInput) {
  TravelExample example;  // 5-attribute rules
  const CompiledRuleIndex index(&example.rules);
  const StatusOr<StreamRun> run =
      RunStream("a,b\n1,2\n", example.pool, index, {.chunk_rows = 1});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kMalformedInput);
}

// ------------------------------------------------------- random universe --

// Property: for random rule sets and random tables, chunked streaming at
// every chunk size — serial or pooled — emits exactly the bytes a
// whole-table serial repair would write.
TEST_F(StreamingTest, ChunkedRepairBitIdenticalToWholeTableSerial) {
  testing::RandomRuleUniverse universe;
  Rng rng(20260806);
  for (int round = 0; round < 10; ++round) {
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(12);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    Table table(universe.schema, universe.pool);
    const size_t num_rows = 1 + rng.Uniform(300);
    for (size_t r = 0; r < num_rows; ++r) {
      table.AppendRow(universe.RandomTuple(&rng));
    }
    const std::string input_csv = ToCsv(table);

    Table reference = table;
    FastRepairer repairer(&rules);
    repairer.RepairTable(&reference);
    const std::string want = ToCsv(reference);

    const CompiledRuleIndex index(&rules);
    for (const size_t chunk_rows :
         {size_t{1}, size_t{7}, size_t{1024}, num_rows}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const StatusOr<StreamRun> run =
            RunStream(input_csv, universe.pool, index,
                      {.chunk_rows = chunk_rows, .threads = threads});
        ASSERT_TRUE(run.ok()) << run.status().message();
        ASSERT_EQ(run->csv, want) << "round=" << round
                                  << " chunk_rows=" << chunk_rows
                                  << " threads=" << threads;
        EXPECT_EQ(run->result.rows_emitted, num_rows);
      }
    }
  }
}

// ---------------------------------------------------- generated datasets --

// Shared shape of the hosp/uis checks: corrupt a generated clean table,
// learn rules from the (clean, dirty) pair, and require streaming at
// every chunk size to reproduce the whole-table repair byte for byte.
void ExpectStreamingMatchesWholeTable(const GeneratedData& data,
                                      const Table& dirty,
                                      const RuleSet& rules) {
  const std::string input_csv = ToCsv(dirty);
  Table reference = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&reference);
  const std::string want = ToCsv(reference);
  EXPECT_NE(want, input_csv) << "noise should leave something to repair";

  const CompiledRuleIndex index(&rules);
  for (const size_t chunk_rows :
       {size_t{1}, size_t{7}, size_t{1024}, dirty.num_rows()}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const StatusOr<StreamRun> run =
          RunStream(input_csv, data.pool, index,
                    {.chunk_rows = chunk_rows, .threads = threads});
      ASSERT_TRUE(run.ok()) << run.status().message();
      ASSERT_EQ(run->csv, want) << "chunk_rows=" << chunk_rows
                                << " threads=" << threads;
      EXPECT_EQ(run->result.rows_emitted, dirty.num_rows());
    }
  }
}

TEST_F(StreamingTest, HospGeneratedDataStreamsBitIdentically) {
  HospOptions options;
  options.rows = 800;
  options.num_hospitals = 60;
  options.num_measures = 8;
  const GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 200;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ASSERT_GT(rules.size(), 0u);
  ExpectStreamingMatchesWholeTable(data, dirty, rules);
}

TEST_F(StreamingTest, UisGeneratedDataStreamsBitIdentically) {
  UisOptions options;
  options.rows = 600;
  options.duplicate_ratio = 0.4;  // repeated people so rules have support
  options.num_zips = 40;
  const GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ASSERT_GT(rules.size(), 0u);
  ExpectStreamingMatchesWholeTable(data, dirty, rules);
}

// ---------------------------------------------------- quarantine ordering --

// Cascading pair from the quarantine suite: (name = flag) tuples need two
// chase pops, so max_chase_steps = 1 makes exactly those tuples fail.
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

class StreamingQuarantineTest : public StreamingTest {
 protected:
  std::shared_ptr<ValuePool> pool_ = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema_ = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "name"});
  RuleSet rules_ = CascadeRules(schema_, pool_);

  Table MakeTable(const std::vector<std::vector<std::string>>& rows) {
    Table table(schema_, pool_);
    for (const auto& row : rows) table.AppendRowStrings(row);
    return table;
  }
};

// Failing tuples land on both sides of every chunk boundary; the streamed
// diagnostics must still carry whole-table row indices, in row order,
// with the same messages and preserved raw values as an in-memory run.
TEST_F(StreamingQuarantineTest, DiagnosticsMatchWholeTableLenientRepair) {
  Table table = MakeTable({
      {"China", "Shanghai", "x"},   // one pop: fine under budget 1
      {"Chn", "Shanghai", "flag"},  // cascade: budget-exhausted
      {"France", "Paris", "y"},
      {"Chn", "Hongkong", "flag"},  // cascade: budget-exhausted
      {"China", "Hongkong", "z"},   // one pop: fine
      {"Chn", "Shanghai", "flag"},  // cascade: budget-exhausted
  });
  const std::string input_csv = ToCsv(table);
  const CompiledRuleIndex index(&rules_);

  Table reference = table;
  VectorQuarantineSink reference_sink;
  const testing::DriveResult reference_result = testing::DriveTable(
      index, &reference,
      {.on_error = OnErrorPolicy::kQuarantine, .quarantine = &reference_sink,
       .max_chase_steps = 1});
  ASSERT_EQ(reference_result.outcome.tuples_quarantined, 3u);
  const std::string want = ToCsv(reference);

  for (const size_t chunk_rows :
       {size_t{1}, size_t{2}, size_t{3}, size_t{6}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string context = "chunk_rows=" + std::to_string(chunk_rows) +
                                  " threads=" + std::to_string(threads);
      const StatusOr<StreamRun> run =
          RunStream(input_csv, pool_, index,
                    {.chunk_rows = chunk_rows,
                     .threads = threads,
                     .on_error = OnErrorPolicy::kQuarantine,
                     .max_chase_steps = 1});
      ASSERT_TRUE(run.ok()) << run.status().message();
      EXPECT_EQ(run->csv, want) << context;
      EXPECT_EQ(run->result.tuples_quarantined, 3u) << context;
      ExpectSameDiagnostics(run->tuple_diagnostics,
                            reference_sink.diagnostics(), context);
    }
  }
}

TEST_F(StreamingQuarantineTest, SkipModeDropsFixesButKeepsRowsAndBytes) {
  Table table = MakeTable({
      {"Chn", "Shanghai", "flag"},
      {"China", "Shanghai", "x"},
  });
  const CompiledRuleIndex index(&rules_);
  const StatusOr<StreamRun> run =
      RunStream(ToCsv(table), pool_, index,
                {.chunk_rows = 1,
                 .on_error = OnErrorPolicy::kSkip,
                 .max_chase_steps = 1});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->result.tuples_quarantined, 1u);
  EXPECT_TRUE(run->tuple_diagnostics.empty());  // skip: no sink traffic
  // Failed tuple preserved verbatim, clean tuple repaired.
  EXPECT_EQ(run->csv,
            "country,capital,name\nChn,Shanghai,flag\nChina,Beijing,x\n");
}

// Malformed CSV records and failing tuples in one stream: record
// diagnostics carry input ordinals, tuple diagnostics carry output-row
// indices, and both match the non-streaming lenient pipeline exactly.
TEST_F(StreamingQuarantineTest, MalformedRecordsKeepGlobalOrdinals) {
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,x\n"         // record 0 -> output row 0
      "bad,row,with,too,many\n"    // record 1: arity mismatch
      "Chn,Shanghai,flag\n"        // record 2 -> output row 1, budget fail
      "France,Paris\n"             // record 3: arity mismatch
      "France,Paris,y\n";          // record 4 -> output row 2

  // Non-streaming reference: lenient read, then lenient whole-table
  // repair.
  VectorQuarantineSink reference_rows;
  CsvReadOptions read_options;
  read_options.on_error = OnErrorPolicy::kQuarantine;
  read_options.quarantine = &reference_rows;
  std::istringstream in(input_csv);
  StatusOr<Table> reference = ReadCsvLenient(in, "R", pool_, read_options);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->num_rows(), 3u);
  const CompiledRuleIndex index(&rules_);
  VectorQuarantineSink reference_tuples;
  testing::DriveTable(
      index, &reference.value(),
      {.on_error = OnErrorPolicy::kQuarantine, .quarantine = &reference_tuples,
       .max_chase_steps = 1});
  const std::string want = ToCsv(reference.value());

  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{10}}) {
    MetricsRegistry::Global().ResetAllForTest();
    const std::string context = "chunk_rows=" + std::to_string(chunk_rows);
    const StatusOr<StreamRun> run =
        RunStream(input_csv, pool_, index,
                  {.chunk_rows = chunk_rows,
                   .on_error = OnErrorPolicy::kQuarantine,
                   .max_chase_steps = 1,
                   .csv_policy = OnErrorPolicy::kQuarantine});
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->csv, want) << context;
    ExpectSameDiagnostics(run->row_diagnostics,
                          reference_rows.diagnostics(), context);
    ExpectSameDiagnostics(run->tuple_diagnostics,
                          reference_tuples.diagnostics(), context);
    ASSERT_EQ(run->row_diagnostics.size(), 2u);
    EXPECT_EQ(run->row_diagnostics[0].line, 1u);  // input record ordinal
    EXPECT_EQ(run->row_diagnostics[1].line, 3u);
    ASSERT_EQ(run->tuple_diagnostics.size(), 1u);
    EXPECT_EQ(run->tuple_diagnostics[0].line, 1u);  // output-row index
    EXPECT_EQ(CounterValue("fixrep.quarantine.rows"), 2u) << context;
    EXPECT_EQ(CounterValue("fixrep.quarantine.tuples"), 1u) << context;
  }
}

TEST_F(StreamingQuarantineTest, StreamingCountersTickPerChunkAndRow) {
  Table table = MakeTable({
      {"China", "Shanghai", "a"},
      {"China", "Shanghai", "b"},
      {"China", "Shanghai", "c"},
      {"China", "Shanghai", "d"},
      {"China", "Shanghai", "e"},
  });
  const CompiledRuleIndex index(&rules_);
  const StatusOr<StreamRun> run =
      RunStream(ToCsv(table), pool_, index, {.chunk_rows = 2});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->result.chunks, 3u);  // 2 + 2 + 1
  EXPECT_EQ(run->result.rows_emitted, 5u);
  EXPECT_EQ(run->result.cells_changed, 5u);
  EXPECT_EQ(CounterValue("fixrep.streaming.chunks"), 3u);
  EXPECT_EQ(CounterValue("fixrep.streaming.rows"), 5u);
}

// The input-progress gauge reports bytes consumed, not read ahead: after
// the run it equals the input file's size, also when the file ends in
// records dropped after a full chunk.
TEST_F(StreamingQuarantineTest, FinalInputProgressEqualsFileSize) {
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,x\n"
      "China,Beijing,y\n"
      "France,Paris,z\n"
      "China,Hongkong,w\n"
      "bad,row,with,too,many\n"
      "France,Paris\n";
  const std::string path =
      ::testing::TempDir() + "/streaming_progress_input.csv";
  {
    std::ofstream file(path, std::ios::binary);
    file << input_csv;
  }
  const CompiledRuleIndex index(&rules_);
  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{4}}) {
    MetricsRegistry::Global().ResetAllForTest();
    const std::string context = "chunk_rows=" + std::to_string(chunk_rows);
    std::ifstream in(path, std::ios::binary);
    CsvReadOptions csv_options;
    csv_options.on_error = OnErrorPolicy::kSkip;
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "R", pool_, csv_options);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    StreamingRepairOptions options;
    options.chunk_rows = chunk_rows;
    StreamingRepairSession session(&index, options);
    std::ostringstream out;
    ASSERT_TRUE(session.Run(&reader.value(), out).ok()) << context;
    const Gauge* gauge =
        MetricsRegistry::Global().FindGauge("fixrep.progress.input_bytes_read");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->Value(), static_cast<int64_t>(input_csv.size()))
        << context;
  }
  std::remove(path.c_str());
}

// ------------------------------------------- memory budget (chunk cap) --

// A memory budget caps the chunk size at budget / (arity * 4 bytes) rows,
// at least 1 (ChunkRowsForBudget, applied by RepairSession::RepairStream).
// Output is the same for every chunk size, so the budget changes how
// many chunks a run takes and how many cell bytes one chunk holds —
// never a byte of output.

size_t RowBytes(size_t arity) { return arity * sizeof(ValueId); }

size_t BlockBytes(size_t arity) {
  return RowStore::kRowsPerBlock * RowBytes(arity);
}

using testing::BudgetCeilingBytes;
using testing::ChunksFor;

// Property: with the whole input as the requested chunk, every budget —
// two rows, a thousand rows, a few blocks, none — emits exactly the
// bytes of an in-memory run, serial and pooled, in ceil(rows / cap)
// chunks whose cells fit the budget.
void ExpectBudgetConfigsMatch(const std::string& input_csv,
                              std::shared_ptr<ValuePool> pool,
                              const CompiledRuleIndex& index,
                              const std::string& want, size_t num_rows) {
  const size_t arity = index.arity();
  const size_t row_bytes = RowBytes(arity);
  for (const size_t budget : {2 * row_bytes + 1, 1000 * row_bytes + 5,
                              4 * BlockBytes(arity), size_t{0}}) {
    const size_t cap = budget == 0 ? num_rows : budget / row_bytes;
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string context = "budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
      const StatusOr<StreamRun> run =
          RunStream(input_csv, pool, index,
                    {.chunk_rows = RepairConfig::kWholeFile,
                     .threads = threads,
                     .memory_budget_bytes = budget});
      ASSERT_TRUE(run.ok()) << context << ": " << run.status().message();
      ASSERT_EQ(run->csv, want) << context;
      EXPECT_EQ(run->result.rows_emitted, num_rows) << context;
      EXPECT_EQ(run->result.chunks, ChunksFor(num_rows, cap)) << context;
      if (budget > 0) {
        EXPECT_LE(run->result.peak_resident_bytes,
                  BudgetCeilingBytes(budget, arity))
            << context;
      }
    }
  }
}

TEST_F(StreamingTest, SpillBudgetsBitIdenticalOnTravelExample) {
  TravelExample example;
  const CompiledRuleIndex index(&example.rules);
  ExpectBudgetConfigsMatch(ToCsv(example.dirty), example.pool, index,
                           ToCsv(example.clean), example.dirty.num_rows());
}

TEST_F(StreamingTest, SpillBudgetsBitIdenticalOnGeneratedHosp) {
  // Over four blocks of rows: the block-sized budget leaves a partial
  // tail chunk.
  HospOptions options;
  options.rows = 4 * RowStore::kRowsPerBlock + 1500;
  options.num_hospitals = 120;
  const GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 150;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ASSERT_GT(rules.size(), 0u);

  Table reference = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&reference);
  const CompiledRuleIndex index(&rules);
  ExpectBudgetConfigsMatch(ToCsv(dirty), data.pool, index, ToCsv(reference),
                           dirty.num_rows());
}

TEST_F(StreamingTest, SpillBudgetsBitIdenticalOnGeneratedUis) {
  UisOptions options;
  options.rows = 600;
  options.duplicate_ratio = 0.4;
  options.num_zips = 40;
  const GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ASSERT_GT(rules.size(), 0u);

  Table reference = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&reference);
  const CompiledRuleIndex index(&rules);
  ExpectBudgetConfigsMatch(ToCsv(dirty), data.pool, index, ToCsv(reference),
                           dirty.num_rows());
}

// Rows of three shapes: repaired in one pop, untouched, and a cascade
// that fails under max_chase_steps = 1.
Table PatternTable(std::shared_ptr<const Schema> schema,
                   std::shared_ptr<ValuePool> pool, size_t rows) {
  Table table(std::move(schema), std::move(pool));
  for (size_t r = 0; r < rows; ++r) {
    switch (r % 5) {
      case 0:
        table.AppendRowStrings({"China", "Shanghai", "x"});
        break;
      case 3:
        table.AppendRowStrings({"Chn", "Hongkong", "flag"});
        break;
      default:
        table.AppendRowStrings({"France", "Paris", "y"});
        break;
    }
  }
  return table;
}

// Budget-capped chunks under the lenient driver: quarantine diagnostics
// and bytes still match the in-memory lenient run, with failing tuples
// scattered across chunk boundaries.
TEST_F(StreamingQuarantineTest, SpillWithQuarantineMatchesInMemory) {
  const size_t rows = 2 * RowStore::kRowsPerBlock + 700;
  const Table table = PatternTable(schema_, pool_, rows);
  const std::string input_csv = ToCsv(table);
  const CompiledRuleIndex index(&rules_);

  Table reference = table;
  VectorQuarantineSink reference_sink;
  const testing::DriveResult reference_result = testing::DriveTable(
      index, &reference,
      {.on_error = OnErrorPolicy::kQuarantine, .quarantine = &reference_sink,
       .max_chase_steps = 1});
  ASSERT_GT(reference_result.outcome.tuples_quarantined, 0u);
  const std::string want = ToCsv(reference);

  const size_t arity = index.arity();
  const size_t budget = 1000 * RowBytes(arity) + 5;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const std::string context = "threads=" + std::to_string(threads);
    const StatusOr<StreamRun> run =
        RunStream(input_csv, pool_, index,
                  {.chunk_rows = RepairConfig::kWholeFile,
                   .threads = threads,
                   .on_error = OnErrorPolicy::kQuarantine,
                   .max_chase_steps = 1,
                   .memory_budget_bytes = budget});
    ASSERT_TRUE(run.ok()) << context << ": " << run.status().message();
    ASSERT_EQ(run->csv, want) << context;
    EXPECT_EQ(run->result.chunks, ChunksFor(rows, 1000)) << context;
    EXPECT_LE(run->result.peak_resident_bytes,
              BudgetCeilingBytes(budget, arity))
        << context;
    EXPECT_EQ(run->result.tuples_quarantined,
              reference_result.outcome.tuples_quarantined)
        << context;
    ExpectSameDiagnostics(run->tuple_diagnostics,
                          reference_sink.diagnostics(), context);
  }
}

// The chunk cap in isolation, and through RepairSession on the pattern
// table.
class SpillTest : public StreamingQuarantineTest {
 protected:
  // Streams `rows` pattern rows through RepairSession with `config`
  // (rules and sinks filled in here) and checks the output against a
  // whole-table repair.
  StatusOr<RepairReport> Run(size_t rows, RepairConfig config) {
    const Table table = PatternTable(schema_, pool_, rows);
    Table reference = table;
    FastRepairer repairer(&rules_);
    repairer.RepairTable(&reference);
    std::istringstream in(ToCsv(table));
    StatusOr<CsvChunkReader> reader = CsvChunkReader::Open(in, "R", pool_);
    if (!reader.ok()) return reader.status();
    RepairSession session(&rules_, config);
    std::ostringstream out;
    StatusOr<RepairReport> report = session.RepairStream(&reader.value(), out);
    if (report.ok()) {
      EXPECT_EQ(out.str(), ToCsv(reference));
    }
    return report;
  }

  const size_t row_bytes_ = RowBytes(3);
  const size_t block_bytes_ = BlockBytes(3);
};

TEST_F(SpillTest, BudgetBoundsResidencyDuringFillAndScan) {
  // A one-block budget over three and a bit blocks of rows: four chunks,
  // none holding more cells than the budget.
  const size_t rows = 3 * RowStore::kRowsPerBlock + 100;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RepairConfig config;
    config.threads = threads;
    config.chunk_rows = RepairConfig::kWholeFile;
    config.memory_budget_bytes = block_bytes_;
    const StatusOr<RepairReport> report = Run(rows, config);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->rows, rows);
    EXPECT_EQ(report->chunks, 4u);
    EXPECT_LE(report->peak_resident_bytes, block_bytes_);
  }
}

TEST_F(SpillTest, TinyBudgetDegradesToWorkingSetFloor) {
  // A budget smaller than one row degrades to 1-row chunks, not to a
  // refusal or a crash; the chunk table still reserves one block.
  const size_t rows = 50;
  for (const size_t budget : {size_t{1}, row_bytes_ - 1}) {
    RepairConfig config;
    config.memory_budget_bytes = budget;
    const StatusOr<RepairReport> report = Run(rows, config);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->chunks, rows) << "budget=" << budget;
    EXPECT_EQ(report->peak_resident_bytes, block_bytes_)
        << "budget=" << budget;
  }
}

TEST_F(SpillTest, PeakResidentTracksHighWaterMark) {
  // The peak is the chunk table's reservation: the capped chunk size
  // rounded up to whole blocks, however few rows the input has.
  const size_t rows = 5000;
  for (const size_t budget :
       {block_bytes_ / 2, 2 * block_bytes_ + 10 * row_bytes_}) {
    const size_t cap = budget / row_bytes_;
    RepairConfig config;
    config.chunk_rows = RepairConfig::kWholeFile;
    config.memory_budget_bytes = budget;
    const StatusOr<RepairReport> report = Run(rows, config);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->chunks, ChunksFor(rows, cap)) << "budget=" << budget;
    EXPECT_EQ(report->peak_resident_bytes,
              ChunksFor(cap, RowStore::kRowsPerBlock) * block_bytes_)
        << "budget=" << budget;
    EXPECT_LE(report->peak_resident_bytes, BudgetCeilingBytes(budget, 3));
  }
}

TEST_F(SpillTest, UnlimitedBudgetKeepsEverythingResident) {
  // No budget leaves the chunk size alone, and a budget roomier than the
  // chunk never raises it.
  EXPECT_EQ(ChunkRowsForBudget(7, 0, 3), 7u);
  EXPECT_EQ(ChunkRowsForBudget(7, size_t{1} << 30, 3), 7u);
  for (const size_t budget : {size_t{0}, size_t{1} << 30}) {
    RepairConfig config;
    config.chunk_rows = 7;
    config.memory_budget_bytes = budget;
    const StatusOr<RepairReport> report = Run(50, config);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->chunks, ChunksFor(50, 7)) << "budget=" << budget;
  }
}

TEST_F(SpillTest, ZeroArityCannotSpill) {
  // Without columns there is no row size to divide by: no cap.
  EXPECT_EQ(ChunkRowsForBudget(100, 1, 0), 100u);
  EXPECT_EQ(ChunkRowsForBudget(RepairConfig::kWholeFile, 64 << 20, 0),
            RepairConfig::kWholeFile);
  EXPECT_EQ(ChunkRowsForBudget(100, 1, 3), 1u);
  EXPECT_EQ(ChunkRowsForBudget(100, 25 * 12 + 11, 3), 25u);
}

TEST_F(SpillTest, PartialTailBlockGeometry) {
  // Two full capped chunks and a partial tail, as the WAL journals them;
  // the header records the capped chunk size.
  const std::string wal = ::testing::TempDir() + "/spill_geometry.wal";
  std::remove(wal.c_str());
  RepairConfig config;
  config.chunk_rows = RepairConfig::kWholeFile;
  config.memory_budget_bytes = 5 * row_bytes_ + row_bytes_ - 1;  // cap 5
  config.wal_path = wal;
  const StatusOr<RepairReport> report = Run(13, config);
  ASSERT_TRUE(report.ok()) << report.status().message();
  const StatusOr<RecoveredRun> scanned = ScanWal(wal);
  ASSERT_TRUE(scanned.ok()) << scanned.status().message();
  EXPECT_EQ(scanned->header.chunk_rows, 5u);
  ASSERT_EQ(scanned->chunks.size(), 3u);
  EXPECT_EQ(scanned->chunks[0].rows, 5u);
  EXPECT_EQ(scanned->chunks[1].rows, 5u);
  EXPECT_EQ(scanned->chunks[2].rows, 3u);
  EXPECT_EQ(scanned->chunks[2].base_row, 10u);
  std::remove(wal.c_str());
}

TEST_F(SpillTest, EvictionPublishesMetrics) {
  // The residency gauges a heartbeat pairs: budget, chunk cells now, and
  // the run's peak (the allocation is reused, so now == peak).
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const auto gauge = [](const char* name) {
    const Gauge* g = MetricsRegistry::Global().FindGauge(name);
    return g == nullptr ? int64_t{-1} : g->Value();
  };
  RepairConfig config;
  config.memory_budget_bytes = block_bytes_;
  const StatusOr<RepairReport> report = Run(2 * RowStore::kRowsPerBlock + 1,
                                            config);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(gauge("fixrep.progress.budget_bytes"),
            static_cast<int64_t>(block_bytes_));
  EXPECT_EQ(gauge("fixrep.progress.peak_resident_bytes"),
            static_cast<int64_t>(report->peak_resident_bytes));
  EXPECT_EQ(gauge("fixrep.progress.resident_bytes"),
            static_cast<int64_t>(report->peak_resident_bytes));
  // A run without a budget clears the budget gauge.
  const StatusOr<RepairReport> unbudgeted = Run(10, RepairConfig{});
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_EQ(gauge("fixrep.progress.budget_bytes"), 0);
}

}  // namespace
}  // namespace fixrep
