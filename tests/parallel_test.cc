#include <gtest/gtest.h>

#include "common/metrics.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "rulegen/rulegen.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using testing::DriveTable;

// The pooled driver at `threads` width over a private index.
RepairStats PooledRepair(const RuleSet& rules, Table* table,
                           size_t threads) {
  const CompiledRuleIndex index(&rules);
  return DriveTable(index, table, {.threads = threads}).stats;
}

TEST(ParallelRepairTest, MatchesSerialOnTravelExample) {
  TravelExample example;
  Table serial = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&serial);
  for (const size_t threads : {1u, 2u, 4u, 16u}) {
    Table parallel = example.dirty;
    const RepairStats stats =
        PooledRepair(example.rules, &parallel, threads);
    for (size_t r = 0; r < serial.num_rows(); ++r) {
      EXPECT_EQ(parallel.row(r), serial.row(r)) << "threads " << threads;
    }
    EXPECT_EQ(stats.cells_changed, repairer.stats().cells_changed);
  }
}

TEST(ParallelRepairTest, MatchesSerialOnGeneratedData) {
  HospOptions options;
  options.rows = 8000;
  options.num_hospitals = 300;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 400;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);

  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);

  Table parallel = dirty;
  const RepairStats stats = PooledRepair(rules, &parallel, 4);
  for (size_t r = 0; r < serial.num_rows(); ++r) {
    ASSERT_EQ(parallel.row(r), serial.row(r)) << "row " << r;
  }
  EXPECT_EQ(stats.tuples_examined, dirty.num_rows());
  EXPECT_EQ(stats.cells_changed, repairer.stats().cells_changed);
  EXPECT_EQ(stats.per_rule_applications,
            repairer.stats().per_rule_applications);
}

TEST(ParallelRepairTest, MoreThreadsThanRows) {
  TravelExample example;
  Table table = example.dirty;
  const RepairStats stats = PooledRepair(example.rules, &table, 64);
  EXPECT_EQ(stats.tuples_examined, 4u);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.row(r), example.clean.row(r));
  }
}

TEST(ParallelRepairTest, RegistryCountsMatchSerialBaseline) {
  // Metrics published by the pooled run (every slot flushes its own
  // delta) must agree with a single-threaded FastRepairer run.
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  HospOptions options;
  options.rows = 4000;
  options.num_hospitals = 200;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 200;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);

  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);
  const RepairStats baseline = repairer.stats();

  auto& registry = MetricsRegistry::Global();
  registry.ResetAllForTest();
  Table parallel = dirty;
  PooledRepair(rules, &parallel, 4);

  const auto counter = [&](const char* name) {
    const Counter* c =
        registry.FindCounter(std::string("fixrep.lrepair.") + name);
    return c == nullptr ? uint64_t{0} : c->Value();
  };
  EXPECT_EQ(counter("tuples_examined"), baseline.tuples_examined);
  EXPECT_EQ(counter("tuples_changed"), baseline.tuples_changed);
  EXPECT_EQ(counter("cells_changed"), baseline.cells_changed);
  EXPECT_EQ(counter("rule_applications"), baseline.rule_applications);

  const CounterVector* per_rule =
      registry.FindCounterVector("fixrep.lrepair.per_rule_applications");
  ASSERT_NE(per_rule, nullptr);
  const std::vector<uint64_t> registry_counts = per_rule->Values();
  ASSERT_EQ(registry_counts.size(), baseline.per_rule_applications.size());
  for (size_t i = 0; i < registry_counts.size(); ++i) {
    EXPECT_EQ(registry_counts[i], baseline.per_rule_applications[i])
        << "rule " << i;
  }
}

TEST(ParallelRepairTest, PooledConfigsMatchSerial) {
  // Every driver width over one shared index must be bit-identical to
  // the plain serial chase.
  HospOptions options;
  options.rows = 6000;
  options.num_hospitals = 250;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 300;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);

  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);

  const CompiledRuleIndex index(&rules);
  for (const size_t threads : {2u, 4u, 16u}) {
    Table parallel = dirty;
    const RepairStats stats =
        DriveTable(index, &parallel, {.threads = threads}).stats;
    for (size_t r = 0; r < serial.num_rows(); ++r) {
      ASSERT_EQ(parallel.row(r), serial.row(r))
          << "row " << r << " threads " << threads;
    }
    EXPECT_EQ(stats.tuples_examined, repairer.stats().tuples_examined);
    EXPECT_EQ(stats.cells_changed, repairer.stats().cells_changed);
    EXPECT_EQ(stats.per_rule_applications,
              repairer.stats().per_rule_applications);
  }
}

TEST(ParallelRepairTest, IndexBuiltOncePerRuleSetNotPerWorkerOrCall) {
  // Regression guard for the old design, which rebuilt the inverted
  // index once per worker per parallel repair call: with a shared
  // CompiledRuleIndex, fixrep.lrepair.index_builds ticks exactly once
  // per rule set no matter how many workers or repair calls follow.
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  TravelExample example;
  auto& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.GetCounter("fixrep.lrepair.index_builds")->Value();
  const CompiledRuleIndex index(&example.rules);
  for (int call = 0; call < 3; ++call) {
    Table table = example.dirty;
    DriveTable(index, &table, {.threads = 4});
  }
  EXPECT_EQ(registry.GetCounter("fixrep.lrepair.index_builds")->Value(),
            before + 1);
}

TEST(ParallelRepairTest, EmptyTable) {
  TravelExample example;
  Table empty(example.schema, example.pool);
  const RepairStats stats = PooledRepair(example.rules, &empty, 4);
  EXPECT_EQ(stats.tuples_examined, 0u);
  EXPECT_EQ(stats.cells_changed, 0u);
}

TEST(ParallelRepairTest, DefaultThreadCount) {
  TravelExample example;
  Table table = example.dirty;
  PooledRepair(example.rules, &table, 0);  // threads = 0 -> hardware
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.row(r), example.clean.row(r));
  }
}

}  // namespace
}  // namespace fixrep
