#ifndef FIXREP_BENCH_BENCH_UTIL_H_
#define FIXREP_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/random.h"
#include "common/timer.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/uis.h"
#include "eval/experiment.h"
#include "rulegen/rulegen.h"
#include "rules/rule_set.h"

namespace fixrep::bench {

// One experiment workload: clean data, its dirty copy, the FDs, and a
// generated consistent rule set, all sharing one value pool.
struct Workload {
  GeneratedData data;
  Table dirty;
  RuleSet rules;
  NoiseReport noise;

  Workload(GeneratedData generated, Table dirty_table, RuleSet rule_set,
           NoiseReport noise_report)
      : data(std::move(generated)),
        dirty(std::move(dirty_table)),
        rules(std::move(rule_set)),
        noise(noise_report) {}
};

inline Workload MakeHospWorkload(size_t rows, size_t max_rules,
                                 double noise_rate = 0.10,
                                 double typo_share = 0.5,
                                 uint64_t seed = 0x4051) {
  HospOptions hosp;
  hosp.rows = rows;
  hosp.num_hospitals = std::max<size_t>(rows / 30, 50);
  hosp.seed = seed;
  GeneratedData data = GenerateHosp(hosp);
  Table dirty = data.clean;
  NoiseOptions noise;
  noise.noise_rate = noise_rate;
  noise.typo_share = typo_share;
  noise.seed = seed ^ 0xd1e7;
  const NoiseReport report = InjectNoise(
      &dirty, ConstraintAttributes(*data.schema, data.fds), noise);
  RuleGenOptions rulegen;
  rulegen.max_rules = max_rules;
  rulegen.seed = seed ^ 0x9e37;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return Workload(std::move(data), std::move(dirty), std::move(rules),
                  report);
}

inline Workload MakeUisWorkload(size_t rows, size_t max_rules,
                                double noise_rate = 0.10,
                                double typo_share = 0.5,
                                uint64_t seed = 0x0715) {
  UisOptions uis;
  uis.rows = rows;
  uis.seed = seed;
  GeneratedData data = GenerateUis(uis);
  Table dirty = data.clean;
  NoiseOptions noise;
  noise.noise_rate = noise_rate;
  noise.typo_share = typo_share;
  noise.seed = seed ^ 0xd1e7;
  const NoiseReport report = InjectNoise(
      &dirty, ConstraintAttributes(*data.schema, data.fds), noise);
  RuleGenOptions rulegen;
  rulegen.max_rules = max_rules;
  rulegen.seed = seed ^ 0x9e37;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return Workload(std::move(data), std::move(dirty), std::move(rules),
                  report);
}

// A duplicate-heavy table: `rows` tuples sampled (deterministic PRNG)
// from the first `distinct` rows of `source`. Models real cleaning
// workloads dominated by repeated value patterns — duplicated
// registrations, repeated form entries.
inline Table MakeDuplicateHeavy(const Table& source, size_t rows,
                                size_t distinct, uint64_t seed = 0x9d2c) {
  Table table(source.schema_ptr(), source.pool_ptr());
  table.Reserve(rows);
  distinct = std::min(std::max<size_t>(distinct, 1), source.num_rows());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    table.AppendRow(source.row(rng.Uniform(distinct)));
  }
  return table;
}

// Machine-readable bench output: nested {"section": {"key": value}}
// written to FIXREP_BENCH_JSON (default `default_path`), so the perf
// trajectory of the repair engines is diffable across PRs.
class BenchJson {
 public:
  explicit BenchJson(std::string default_path) : path_(default_path) {
    const char* env = std::getenv("FIXREP_BENCH_JSON");
    if (env != nullptr && *env != '\0') path_ = env;
  }

  void Set(const std::string& section, const std::string& key,
           double value) {
    sections_[section][key] = value;
  }

  // Non-numeric annotations (e.g. which SIMD kernel produced the run).
  // check_regression.py only gates *rows_per_sec* keys, so string entries
  // are documentation, never thresholds.
  void SetString(const std::string& section, const std::string& key,
                 const std::string& value) {
    string_sections_[section][key] = value;
  }

  bool Write() const {
    std::ofstream out(path_);
    if (!out) return false;
    std::set<std::string> section_names;
    for (const auto& [section, entries] : sections_) {
      section_names.insert(section);
    }
    for (const auto& [section, entries] : string_sections_) {
      section_names.insert(section);
    }
    out << "{\n";
    bool first_section = true;
    for (const std::string& section : section_names) {
      if (!first_section) out << ",\n";
      first_section = false;
      out << "  \"" << JsonEscape(section) << "\": {";
      bool first_entry = true;
      const auto strings = string_sections_.find(section);
      if (strings != string_sections_.end()) {
        for (const auto& [key, value] : strings->second) {
          if (!first_entry) out << ", ";
          first_entry = false;
          out << "\"" << JsonEscape(key) << "\": \"" << JsonEscape(value)
              << "\"";
        }
      }
      const auto numbers = sections_.find(section);
      if (numbers != sections_.end()) {
        for (const auto& [key, value] : numbers->second) {
          if (!first_entry) out << ", ";
          first_entry = false;
          char buffer[64];
          std::snprintf(buffer, sizeof(buffer), "%.6g", value);
          out << "\"" << JsonEscape(key) << "\": " << buffer;
        }
      }
      out << "}";
    }
    out << "\n}\n";
    return true;
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::string, std::map<std::string, double>> sections_;
  std::map<std::string, std::map<std::string, std::string>> string_sections_;
};

// Defined in alloc_counter.cc (linked into every bench binary): number
// of global operator-new calls since process start. Deterministic for a
// deterministic workload, so deltas around a measured region are
// diffable across PRs in a way wall-clock is not.
std::uint64_t AllocationCount();

// Peak resident set size of the process in bytes (Linux ru_maxrss is
// KiB). Monotone over the process lifetime: report it once, at the end.
inline double PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

// Sum of the fixrep.span.<name>_ns histogram, for per-phase attribution
// in bench JSON output (0 when the span never ran).
inline double SpanTotalNanos(const std::string& span_name) {
  const Histogram* histogram = MetricsRegistry::Global().FindHistogram(
      "fixrep.span." + span_name + "_ns");
  return histogram == nullptr ? 0.0
                              : static_cast<double>(histogram->Sum());
}

// Runs `fn` once and returns its wall time in milliseconds, also
// observing it into the fixrep.bench.<label>_ns latency histogram — the
// one timing idiom for the hand-rolled (non-google-benchmark) benches.
template <typename Fn>
double TimedMs(const char* label, Fn&& fn) {
  const ScopedTimer scoped(MetricsRegistry::Global().GetHistogram(
      std::string("fixrep.bench.") + label + "_ns", "ns"));
  fn();
  return scoped.timer().ElapsedMillis();
}

}  // namespace fixrep::bench

#endif  // FIXREP_BENCH_BENCH_UTIL_H_
