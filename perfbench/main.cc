// The product benchmark's in-process runner (perfbench/README.md).
//
//   fixrep_perfbench generate --workload W --seed N --trace 0|1 --inputs DIR
//       generates (once per seed) the inputs workload W needs under DIR.
//   fixrep_perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --inputs DIR --work DIR
//       runs W on those inputs and prints context lines, then one JSON
//       result line: {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.py builds this binary and calls both steps; the inputs
// are generated in their own process so generation never shows in a
// workload's peak RSS.

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "inputs.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

std::string DatasetJson(const Dataset& data) {
  std::ostringstream out;
  out << "{\"rows\": " << data.rows << ", \"bytes\": " << data.bytes
      << ", \"distinct_rows\": " << data.distinct << ", \"distinct_share\": "
      << JsonNumber(data.rows > 0 ? static_cast<double>(data.distinct) /
                                        static_cast<double>(data.rows)
                                  : 0)
      << ", \"rules\": " << data.rules_count << "}";
  return out.str();
}

// Everything a result depends on besides the code: machine, build and
// inputs, so results from different set-ups are never compared.
std::string ContextJson(const RunOptions& options, const Inputs& inputs) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"thread_pool_width\": "
      << fixrep::ThreadPool::Global().num_workers()
      << ", \"simd_kernel\": "
      << JsonString(fixrep::SimdKernelName(fixrep::ActiveSimdKernel()))
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"metrics_compiled_in\": "
      << (fixrep::kMetricsEnabled ? "true" : "false")
      << ", \"inputs\": {\"hosp\": " << DatasetJson(inputs.hosp);
  if (!inputs.uis.name.empty()) out << ", \"uis\": " << DatasetJson(inputs.uis);
  if (!inputs.hosp_dict.empty()) {
    out << ", \"hosp_dict\": {\"rules\": " << inputs.hosp_dict_rules
        << ", \"bytes\": " << inputs.hosp_dict_bytes << "}";
  }
  out << "}}";
  return out.str();
}

std::string ResultJson(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    out << (i == 0 ? "" : ", ") << JsonString(m.name)
        << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

int Usage() {
  std::cerr << "usage: fixrep_perfbench generate|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --inputs DIR [--work DIR]\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage();
    flags[flag.substr(2)] = argv[i + 1];
  }
  RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds =
      flags.count("seconds") ? std::strtod(flags["seconds"].c_str(), nullptr)
                             : 10;
  options.trace = flags["trace"] == "1";
  options.inputs_dir = flags["inputs"];
  options.work_dir = flags["work"];
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known || options.inputs_dir.empty() || options.seconds <= 0) {
    std::cerr << "unknown workload or missing --inputs\n";
    return Usage();
  }
  const Needs needs = NeedsOf(options.workload, options.trace);

  if (command == "generate") {
    const fixrep::Status status =
        GenerateInputs(options.inputs_dir, options.seed, needs);
    if (!status.ok()) {
      std::cerr << "input generation failed: " << status << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run" || options.work_dir.empty()) return Usage();

  fixrep::StatusOr<Inputs> inputs =
      LoadInputs(options.inputs_dir, options.seed, needs);
  if (!inputs.ok()) {
    std::cerr << "inputs: " << inputs.status() << "\n";
    return 1;
  }
  const std::string context = ContextJson(options, inputs.value());
  std::cout << "context " << context << "\n";
  fixrep::StatusOr<Outcome> outcome = RunWorkload(options, inputs.value());
  if (!outcome.ok()) {
    std::cerr << "run failed: " << outcome.status() << "\n";
    return 1;
  }
  for (const std::string& note : outcome->notes) std::cout << note << "\n";
  const std::string result = ResultJson(outcome.value());
  std::ofstream record(options.work_dir + "/result-" + options.workload +
                       "-seed" + std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".json");
  record << "{\"context\": " << context << ", \"result\": " << result
         << "}\n";
  std::cout << result << std::endl;
  return outcome->correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
