#include "inputs.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>

#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "repair/session.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "rulegen/rulegen.h"
#include "rulegen/scale.h"

namespace perfbench {
namespace {

using fixrep::GeneratedData;
using fixrep::Status;
using fixrep::StatusOr;
using fixrep::Table;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

size_t DistinctRows(const Table& table) {
  std::set<std::basic_string_view<fixrep::ValueId>> rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const fixrep::TupleRef row = table.row(r);
    rows.emplace(row.data(), row.size());
  }
  return rows.size();
}

// `key value` lines; written last, so the file also marks a part done.
Status WriteInfo(const std::string& path,
                 const std::map<std::string, size_t>& values) {
  std::ofstream out(path + ".tmp");
  for (const auto& [key, value] : values) out << key << ' ' << value << '\n';
  out.flush();
  if (!out || std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot write " + path);
  }
  return Status::Ok();
}

StatusOr<std::map<std::string, size_t>> ReadInfo(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("missing input part " + path);
  std::map<std::string, size_t> values;
  std::string key;
  size_t value = 0;
  while (in >> key >> value) values[key] = value;
  return values;
}

std::vector<std::string> CsvHeader(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::vector<std::string> attrs;
  std::stringstream fields(line);
  std::string field;
  while (std::getline(fields, field, ',')) attrs.push_back(field);
  return attrs;
}

Dataset DatasetPaths(const std::string& dir, const std::string& name) {
  Dataset data;
  data.name = name;
  data.dirty_csv = dir + "/" + name + "_dirty.csv";
  data.rules = dir + "/" + name + ".rules";
  data.reference_csv = dir + "/" + name + "_reference.csv";
  return data;
}

// The reference output: rows 0, 16, 32, ... of the dirty file, read
// and parsed back from the written files as a user would, repaired by
// the reference chase (cRepair, Fig. 6).
Status WriteReference(const Dataset& data) {
  auto pool = std::make_shared<fixrep::ValuePool>();
  StatusOr<Table> dirty =
      fixrep::ReadCsvFileLenient(data.dirty_csv, "data", pool);
  if (!dirty.ok()) return dirty.status();
  StatusOr<fixrep::RuleSet> rules = fixrep::ParseRulesFileLenient(
      data.rules, dirty->schema_ptr(), pool);
  if (!rules.ok()) return rules.status();
  Table sample(dirty->schema_ptr(), pool);
  for (size_t r = 0; r < dirty->num_rows(); r += kSampleStride) {
    sample.AppendRow(dirty->row(r));
  }
  fixrep::RepairConfig config;
  config.engine = fixrep::RepairEngine::kCRepair;
  fixrep::RepairSession session(&rules.value(), config);
  StatusOr<fixrep::RepairReport> report = session.Repair(&sample);
  if (!report.ok()) return report.status();
  return fixrep::TryWriteCsvFile(sample, data.reference_csv);
}

// The `fixrep_cli gen-data` + `gen-rules` pipeline in-process: clean
// data, a dirty copy with 10% noise on the FD attributes, and up to
// kMaxRules oracle rules.
Status MakeDataset(GeneratedData generated, uint64_t seed,
                   const Dataset& data) {
  Table dirty = generated.clean;
  fixrep::NoiseOptions noise;
  noise.seed = seed ^ 0xd1e7;
  fixrep::InjectNoise(
      &dirty, fixrep::ConstraintAttributes(*generated.schema, generated.fds),
      noise);
  fixrep::RuleGenOptions rule_options;
  rule_options.max_rules = kMaxRules;
  const fixrep::RuleSet rules = fixrep::GenerateRules(
      generated.clean, dirty, generated.fds, rule_options);
  FIXREP_RETURN_IF_ERROR(fixrep::TryWriteCsvFile(dirty, data.dirty_csv));
  FIXREP_RETURN_IF_ERROR(fixrep::TryWriteRulesFile(rules, data.rules));
  FIXREP_RETURN_IF_ERROR(WriteReference(data));
  return WriteInfo(data.dirty_csv + ".info",
                   {{"rows", dirty.num_rows()},
                    {"bytes", FileBytes(data.dirty_csv)},
                    {"distinct", DistinctRows(dirty)},
                    {"rules", rules.size()}});
}

// The hosp rules plus kDictScaleRules synthetic ones, compiled to an
// FXRDICT artifact (`fixrep_cli rules compile --scale`).
Status MakeDict(const Dataset& hosp, uint64_t seed, const std::string& path) {
  std::ifstream csv(hosp.dirty_csv);
  auto pool = std::make_shared<fixrep::ValuePool>();
  StatusOr<fixrep::CsvChunkReader> reader =
      fixrep::CsvChunkReader::Open(csv, "data", pool);
  if (!reader.ok()) return reader.status();
  StatusOr<fixrep::RuleSet> rules =
      fixrep::ParseRulesFileLenient(hosp.rules, reader->schema(), pool);
  if (!rules.ok()) return rules.status();
  fixrep::ScaleRuleGenOptions scale;
  scale.scale = kDictScaleRules;
  scale.seed = seed;
  fixrep::AppendScaleRules(&rules.value(), scale);
  FIXREP_RETURN_IF_ERROR(fixrep::CompileRuleDict(rules.value(), path));
  return WriteInfo(path + ".info",
                   {{"rules", rules->size()}, {"bytes", FileBytes(path)}});
}

StatusOr<Dataset> LoadDataset(const std::string& dir,
                              const std::string& name) {
  Dataset data = DatasetPaths(dir, name);
  StatusOr<std::map<std::string, size_t>> info =
      ReadInfo(data.dirty_csv + ".info");
  if (!info.ok()) return info.status();
  data.rows = info.value()["rows"];
  data.bytes = info.value()["bytes"];
  data.distinct = info.value()["distinct"];
  data.rules_count = info.value()["rules"];
  data.attrs = CsvHeader(data.dirty_csv);
  return data;
}

}  // namespace

size_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

std::string TextTenantSpec(const Dataset& data) {
  std::string spec = data.rules + "@";
  for (size_t a = 0; a < data.attrs.size(); ++a) {
    if (a != 0) spec += ',';
    spec += data.attrs[a];
  }
  return spec;
}

Status GenerateInputs(const std::string& dir, uint64_t seed, Needs needs) {
  const Dataset hosp = DatasetPaths(dir, "hosp");
  if (!FileExists(hosp.dirty_csv + ".info")) {
    fixrep::HospOptions options;
    options.rows = kHospRows;
    options.num_hospitals = std::max<size_t>(options.rows / 30, 50);
    options.seed = seed;
    FIXREP_RETURN_IF_ERROR(
        MakeDataset(fixrep::GenerateHosp(options), seed, hosp));
  }
  const Dataset uis = DatasetPaths(dir, "uis");
  if (needs.uis && !FileExists(uis.dirty_csv + ".info")) {
    fixrep::UisOptions options;
    options.rows = kUisRows;
    options.seed = seed;
    FIXREP_RETURN_IF_ERROR(
        MakeDataset(fixrep::GenerateUis(options), seed, uis));
  }
  const std::string dict = dir + "/hosp_dict.fxrdict";
  if (needs.dict && !FileExists(dict + ".info")) {
    FIXREP_RETURN_IF_ERROR(MakeDict(hosp, seed, dict));
  }
  return Status::Ok();
}

StatusOr<Inputs> LoadInputs(const std::string& dir, uint64_t seed,
                            Needs needs) {
  Inputs inputs;
  inputs.seed = seed;
  StatusOr<Dataset> hosp = LoadDataset(dir, "hosp");
  if (!hosp.ok()) return hosp.status();
  inputs.hosp = std::move(hosp).value();
  if (needs.uis) {
    StatusOr<Dataset> uis = LoadDataset(dir, "uis");
    if (!uis.ok()) return uis.status();
    inputs.uis = std::move(uis).value();
  }
  if (needs.dict) {
    inputs.hosp_dict = dir + "/hosp_dict.fxrdict";
    StatusOr<std::map<std::string, size_t>> info =
        ReadInfo(inputs.hosp_dict + ".info");
    if (!info.ok()) return info.status();
    inputs.hosp_dict_rules = info.value()["rules"];
    inputs.hosp_dict_bytes = info.value()["bytes"];
  }
  return inputs;
}

}  // namespace perfbench
