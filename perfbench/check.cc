#include "check.h"

#include <dirent.h>

#include <fstream>
#include <sstream>

#include "inputs.h"
#include "relation/csv.h"

namespace perfbench {
namespace {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char kDigestPrefix[] = "hosp_digest.";

}  // namespace

void OutputDigest::Add(size_t row, std::string_view line) {
  value_ += Mix(Fnv1a(line) ^ Mix(row));
  ++rows_;
}

fixrep::StatusOr<Reference> Reference::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Reference ref;
  std::ostringstream text;
  text << in.rdbuf();
  ref.text_ = text.str();
  std::istringstream lines(ref.text_);
  if (!std::getline(lines, ref.header_)) {
    return fixrep::Status::IoError("empty reference " + path);
  }
  std::string line;
  while (std::getline(lines, line)) ref.rows_.push_back(line);
  return ref;
}

bool Reference::Matches(size_t row, std::string_view line) const {
  if (row % kSampleStride != 0) return true;
  const size_t k = row / kSampleStride;
  return k < rows_.size() && rows_[k] == line;
}

size_t Reference::CheckCsv(std::string_view csv, size_t first_row,
                           size_t expected_rows, OutputDigest* digest) const {
  size_t mismatches = 0;
  size_t pos = 0;
  size_t rows = 0;
  bool header = true;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string_view::npos) end = csv.size();
    const std::string_view line = csv.substr(pos, end - pos);
    pos = end + 1;
    if (header) {
      header = false;
      if (line != header_) ++mismatches;
      continue;
    }
    const size_t row = first_row + rows++;
    if (!Matches(row, line)) ++mismatches;
    if (digest != nullptr) digest->Add(row, line);
  }
  if (header || rows != expected_rows) ++mismatches;
  return mismatches;
}

size_t Reference::CheckCsvFile(const std::string& path, size_t expected_rows,
                               OutputDigest* digest) const {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return 1;
  size_t mismatches = line == header_ ? 0 : 1;
  size_t rows = 0;
  while (std::getline(in, line)) {
    if (!Matches(rows, line)) ++mismatches;
    if (digest != nullptr) digest->Add(rows, line);
    ++rows;
  }
  if (rows != expected_rows) ++mismatches;
  return mismatches;
}

size_t Reference::CheckTable(const fixrep::Table& table) const {
  fixrep::Table sample(table.schema_ptr(), table.pool_ptr());
  for (size_t r = 0; r < table.num_rows(); r += kSampleStride) {
    sample.AppendRow(table.row(r));
  }
  std::ostringstream rendered;
  fixrep::WriteCsv(sample, rendered);
  return rendered.str() == text_ ? 0 : 1;
}

bool RecordHospDigest(const std::string& dir, const std::string& workload,
                      const OutputDigest& digest) {
  std::ostringstream text;
  text << digest.rows() << ' ' << digest.value();
  {
    std::ofstream out(dir + "/" + kDigestPrefix + workload);
    out << text.str() << '\n';
  }
  bool agree = true;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind(kDigestPrefix, 0) != 0) continue;
      std::ifstream in(dir + "/" + name);
      size_t rows = 0;
      uint64_t value = 0;
      if (in >> rows >> value) {
        std::ostringstream other;
        other << rows << ' ' << value;
        if (other.str() != text.str()) agree = false;
      }
    }
    ::closedir(d);
  }
  return agree;
}

}  // namespace perfbench
