#ifndef FIXREP_PERFBENCH_CHECK_H_
#define FIXREP_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/table.h"

namespace perfbench {

// Order-sensitive digest of a repaired output's data rows: the sum of
// one mixed hash per (row index, line) pair. Rows can be added in any
// order, so batches repaired by the daemon reassemble to the digest of
// the whole-file output.
class OutputDigest {
 public:
  void Add(size_t row, std::string_view line);
  // Adds the rows another digest holds (disjoint row ranges).
  void Merge(const OutputDigest& other) {
    value_ += other.value_;
    rows_ += other.rows_;
  }
  bool operator==(const OutputDigest& other) const = default;
  uint64_t value() const { return value_; }
  size_t rows() const { return rows_; }

 private:
  uint64_t value_ = 0;
  size_t rows_ = 0;
};

// The reference cRepair output of rows 0, 16, 32, ... of one dataset
// (inputs.h), as rendered CSV lines.
class Reference {
 public:
  static fixrep::StatusOr<Reference> Load(const std::string& path);

  const std::string& header() const { return header_; }

  // Checks the output line of data row `row`; rows off the sample pass.
  bool Matches(size_t row, std::string_view line) const;

  // Checks a whole CSV text (header + rows) whose first data row is
  // `first_row`. Adds each row to `digest` when non-null. Returns the
  // number of mismatches (header, sampled rows, row count).
  size_t CheckCsv(std::string_view csv, size_t first_row,
                  size_t expected_rows, OutputDigest* digest) const;
  // The same over a CSV file, read line by line.
  size_t CheckCsvFile(const std::string& path, size_t expected_rows,
                      OutputDigest* digest) const;
  // Renders the sampled rows of an in-memory repaired table and compares
  // them with the reference byte for byte (1 on any difference).
  size_t CheckTable(const fixrep::Table& table) const;

 private:
  std::string text_;  // the whole reference file
  std::string header_;
  std::vector<std::string> rows_;  // rows_[k] is data row k * stride
};

// Records this workload's hosp output digest for the seed in `dir` and
// compares it with the digests other workloads recorded there. Returns
// false on a mismatch.
bool RecordHospDigest(const std::string& dir, const std::string& workload,
                      const OutputDigest& digest);

}  // namespace perfbench

#endif  // FIXREP_PERFBENCH_CHECK_H_
