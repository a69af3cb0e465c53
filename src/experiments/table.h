#ifndef TSFM_EXPERIMENTS_TABLE_H_
#define TSFM_EXPERIMENTS_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace tsfm::experiments {

/// Minimal column-aligned text table used by the benchmark binaries to print
/// paper-style result tables, with CSV export alongside.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Renders with padded, aligned columns.
  std::string ToString() const;

  /// Writes RFC-4180-ish CSV (fields containing commas/quotes are quoted).
  Status WriteCsv(const std::string& path) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimals.
std::string FormatDouble(double value, int digits = 3);

}  // namespace tsfm::experiments

#endif  // TSFM_EXPERIMENTS_TABLE_H_
