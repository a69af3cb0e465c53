#include "experiments/table.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace tsfm::experiments {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  TSFM_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << "\n";
  };
  emit_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

Status Table::WriteCsv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return Status::IoError("cannot open " + path);
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) os << ",";
      os << quote(row[c]);
    }
    os << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  if (!os) return Status::IoError("write failed: " + path);
  return Status::OK();
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace tsfm::experiments
