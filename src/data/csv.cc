#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace tsfm::data {

namespace {

// Bytes read per fread. Lines straddling a chunk boundary are carried over
// to the front of the buffer; a line longer than the buffer grows it. Larger
// chunks parse no faster and keep more file text resident.
constexpr size_t kChunkBytes = size_t{1} << 16;

// Parsed rows are kept in blocks of about this many bytes. A block never
// moves once allocated, so no load copies a half-built buffer into a bigger
// one, and Assemble frees each block once its rows are in the tensor.
constexpr size_t kBlockBytes = size_t{1} << 18;

// Where a data row goes: its sample (rewritten to the sample's index once
// the ids are sorted), label, time step and line number for error messages.
struct RowKey {
  int64_t sample;
  int64_t label;
  int64_t t;
  int64_t line;
};

// Consecutive rows of the file: their keys and their (rows, D) values.
struct RowBlock {
  std::unique_ptr<RowKey[]> keys;
  std::unique_ptr<float[]> values;
  int64_t rows = 0;

  std::span<RowKey> Keys() const {
    return {keys.get(), static_cast<size_t>(rows)};
  }
};

Status LineError(int64_t line, const std::string& what) {
  return Status::InvalidArgument("CSV line " + std::to_string(line) + ": " +
                                 what);
}

// Accumulates the rows of one CSV file, fed one line at a time.
class CsvRows {
 public:
  // One line without its '\n'; a trailing '\r' is dropped here.
  Status Line(const char* b, const char* e) {
    ++line_;
    if (e > b && e[-1] == '\r') --e;
    if (channels_ == 0) return Header(std::string_view(b, e - b));
    if (b == e) return Status::OK();
    return Row(b, e);
  }

  // 0 until the header has been read.
  int64_t channels() const { return channels_; }
  std::vector<RowBlock>& blocks() { return blocks_; }

 private:
  Status Header(std::string_view h) {
    int64_t fields = 0;
    size_t pos = 0;
    while (true) {
      const size_t comma = h.find(',', pos);
      const std::string_view col = h.substr(pos, comma - pos);
      static constexpr std::string_view kKeyCols[] = {"sample", "label", "t"};
      const bool ok = fields < 3 ? col == kKeyCols[fields]
                                 : col.substr(0, 2) == "ch";
      if (!ok) {
        return LineError(line_, "header must be sample,label,t,ch0,...; got '" +
                                    std::string(h.substr(0, 256)) + "'");
      }
      ++fields;
      if (comma == std::string_view::npos) break;
      pos = comma + 1;
    }
    if (fields <= 3) return LineError(line_, "header has no chN columns");
    channels_ = fields - 3;
    block_rows_ = std::max<int64_t>(
        1, static_cast<int64_t>(kBlockBytes / (sizeof(RowKey) +
                                               static_cast<size_t>(channels_) *
                                                   sizeof(float))));
    return Status::OK();
  }

  // Parses a non-negative integer key column ending in ','.
  Status Index(const char** p, const char* e, const char* what,
               int64_t* out) const {
    const auto [ptr, ec] = std::from_chars(*p, e, *out);
    if (ec == std::errc::result_out_of_range) {
      return LineError(line_, std::string(what) + " out of range");
    }
    if (ec != std::errc() || ptr == e || *ptr != ',') {
      return LineError(line_, std::string("malformed ") + what + " field");
    }
    if (*out < 0) return LineError(line_, std::string("negative ") + what);
    *p = ptr + 1;
    return Status::OK();
  }

  Status Row(const char* p, const char* e) {
    if (blocks_.empty() || blocks_.back().rows == block_rows_) {
      RowBlock block;
      block.keys = std::make_unique_for_overwrite<RowKey[]>(
          static_cast<size_t>(block_rows_));
      block.values = std::make_unique_for_overwrite<float[]>(
          static_cast<size_t>(block_rows_ * channels_));
      blocks_.push_back(std::move(block));
    }
    RowBlock& block = blocks_.back();
    RowKey& key = block.keys[static_cast<size_t>(block.rows)];
    key.line = line_;
    TSFM_RETURN_IF_ERROR(Index(&p, e, "sample", &key.sample));
    TSFM_RETURN_IF_ERROR(Index(&p, e, "label", &key.label));
    if (key.label >= kMaxCsvClasses) {
      return LineError(line_, "label " + std::to_string(key.label) +
                                  " exceeds the class cap " +
                                  std::to_string(kMaxCsvClasses - 1));
    }
    TSFM_RETURN_IF_ERROR(Index(&p, e, "t", &key.t));
    float* out = block.values.get() + block.rows * channels_;
    for (int64_t d = 0; d < channels_; ++d) {
      const auto [ptr, ec] = std::from_chars(p, e, out[d]);
      if (ec == std::errc::result_out_of_range) {
        return LineError(line_, "ch" + std::to_string(d) +
                                    " value out of float range");
      }
      if (ec != std::errc()) {
        return LineError(line_, "ch" + std::to_string(d) +
                                    " is not a number");
      }
      if (!std::isfinite(out[d])) {
        return LineError(line_, "ch" + std::to_string(d) + " is not finite");
      }
      const bool last = d + 1 == channels_;
      if (ptr == e) {
        if (last) break;
        return LineError(line_, "has " + std::to_string(d + 1) +
                                    " channels, expected " +
                                    std::to_string(channels_));
      }
      if (*ptr != ',') {
        return LineError(line_, "trailing characters after ch" +
                                    std::to_string(d));
      }
      if (last) {
        return LineError(line_, "more than " + std::to_string(channels_) +
                                    " channel columns");
      }
      p = ptr + 1;
    }
    ++block.rows;
    return Status::OK();
  }

  int64_t line_ = 0;
  int64_t channels_ = 0;
  int64_t block_rows_ = 0;
  std::vector<RowBlock> blocks_;
};

// Orders samples by ascending id, checks every sample has one label and t
// values forming a permutation of 0..T-1, and scatters rows into (N, T, D).
Result<TimeSeriesDataset> Assemble(CsvRows* rows, const std::string& name) {
  std::vector<RowBlock>& blocks = rows->blocks();
  if (blocks.empty()) return Status::InvalidArgument("CSV has no data rows");
  const int64_t channels = rows->channels();

  // Distinct ids: one candidate per run of equal ids, then sort + unique.
  std::vector<int64_t> ids;
  for (const RowBlock& block : blocks) {
    for (const RowKey& k : block.Keys()) {
      if (ids.empty() || ids.back() != k.sample) ids.push_back(k.sample);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const int64_t n = static_cast<int64_t>(ids.size());

  std::vector<int64_t> labels(static_cast<size_t>(n), -1);
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  int64_t prev_id = -1, prev_index = 0;
  for (RowBlock& block : blocks) {
    for (RowKey& k : block.Keys()) {
      if (k.sample != prev_id) {
        prev_id = k.sample;
        prev_index = std::lower_bound(ids.begin(), ids.end(), k.sample) -
                     ids.begin();
      }
      k.sample = prev_index;
      int64_t& label = labels[static_cast<size_t>(prev_index)];
      if (label < 0) label = k.label;
      if (label != k.label) {
        return LineError(k.line, "inconsistent label for sample " +
                                     std::to_string(prev_id));
      }
      ++counts[static_cast<size_t>(prev_index)];
    }
  }
  const int64_t t_len = counts[0];
  for (int64_t i = 0; i < n; ++i) {
    if (counts[static_cast<size_t>(i)] != t_len) {
      return Status::InvalidArgument(
          "sample " + std::to_string(ids[static_cast<size_t>(i)]) + " has " +
          std::to_string(counts[static_cast<size_t>(i)]) +
          " time steps, expected " + std::to_string(t_len));
    }
  }

  // Every sample has exactly t_len rows, so t < t_len plus no repeats makes
  // its t values a permutation and the scatter covers every tensor row.
  std::vector<bool> seen(static_cast<size_t>(n * t_len), false);
  for (const RowBlock& block : blocks) {
    for (const RowKey& k : block.Keys()) {
      if (k.t >= t_len) {
        return LineError(k.line, "t=" + std::to_string(k.t) + " outside 0.." +
                                     std::to_string(t_len - 1));
      }
      const size_t slot = static_cast<size_t>(k.sample * t_len + k.t);
      if (seen[slot]) {
        return LineError(k.line, "duplicate t=" + std::to_string(k.t) +
                                     " for sample " +
                                     std::to_string(ids[static_cast<size_t>(
                                         k.sample)]));
      }
      seen[slot] = true;
    }
  }

  // Scatter last block first and free each block once copied: the newest
  // blocks sit at the top of the heap, where the allocator can hand freed
  // memory back, so the tensor's pages replace the blocks' instead of adding
  // to them.
  TimeSeriesDataset ds;
  ds.name = name;
  ds.x = Tensor::Empty(Shape{n, t_len, channels});
  float* x = ds.x.mutable_data();
  const size_t row_bytes = static_cast<size_t>(channels) * sizeof(float);
  for (auto block = blocks.rbegin(); block != blocks.rend(); ++block) {
    const float* src = block->values.get();
    for (const RowKey& k : block->Keys()) {
      std::memcpy(x + (k.sample * t_len + k.t) * channels, src, row_bytes);
      src += channels;
    }
    *block = RowBlock();
  }
  ds.y = std::move(labels);
  ds.num_classes = *std::max_element(ds.y.begin(), ds.y.end()) + 1;
  TSFM_RETURN_IF_ERROR(Validate(ds));
  return ds;
}

}  // namespace

Status SaveCsv(const TimeSeriesDataset& ds, const std::string& path) {
  TSFM_RETURN_IF_ERROR(Validate(ds));
  std::ofstream os(path, std::ios::trunc);
  if (!os) return Status::IoError("cannot open for writing: " + path);
  os << "sample,label,t";
  for (int64_t d = 0; d < ds.channels(); ++d) os << ",ch" << d;
  os << "\n";
  const float* p = ds.x.data();
  const int64_t t_len = ds.length();
  const int64_t d_len = ds.channels();
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t t = 0; t < t_len; ++t) {
      os << i << "," << ds.y[static_cast<size_t>(i)] << "," << t;
      const float* row = p + (i * t_len + t) * d_len;
      for (int64_t d = 0; d < d_len; ++d) os << "," << row[d];
      os << "\n";
    }
  }
  if (!os) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<TimeSeriesDataset> LoadCsv(const std::string& path,
                                  const std::string& name) {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "rb"),
                                             &std::fclose);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  CsvRows rows;

  std::vector<char> buf(kChunkBytes);
  size_t carry = 0;  // bytes of an unfinished line at the front of buf
  bool eof = false;
  while (!eof) {
    if (carry == buf.size()) buf.resize(buf.size() * 2);
    const size_t want = buf.size() - carry;
    const size_t got = std::fread(buf.data() + carry, 1, want, file.get());
    if (got < want) {
      if (std::ferror(file.get())) return Status::IoError("read failed: " + path);
      eof = true;
    }
    const char* const begin = buf.data();
    const char* const end = begin + carry + got;
    const char* line = begin;
    // The carried bytes hold no newline, so the scan resumes after them.
    const char* scan = begin + carry;
    while (const char* nl = static_cast<const char*>(
               std::memchr(scan, '\n', static_cast<size_t>(end - scan)))) {
      TSFM_RETURN_IF_ERROR(rows.Line(line, nl));
      line = scan = nl + 1;
    }
    carry = static_cast<size_t>(end - line);
    if (eof) {
      if (carry > 0) TSFM_RETURN_IF_ERROR(rows.Line(line, end));
    } else if (carry > 0) {
      std::memmove(buf.data(), line, carry);
    }
  }
  if (rows.channels() == 0) return Status::InvalidArgument("empty CSV: " + path);
  return Assemble(&rows, name);
}

}  // namespace tsfm::data
