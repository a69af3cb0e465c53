#ifndef TSFM_DATA_CSV_H_
#define TSFM_DATA_CSV_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace tsfm::data {

/// Writes `ds` to a CSV file with one row per (sample, time step):
///
///   sample,label,t,ch0,ch1,...,ch{D-1}
///
/// The header row records the channel count; rows are emitted in
/// (sample, time) order. Intended for interoperability with external tooling
/// (pandas, sktime exports of the real UEA archive, ...).
Status SaveCsv(const TimeSeriesDataset& ds, const std::string& path);

/// Largest accepted label + 1. A label is a class index and sizes the
/// classifier head, so LoadCsv rejects labels >= this cap instead of letting a
/// stray digit string allocate a head with ~10^12 outputs.
inline constexpr int64_t kMaxCsvClasses = 65536;

/// Reads a dataset previously written by SaveCsv (or produced externally in
/// the same layout) in one streaming pass over fixed-size chunks.
///
/// Contract (any violation returns InvalidArgument naming the line; nothing
/// is allocated from an unchecked field):
///   * Header: exactly `sample,label,t` followed by one or more columns whose
///     names start with `ch`; their count is the channel count D.
///   * Data row: exactly 3 + D comma-separated fields, no spaces, no quoting.
///     `sample`, `label` and `t` are non-negative base-10 integers;
///     `label` < kMaxCsvClasses. Each channel value is a decimal float that
///     parses in full, is within float range and is finite (nan/inf are
///     rejected). Values are correctly rounded, bit-identical to strtof.
///   * Every sample has one label and the same length T, and its `t` values
///     are a permutation of 0..T-1 (no duplicates, no gaps). Rows may come in
///     any order, samples interleaved.
///   * LF or CRLF line endings; the final newline is optional; blank lines
///     are skipped.
/// Samples are ordered by ascending `sample` id and `num_classes` is
/// max(label) + 1.
Result<TimeSeriesDataset> LoadCsv(const std::string& path,
                                  const std::string& name = "csv");

}  // namespace tsfm::data

#endif  // TSFM_DATA_CSV_H_
