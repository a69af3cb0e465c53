#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/uea_like.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

Result<data::TimeSeriesDataset> LoadText(const std::string& text) {
  const std::string path = TempPath("text.csv");
  WriteAll(path, text);
  auto ds = data::LoadCsv(path);
  std::remove(path.c_str());
  return ds;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

data::TimeSeriesDataset SmallDataset() {
  data::UeaDatasetSpec spec{"csvtest", "csvtest", 6, 4, 3, 5, 2, 2};
  return data::GenerateUeaLike(spec, 3, data::GeneratorCaps{}).train;
}

TEST(CsvTest, RoundTripPreservesEverything) {
  data::TimeSeriesDataset ds = SmallDataset();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(data::SaveCsv(ds, path).ok());
  auto loaded = data::LoadCsv(path, ds.name);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), ds.size());
  EXPECT_EQ(loaded->length(), ds.length());
  EXPECT_EQ(loaded->channels(), ds.channels());
  EXPECT_EQ(loaded->num_classes, ds.num_classes);
  EXPECT_EQ(loaded->y, ds.y);
  EXPECT_LT(MaxAbsDiff(loaded->x, ds.x), 1e-4f);  // float printing precision
}

TEST(CsvTest, SaveRejectsInvalidDataset) {
  data::TimeSeriesDataset bad;
  bad.x = Tensor(Shape{2, 2});  // not 3-D
  bad.num_classes = 1;
  EXPECT_FALSE(data::SaveCsv(bad, TempPath("bad.csv")).ok());
}

TEST(CsvTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(data::LoadCsv("/nonexistent/file.csv").ok());
}

TEST(CsvTest, LoadRejectsMalformedHeader) {
  const std::string path = TempPath("badheader.csv");
  std::ofstream(path) << "a,b,c\n1,2,3\n";
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, LoadRejectsRaggedChannels) {
  const std::string path = TempPath("ragged.csv");
  std::ofstream(path) << "sample,label,t,ch0,ch1\n0,0,0,1.0,2.0\n0,0,1,1.0\n";
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, LoadRejectsRaggedLengths) {
  const std::string path = TempPath("raggedlen.csv");
  std::ofstream(path) << "sample,label,t,ch0\n"
                      << "0,0,0,1.0\n0,0,1,2.0\n"
                      << "1,1,0,3.0\n";  // sample 1 has only one step
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, LoadRejectsInconsistentLabels) {
  const std::string path = TempPath("badlabel.csv");
  std::ofstream(path) << "sample,label,t,ch0\n0,0,0,1.0\n0,1,1,2.0\n";
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, LoadSortsOutOfOrderTimeSteps) {
  const std::string path = TempPath("shuffled.csv");
  std::ofstream(path) << "sample,label,t,ch0\n"
                      << "0,1,1,20.0\n0,1,0,10.0\n";
  auto ds = data::LoadCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->x.at({0, 0, 0}), 10.0f);
  EXPECT_EQ(ds->x.at({0, 1, 0}), 20.0f);
  std::remove(path.c_str());
}

TEST(CsvTest, NumClassesInferredFromMaxLabel) {
  const std::string path = TempPath("classes.csv");
  std::ofstream(path) << "sample,label,t,ch0\n"
                      << "0,0,0,1.0\n"
                      << "1,4,0,2.0\n";
  auto ds = data::LoadCsv(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_classes, 5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsfm

namespace tsfm {
namespace {

// Every hostile input is an InvalidArgument that names its line, never an
// abort or a silently accepted value.
TEST(CsvContractTest, RejectsHostileRowsNamingTheLine) {
  const std::string header = "sample,label,t,ch0,ch1\n";
  const std::string good = "0,0,0,1.0,2.0\n";
  struct Case {
    std::string row;
    std::string why;
  };
  const std::vector<Case> cases = {
      // Sample 1 is otherwise valid, so only the label can be rejected.
      {"1,999999999999,0,1.0,2.0\n", "label above kMaxCsvClasses"},
      {"1,99999999999999999999999,0,1.0,2.0\n", "label overflows int64"},
      {"-1,0,1,1.0,2.0\n", "negative sample"},
      {"0,-1,1,1.0,2.0\n", "negative label"},
      {"0,0,-1,1.0,2.0\n", "negative t"},
      {"0,0,1,abc,2.0\n", "non-numeric value"},
      {"0,0,1,1.5x,2.0\n", "value with trailing garbage"},
      {"0,0,1,1.0,\n", "empty last field"},
      {"0,0,1,,2.0\n", "empty middle field"},
      {"0,0,1,nan,2.0\n", "NaN"},
      {"0,0,1,1.0,inf\n", "+inf"},
      {"0,0,1,-inf,2.0\n", "-inf"},
      {"0,0,1,1e39,2.0\n", "value beyond float range"},
      {"0,0,1,1.0,2.0,3.0\n", "extra trailing column"},
      {"0,0,1,1.0,2.0,\n", "trailing comma"},
      {"0,0,1,1.0\n", "missing column"},
      {"0,0,1, 1.0,2.0\n", "leading space"},
      {"0,0,abc,1.0,2.0\n", "non-numeric t"},
      {"0,0,0,1.0,2.0\n", "duplicate t"},
      {"0,0,2,1.0,2.0\n", "gapped t"},
      {"0,1,1,1.0,2.0\n", "inconsistent label"},
  };
  for (const Case& c : cases) {
    auto ds = LoadText(header + good + c.row);
    ASSERT_FALSE(ds.ok()) << c.why;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument) << c.why;
    EXPECT_NE(ds.status().message().find("line 3"), std::string::npos)
        << c.why << ": " << ds.status().message();
  }
}

TEST(CsvContractTest, LabelCapIsInclusiveBelow) {
  const std::string max_label = std::to_string(data::kMaxCsvClasses - 1);
  auto ok = LoadText("sample,label,t,ch0\n0," + max_label + ",0,1\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_classes, data::kMaxCsvClasses);
  const std::string over = std::to_string(data::kMaxCsvClasses);
  EXPECT_FALSE(LoadText("sample,label,t,ch0\n0," + over + ",0,1\n").ok());
}

TEST(CsvContractTest, RejectsBadHeaders) {
  for (const std::string text :
       {"", "\n0,0,0,1\n", "sample,label,t\n0,0,0\n",
        "sample,label,time,ch0\n0,0,0,1\n", "label,sample,t,ch0\n0,0,0,1\n",
        "sample,label,t,ch0,x\n0,0,0,1,2\n", "sample,label,t,ch0\n"}) {
    auto ds = LoadText(text);
    EXPECT_FALSE(ds.ok()) << "'" << text << "'";
  }
}

// A junk first row under a wide header is rejected on its own line.
TEST(CsvContractTest, ShortJunkRowUnderWideHeaderIsRejected) {
  std::string text = "sample,label,t";
  for (int d = 0; d < 100000; ++d) text += ",ch";
  text += "\nx\n0,0,0,1\n";
  auto ds = LoadText(text);
  ASSERT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("line 2"), std::string::npos);
}

TEST(CsvContractTest, AcceptsCrlfAndMissingFinalNewline) {
  const std::string lf = "sample,label,t,ch0,ch1\n0,1,0,1.5,2\n0,1,1,3,4\n";
  auto want = LoadText(lf);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  for (const std::string& text :
       {crlf, lf.substr(0, lf.size() - 1), crlf.substr(0, crlf.size() - 2),
        lf + "\n\n"}) {
    auto got = LoadText(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(SameBytes(got->x, want->x));
    EXPECT_EQ(got->y, want->y);
    EXPECT_EQ(got->num_classes, want->num_classes);
  }
}

TEST(CsvContractTest, InterleavedSamplesLoadLikeTheSortedFile) {
  const data::TimeSeriesDataset ds = SmallDataset();
  const std::string path = TempPath("interleave_sorted.csv");
  ASSERT_TRUE(data::SaveCsv(ds, path).ok());
  const std::string text = ReadAll(path);
  auto sorted = data::LoadCsv(path);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();

  // Reverse the data rows: samples come in descending id order and every
  // sample's t runs backwards. Then deal them round-robin across samples.
  const size_t body = text.find('\n') + 1;
  std::vector<std::string> rows;
  for (size_t pos = body; pos < text.size();) {
    const size_t nl = text.find('\n', pos);
    rows.push_back(text.substr(pos, nl + 1 - pos));
    pos = nl + 1;
  }
  const size_t t_len = static_cast<size_t>(ds.length());
  std::string shuffled = text.substr(0, body);
  for (size_t t = 0; t < t_len; ++t) {
    for (size_t i = rows.size() / t_len; i-- > 0;) {
      shuffled += rows[i * t_len + (t_len - 1 - t)];
    }
  }
  ASSERT_EQ(shuffled.size(), text.size());
  auto got = LoadText(shuffled);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameBytes(got->x, sorted->x));
  EXPECT_EQ(got->y, sorted->y);
  EXPECT_EQ(got->num_classes, sorted->num_classes);
  std::remove(path.c_str());
}

TEST(CsvContractTest, SparseSampleIdsAreOrderedAscending) {
  auto ds = LoadText("sample,label,t,ch0\n9,1,0,9\n2,0,0,2\n5,1,0,5\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 3);
  EXPECT_EQ(ds->x.at({0, 0, 0}), 2.0f);
  EXPECT_EQ(ds->x.at({1, 0, 0}), 5.0f);
  EXPECT_EQ(ds->x.at({2, 0, 0}), 9.0f);
  EXPECT_EQ(ds->y, (std::vector<int64_t>{0, 1, 1}));
}

// LoadCsv(SaveCsv(ds)) equals the written text re-parsed field by field with
// strtof: the same tensors as a strtof-based reader, bit for bit.
// The file spans several of the loader's 1 MB read chunks, so rows cut at
// chunk boundaries are covered too.
TEST(CsvContractTest, LoadIsBitIdenticalToStrtof) {
  data::UeaDatasetSpec spec{"csvbig", "csvbig", 40, 4, 48, 128, 3, 2};
  data::TimeSeriesDataset ds =
      data::GenerateUeaLike(spec, 5, data::GeneratorCaps{}).train;
  float* x = ds.x.mutable_data();
  const float specials[] = {std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min(),
                            -0.0f,
                            1e-30f,
                            123456789.0f,
                            -3.14159265f,
                            0.1f};
  for (size_t i = 0; i < std::size(specials); ++i) x[i * 7] = specials[i];
  const std::string path = TempPath("bitident.csv");
  ASSERT_TRUE(data::SaveCsv(ds, path).ok());
  const std::string text = ReadAll(path);
  ASSERT_GT(text.size(), size_t{2} << 20);

  std::vector<float> want(static_cast<size_t>(ds.x.numel()));
  std::vector<int64_t> labels(static_cast<size_t>(ds.size()));
  const int64_t t_len = ds.length(), d_len = ds.channels();
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);  // header
  int64_t rows = 0;
  while (std::getline(is, line)) {
    std::vector<std::string> f;
    std::stringstream ls(line);
    for (std::string field; std::getline(ls, field, ',');) f.push_back(field);
    ASSERT_EQ(static_cast<int64_t>(f.size()), 3 + d_len);
    const int64_t i = std::atoll(f[0].c_str());
    const int64_t t = std::atoll(f[2].c_str());
    labels[static_cast<size_t>(i)] = std::atoll(f[1].c_str());
    for (int64_t d = 0; d < d_len; ++d) {
      want[static_cast<size_t>((i * t_len + t) * d_len + d)] =
          std::strtof(f[static_cast<size_t>(3 + d)].c_str(), nullptr);
    }
    ++rows;
  }
  ASSERT_EQ(rows, ds.size() * t_len);

  auto got = data::LoadCsv(path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->x.numel(), ds.x.numel());
  EXPECT_EQ(std::memcmp(got->x.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_EQ(got->y, labels);
  std::remove(path.c_str());
}

TEST(CsvContractTest, LinesLongerThanAReadChunkLoad) {
  const int64_t channels = 200000;  // ~1.6 MB header line
  std::string text = "sample,label,t";
  for (int64_t d = 0; d < channels; ++d) text += ",ch" + std::to_string(d);
  text += "\n";
  for (int64_t t = 0; t < 2; ++t) {
    text += "0,1," + std::to_string(t);
    for (int64_t d = 0; d < channels; ++d) text += d == 7 ? ",0.5" : ",0";
    text += "\n";
  }
  auto ds = LoadText(text);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->channels(), channels);
  EXPECT_EQ(ds->length(), 2);
  EXPECT_EQ(ds->x.at({0, 1, 7}), 0.5f);
}

// Deterministic mutation loop: truncations, byte flips and huge digit
// strings each load to OK or to an error Status, never an abort. An OK
// result is still a valid dataset.
TEST(CsvContractTest, MutatedFilesNeverAbort) {
  const data::TimeSeriesDataset ds = SmallDataset();
  const std::string path = TempPath("mutation_src.csv");
  ASSERT_TRUE(data::SaveCsv(ds, path).ok());
  const std::string good = ReadAll(path);
  std::remove(path.c_str());
  int64_t loaded = 0, rejected = 0;
  const auto check = [&](const std::string& text) {
    auto got = LoadText(text);
    if (got.ok()) {
      ++loaded;
      EXPECT_TRUE(data::Validate(*got).ok());
      EXPECT_EQ(got->size() * got->length() * got->channels(),
                got->x.numel());
    } else {
      ++rejected;
      EXPECT_NE(got.status().code(), StatusCode::kOk);
    }
  };

  for (size_t len = 0; len < good.size(); len += 7) check(good.substr(0, len));

  Rng rng(20240601);
  for (int i = 0; i < 400; ++i) {
    std::string bad = good;
    const size_t pos = static_cast<size_t>(rng.NextUint64() % bad.size());
    bad[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    check(bad);
  }

  // Huge digit strings in each key column of the first and of a middle row.
  const size_t body = good.find('\n') + 1;
  for (size_t row_start : {body, good.find('\n', good.size() / 2) + 1}) {
    for (int col = 0; col < 3; ++col) {
      for (const std::string& digits :
           {std::string(30, '9'), std::string(4096, '7'),
            "1" + std::string(18, '0')}) {
        size_t b = row_start;
        for (int c = 0; c < col; ++c) b = good.find(',', b) + 1;
        const size_t e = good.find(',', b);
        std::string bad = good;
        bad.replace(b, e - b, digits);
        auto got = LoadText(bad);
        EXPECT_FALSE(got.ok()) << "column " << col << ", "
                               << digits.size() << " digits";
      }
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace tsfm
