#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "experiments/runner.h"
#include "experiments/table.h"

namespace tsfm {
namespace {

using experiments::ExperimentConfig;
using experiments::ExperimentRunner;
using experiments::RunSpec;

ExperimentConfig TestConfig() {
  ExperimentConfig config;
  config.fast = true;
  config.num_seeds = 1;
  config.caps = data::GeneratorCaps{24, 16, 32, 12};
  config.checkpoint_dir = ::testing::TempDir();
  return config;
}

TEST(TableTest, AlignmentAndRows) {
  experiments::Table t({"dataset", "acc"});
  t.AddRow({"NATOPS", "0.93"});
  t.AddRow({"DuckDuckGeese", "COM"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("dataset"), std::string::npos);
  EXPECT_NE(s.find("DuckDuckGeese"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvEscaping) {
  experiments::Table t({"name", "value"});
  t.AddRow({"with,comma", "with\"quote"});
  const std::string path = ::testing::TempDir() + "/table.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {0};
  fread(buf, 1, sizeof(buf) - 1, f);
  fclose(f);
  const std::string contents(buf);
  EXPECT_NE(contents.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(contents.find("\"with\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(MethodLabelTest, Labels) {
  core::AdapterOptions o;
  EXPECT_EQ(experiments::MethodLabel(std::nullopt, o), "no_adapter");
  EXPECT_EQ(experiments::MethodLabel(core::AdapterKind::kPca, o), "PCA");
  o.pca_scale = true;
  EXPECT_EQ(experiments::MethodLabel(core::AdapterKind::kPca, o), "ScaledPCA");
  o.pca_scale = false;
  o.pca_patch_window = 8;
  EXPECT_EQ(experiments::MethodLabel(core::AdapterKind::kPca, o),
            "PatchPCA_8");
  EXPECT_EQ(experiments::MethodLabel(core::AdapterKind::kVar, o), "VAR");
}

TEST(ConfigFromEnvTest, ReadsVariables) {
  setenv("TSFM_BENCH_FAST", "1", 1);
  setenv("TSFM_SEEDS", "5", 1);
  setenv("TSFM_DATASETS", "NATOPS,Vowels", 1);
  ExperimentConfig config = experiments::ConfigFromEnv();
  EXPECT_TRUE(config.fast);
  EXPECT_EQ(config.num_seeds, 5);
  ASSERT_EQ(config.dataset_filter.size(), 2u);
  EXPECT_EQ(config.dataset_filter[0], "NATOPS");
  unsetenv("TSFM_BENCH_FAST");
  unsetenv("TSFM_SEEDS");
  unsetenv("TSFM_DATASETS");
}

TEST(RunnerTest, DatasetFilterWorks) {
  ExperimentConfig config = TestConfig();
  config.dataset_filter = {"NATOPS", "Vowels"};
  ExperimentRunner runner(config);
  auto datasets = runner.Datasets();
  ASSERT_EQ(datasets.size(), 2u);
  // Paper (Table 3) order is preserved: JapaneseVowels precedes NATOPS.
  EXPECT_EQ(datasets[0].name, "JapaneseVowels");
  EXPECT_EQ(datasets[1].name, "NATOPS");
}

TEST(RunnerTest, NoFilterGivesAllTwelve) {
  ExperimentRunner runner(TestConfig());
  EXPECT_EQ(runner.Datasets().size(), 12u);
}

TEST(RunnerTest, EstimateMarksPaperScaleComTo) {
  ExperimentRunner runner(TestConfig());
  // DuckDuckGeese full FT without adapter must be COM at paper scale.
  RunSpec spec;
  spec.dataset = "DuckDuckGeese";
  spec.model_kind = models::ModelKind::kMoment;
  spec.strategy = finetune::Strategy::kFullFineTune;
  auto est = runner.Estimate(spec);
  EXPECT_EQ(est.verdict, resources::Verdict::kCudaOutOfMemory);
  // Behind a PCA adapter (D'=5) the same run fits in memory.
  spec.adapter = core::AdapterKind::kPca;
  auto est2 = runner.Estimate(spec);
  EXPECT_NE(est2.verdict, resources::Verdict::kCudaOutOfMemory);
}

TEST(RunnerTest, ComRunSkipsTraining) {
  ExperimentRunner runner(TestConfig());
  RunSpec spec;
  spec.dataset = "PEMS-SF";
  spec.model_kind = models::ModelKind::kVit;
  spec.strategy = finetune::Strategy::kFullFineTune;
  auto record = runner.Run(spec);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_FALSE(record->completed());
  EXPECT_EQ(record->CellString(), "COM");
}

TEST(RunnerTest, OkRunExecutesAndReportsAccuracy) {
  ExperimentRunner runner(TestConfig());
  RunSpec spec;
  spec.dataset = "JapaneseVowels";
  spec.model_kind = models::ModelKind::kVit;
  spec.adapter = core::AdapterKind::kPca;
  spec.strategy = finetune::Strategy::kAdapterPlusHead;
  spec.adapter_options.out_channels = 5;
  auto record = runner.Run(spec);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  ASSERT_TRUE(record->completed());
  EXPECT_GT(record->accuracy(), 0.0);
  EXPECT_LE(record->accuracy(), 1.0);
  EXPECT_EQ(record->method, "PCA");
  // CellString is a number.
  EXPECT_EQ(record->CellString().find("COM"), std::string::npos);
}

TEST(RunnerTest, ModelsAreCachedAcrossRuns) {
  ExperimentRunner runner(TestConfig());
  auto m1 = runner.GetModel(models::ModelKind::kVit);
  auto m2 = runner.GetModel(models::ModelKind::kVit);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m1->get(), m2->get());
}

}  // namespace
}  // namespace tsfm
