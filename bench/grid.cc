#include "bench/grid.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "stats/stats.h"

namespace tsfm::bench {

namespace {

// On-disk record cache shared across bench binaries. One line per run:
// key|completed|test_acc|train_acc|total_s|adapter_s|verdict|sim_s|sim_peak
class RunCache {
 public:
  explicit RunCache(const experiments::ExperimentConfig& config) {
    std::ostringstream path;
    path << config.checkpoint_dir << "/grid_cache_"
         << (config.fast ? "fast" : "full") << ".txt";
    path_ = path.str();
    std::error_code ec;
    std::filesystem::create_directories(config.checkpoint_dir, ec);
    std::ifstream is(path_);
    std::string line;
    while (std::getline(is, line)) {
      const size_t sep = line.find('|');
      if (sep == std::string::npos) continue;
      entries_[line.substr(0, sep)] = line.substr(sep + 1);
    }
    std::fprintf(stderr, "[grid] run cache: %s (%zu entries)\n", path_.c_str(),
                 entries_.size());
  }

  static std::string Key(const experiments::ExperimentConfig& config,
                         const std::string& dataset, models::ModelKind kind,
                         const MethodSpec& method, int64_t seed) {
    std::ostringstream key;
    key << dataset << ";" << models::ModelKindName(kind) << ";"
        << method.label << ";" << finetune::StrategyName(method.strategy)
        << ";" << method.options.out_channels << ";seed" << seed << ";caps"
        << config.caps.max_train << "," << config.caps.max_test << ","
        << config.caps.max_length << "," << config.caps.max_channels;
    return key.str();
  }

  bool Lookup(const std::string& key, experiments::RunRecord* record) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    std::istringstream is(it->second);
    std::string field;
    auto next = [&]() {
      std::getline(is, field, '|');
      return field;
    };
    const bool completed = next() == "1";
    const double test_acc = std::atof(next().c_str());
    const double train_acc = std::atof(next().c_str());
    const double total_s = std::atof(next().c_str());
    const double adapter_s = std::atof(next().c_str());
    const std::string verdict = next();
    const double sim_s = std::atof(next().c_str());
    const double sim_peak = std::atof(next().c_str());
    record->estimate.total_seconds = sim_s;
    record->estimate.peak_memory_bytes = sim_peak;
    if (verdict == "COM") {
      record->estimate.verdict = resources::Verdict::kCudaOutOfMemory;
    } else if (verdict == "TO") {
      record->estimate.verdict = resources::Verdict::kTimeout;
    } else {
      record->estimate.verdict = resources::Verdict::kOk;
    }
    if (completed) {
      finetune::FineTuneResult measured;
      measured.test_accuracy = test_acc;
      measured.train_accuracy = train_acc;
      measured.total_seconds = total_s;
      measured.adapter_fit_seconds = adapter_s;
      record->measured = measured;
    }
    return true;
  }

  void Store(const std::string& key, const experiments::RunRecord& record) {
    std::ostringstream value;
    value.precision(17);  // round-trip doubles exactly
    if (record.completed()) {
      value << "1|" << record.measured->test_accuracy << "|"
            << record.measured->train_accuracy << "|"
            << record.measured->total_seconds << "|"
            << record.measured->adapter_fit_seconds;
    } else {
      value << "0|0|0|0|0";
    }
    value << "|" << resources::VerdictString(record.estimate.verdict) << "|"
          << record.estimate.total_seconds << "|"
          << record.estimate.peak_memory_bytes;
    entries_[key] = value.str();
    std::ofstream os(path_, std::ios::app);
    os << key << "|" << value.str() << "\n";
  }

 private:
  std::string path_;
  std::map<std::string, std::string> entries_;
};

}  // namespace

MethodSpec HeadOnlyMethod() {
  MethodSpec m;
  m.label = "no_adapter";
  m.strategy = finetune::Strategy::kHeadOnly;
  return m;
}

MethodSpec AdapterMethod(core::AdapterKind kind, int64_t out_channels) {
  MethodSpec m;
  m.adapter = kind;
  m.options.out_channels = out_channels;
  m.label = experiments::MethodLabel(m.adapter, m.options);
  m.strategy = finetune::Strategy::kAdapterPlusHead;
  return m;
}

std::vector<MethodSpec> PaperTable2Methods(int64_t out_channels) {
  std::vector<MethodSpec> methods;
  methods.push_back(HeadOnlyMethod());
  for (core::AdapterKind kind : core::AllAdapterKinds()) {
    methods.push_back(AdapterMethod(kind, out_channels));
  }
  return methods;
}

std::vector<MethodSpec> PcaSensitivityMethods(int64_t out_channels) {
  std::vector<MethodSpec> methods;
  methods.push_back(AdapterMethod(core::AdapterKind::kPca, out_channels));
  MethodSpec scaled = AdapterMethod(core::AdapterKind::kPca, out_channels);
  scaled.options.pca_scale = true;
  scaled.label = "ScaledPCA";
  methods.push_back(scaled);
  for (int64_t pws : {8, 16}) {
    MethodSpec patch = AdapterMethod(core::AdapterKind::kPca, out_channels);
    patch.options.pca_patch_window = pws;
    patch.label = "PatchPCA_" + std::to_string(pws);
    methods.push_back(patch);
  }
  return methods;
}

std::string CellResult::Cell() const {
  std::vector<double> accs;
  for (const auto& record : seeds) {
    if (!record.completed()) {
      return resources::VerdictString(record.estimate.verdict);
    }
    accs.push_back(record.measured->test_accuracy);
  }
  if (accs.empty()) return "-";
  return stats::FormatMeanStd(accs);
}

double CellResult::MeanAccuracy() const {
  std::vector<double> accs;
  for (const auto& record : seeds) {
    if (record.completed()) accs.push_back(record.measured->test_accuracy);
  }
  if (accs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return stats::Mean(accs);
}

bool CellResult::AllCompleted() const {
  for (const auto& record : seeds) {
    if (!record.completed()) return false;
  }
  return !seeds.empty();
}

double CellResult::MeanMeasuredSeconds() const {
  std::vector<double> times;
  for (const auto& record : seeds) {
    if (record.completed()) times.push_back(record.measured->total_seconds);
  }
  if (times.empty()) return std::numeric_limits<double>::quiet_NaN();
  return stats::Mean(times);
}

double CellResult::MeanSimulatedSeconds() const {
  std::vector<double> times;
  for (const auto& record : seeds) {
    times.push_back(record.estimate.total_seconds);
  }
  if (times.empty()) return std::numeric_limits<double>::quiet_NaN();
  return stats::Mean(times);
}

std::map<GridKey, CellResult> RunGrid(
    experiments::ExperimentRunner* runner,
    const std::vector<data::UeaDatasetSpec>& datasets,
    const std::vector<models::ModelKind>& model_kinds,
    const std::vector<MethodSpec>& methods) {
  std::map<GridKey, CellResult> grid;
  RunCache cache(runner->config());
  const int64_t num_seeds = runner->config().num_seeds;
  for (const auto& dataset : datasets) {
    for (models::ModelKind kind : model_kinds) {
      for (const MethodSpec& method : methods) {
        CellResult cell;
        for (int64_t seed = 0; seed < num_seeds; ++seed) {
          const std::string key =
              RunCache::Key(runner->config(), dataset.name, kind, method, seed);
          experiments::RunRecord cached;
          cached.dataset = dataset.name;
          cached.model_kind = kind;
          cached.method = method.label;
          cached.seed = static_cast<uint64_t>(seed);
          if (cache.Lookup(key, &cached)) {
            cell.seeds.push_back(std::move(cached));
            continue;
          }
          experiments::RunSpec spec;
          spec.dataset = dataset.name;
          spec.model_kind = kind;
          spec.adapter = method.adapter;
          spec.adapter_options = method.options;
          spec.strategy = method.strategy;
          spec.seed = static_cast<uint64_t>(seed);
          auto record = runner->Run(spec);
          TSFM_CHECK(record.ok())
              << dataset.name << "/" << models::ModelKindName(kind) << "/"
              << method.label << ": " << record.status().ToString();
          cache.Store(key, *record);
          cell.seeds.push_back(std::move(*record));
        }
        std::fprintf(stderr, "[grid] %-22s %-6s %-12s -> %s\n",
                     dataset.name.c_str(), models::ModelKindName(kind),
                     method.label.c_str(), cell.Cell().c_str());
        grid.emplace(GridKey{dataset.name, kind, method.label},
                     std::move(cell));
      }
    }
  }
  return grid;
}

std::string BenchOutputDir() {
  if (const char* dir = std::getenv("TSFM_BENCH_OUT"); dir != nullptr) {
    return dir;
  }
  return ".";
}

}  // namespace tsfm::bench
