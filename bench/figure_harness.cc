#include "bench/figure_harness.h"

#include <charconv>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

#include "src/metrics/table.h"

namespace scio {

namespace {

// Parses all of `text` as a T; false on an empty, junk or out-of-range value.
template <typename T>
bool ParseValue(std::string_view text, T* out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return !text.empty() && ec == std::errc() && end == text.data() + text.size();
}

}  // namespace

gate::Flags ApplyCommandLine(int argc, char** argv, FigureSweepConfig* config) {
  std::optional<std::vector<double>> rates;
  std::optional<double> duration_s;
  std::optional<int> inactive;
  std::optional<uint64_t> seed;
  const auto sweep_flag = [&](const std::string& arg) {
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string::npos ? std::string_view() : std::string_view(arg).substr(eq + 1);
    if (name == "--rates") {
      rates.emplace();
      std::stringstream items{std::string(value)};
      std::string item;
      while (std::getline(items, item, ',')) {
        if (!ParseValue(item, &rates->emplace_back())) {
          return false;
        }
      }
      return !rates->empty();
    }
    if (name == "--duration") {
      return ParseValue(value, &duration_s.emplace());
    }
    if (name == "--inactive") {
      return ParseValue(value, &inactive.emplace());
    }
    if (name == "--seed") {
      return ParseValue(value, &seed.emplace());
    }
    return false;
  };
  const gate::Flags flags =
      gate::ParseFlags(argc, argv, gate::Accept::kQuick, "", sweep_flag,
                       " [--rates=R,R,...] [--duration=S] [--inactive=N] [--seed=N]");
  if (flags.quick) {
    config->duration = Seconds(4);
    config->rates = {500, 700, 900, 1100};
  }
  if (rates) {
    config->rates = *rates;
  }
  if (duration_s) {
    config->duration = SecondsF(*duration_s);
  }
  if (inactive) {
    config->inactive = *inactive;
  }
  if (seed) {
    config->seed = *seed;
  }
  return flags;
}

BenchmarkRunConfig SweepPointConfig(const FigureSweepConfig& config, double rate) {
  BenchmarkRunConfig run = config.base;
  run.server = config.server;
  run.active.request_rate = rate;
  run.active.duration = config.duration;
  run.active.seed = config.seed + static_cast<uint64_t>(rate);
  run.inactive.connections = config.inactive;
  run.inactive.seed = config.seed * 31 + static_cast<uint64_t>(rate);
  run.sample_width = config.sample_width;
  return run;
}

std::vector<std::string> SweepCsvHeaders() {
  std::vector<std::string> headers = {"rate",      "reply_avg", "reply_min",
                                      "reply_max", "reply_sd",  "err_pct",
                                      "median_ms", "p90_ms"};
  for (size_t i = 0; i < kChargeCatCount; ++i) {
    headers.push_back(std::string("t_") + ChargeCatName(static_cast<ChargeCat>(i)) + "_ms");
  }
  return headers;
}

std::vector<std::string> SweepCsvCells(double rate, const BenchmarkResult& result) {
  // Shared columns keep the console precision (so they stay comparable
  // against historical CSVs cell for cell); the breakdown columns carry
  // more digits because small categories round to 0.0 at one decimal.
  std::vector<std::string> cells;
  for (double v : {rate, result.reply_avg, result.reply_min, result.reply_max,
                   result.reply_stddev, result.error_pct, result.median_conn_ms,
                   result.p90_conn_ms}) {
    cells.push_back(gate::Fixed(v, 1));
  }
  for (size_t i = 0; i < kChargeCatCount; ++i) {
    cells.push_back(gate::Fixed(ToMillis(result.attribution[static_cast<ChargeCat>(i)]), 3));
  }
  return cells;
}

std::vector<BenchmarkResult> RunFigureSweep(const FigureSweepConfig& config) {
  std::cout << "=== " << config.figure_id << ": " << config.title << " ===\n";
  std::cout << "server=" << ServerKindName(config.server) << " inactive=" << config.inactive
            << " duration=" << ToSeconds(config.duration) << "s\n\n";

  Table table({"rate", "reply_avg", "reply_min", "reply_max", "reply_sd", "err_pct",
               "median_ms", "p90_ms"});
  // The CSV carries the console columns plus the per-category virtual-CPU
  // breakdown — the console table stays as the paper-figure series.
  Table csv_table(SweepCsvHeaders());
  std::vector<BenchmarkResult> results;
  for (double rate : config.rates) {
    BenchmarkResult result = RunBenchmark(SweepPointConfig(config, rate));
    table.AddRow({rate, result.reply_avg, result.reply_min, result.reply_max,
                  result.reply_stddev, result.error_pct, result.median_conn_ms,
                  result.p90_conn_ms});
    csv_table.AddRow(SweepCsvCells(rate, result));
    results.push_back(std::move(result));
  }
  table.Print(std::cout);
  const std::string csv = config.figure_id + ".csv";
  if (csv_table.WriteCsvFile(csv)) {
    std::cout << "\n(csv written to " << csv << ")\n";
  }
  std::cout << std::endl;
  return results;
}

}  // namespace scio
