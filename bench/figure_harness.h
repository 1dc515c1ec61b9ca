// Shared driver for the paper-figure benchmark binaries.
//
// Each FIG binary declares a server kind and an inactive-connection load and
// sweeps the targeted request rate over the paper's x-axis (500..1100),
// printing the same series the figure plots and writing a CSV next to it.

#ifndef BENCH_FIGURE_HARNESS_H_
#define BENCH_FIGURE_HARNESS_H_

#include <string>
#include <vector>

#include "bench/gate.h"
#include "src/load/benchmark_run.h"

namespace scio {

struct FigureSweepConfig {
  std::string figure_id;      // e.g. "fig04"
  std::string title;
  ServerKind server = ServerKind::kThttpdPoll;
  int inactive = 1;
  std::vector<double> rates = {500, 600, 700, 800, 900, 1000, 1100};
  SimDuration duration = Seconds(10);
  SimDuration sample_width = Seconds(1);
  uint64_t seed = 42;
  // Knobs forwarded to the run config (for ablation binaries).
  BenchmarkRunConfig base;
};

// Run the sweep, print the figure table to stdout, write <figure_id>.csv in
// the working directory. Returns the per-rate results.
std::vector<BenchmarkResult> RunFigureSweep(const FigureSweepConfig& config);

// The run config for one sweep point at `rate`: seeds derive from
// config.seed and the rate, so every server at a given (load, rate) faces
// the identical arrival sequence.
BenchmarkRunConfig SweepPointConfig(const FigureSweepConfig& config, double rate);

// The sweep CSV: rate, reply-rate summary and latency columns, then the
// per-category virtual-CPU breakdown in milliseconds.
std::vector<std::string> SweepCsvHeaders();
std::vector<std::string> SweepCsvCells(double rate, const BenchmarkResult& result);

// Parse "--rates=500,700" / "--duration=5" / "--inactive=N" / "--seed=N" /
// "--quick" overrides; explicit values win over --quick's. An unknown or
// malformed flag exits with status 2.
gate::Flags ApplyCommandLine(int argc, char** argv, FigureSweepConfig* config);

}  // namespace scio

#endif  // BENCH_FIGURE_HARNESS_H_
