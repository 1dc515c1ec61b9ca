// SmpBenchmarkRun: one point on the SMP scaling figure.
//
// The multi-worker sibling of BenchmarkRun: assembles simulator, kernel,
// network, an N-worker pool over the SMP scheduling plane, the inactive
// pool, and the httperf generator, then reduces the records plus the
// SMP-specific observables — herd wakeups per accepted connection, virtual
// context switches, and per-CPU attribution ledgers.

#ifndef SRC_LOAD_SMP_BENCHMARK_RUN_H_
#define SRC_LOAD_SMP_BENCHMARK_RUN_H_

#include <string>
#include <vector>

#include "src/kernel/cost_model.h"
#include "src/kernel/kernel_stats.h"
#include "src/load/benchmark_run.h"
#include "src/load/workload.h"
#include "src/net/net_stack.h"
#include "src/servers/worker_pool.h"
#include "src/trace/time_attribution.h"

namespace scio {

struct SmpBenchmarkConfig {
  // Only kThttpdDevPoll and kPhhttpd are meaningful worker bodies here;
  // other kinds fall back to their plain single-listener setup.
  ServerKind server = ServerKind::kThttpdDevPoll;
  ListenerMode mode = ListenerMode::kSharedWakeAll;
  int workers = 1;
  int cpus = 1;
  uint64_t seed = 0;
  int worker_max_fds = 8192;

  ActiveWorkload active;
  InactiveWorkload inactive;
  size_t document_bytes = 6 * 1024;

  // Torture knobs, mirroring BenchmarkRunConfig: empty schedules and all-off
  // filtering (the defaults) leave existing SMP benches bit-identical.
  FaultSchedule faults;
  AttackSchedule attack;
  bool filter_enabled = false;
  std::vector<FilterRule> static_rules;
  bool adaptive_defense = false;
  DefenseConfig defense;
  int filter_band_width = 1 << 16;

  SimDuration warmup = Seconds(2);
  SimDuration drain = Seconds(4);
  SimDuration sample_width = Seconds(1);

  CostModel cost;
  NetConfig net;
  ServerConfig server_config;
  ThttpdDevPollConfig devpoll_config;
  PhhttpdConfig phhttpd_config;
  size_t rt_queue_max = kDefaultRtQueueMax;
};

// Every BenchmarkResult field keeps its meaning, so Signature() covers an SMP
// run too; per-worker server counters and per-CPU busy time fill the
// multi-worker fields (server_stats stays zero), and cpu_utilization is
// busy_time / (wall * cpus): >1 is impossible, ~1/cpus on one busy worker.
struct SmpBenchmarkResult : BenchmarkResult {
  // Topology.
  int workers = 0;
  int cpus = 0;
  std::string mode;

  // SMP observables, derived from kernel_stats and worker_stats.
  uint64_t total_accepted = 0;
  // Process wakes triggered by listener SYN notifications; the herd metric.
  uint64_t listener_syn_wakeups = 0;
  double wakeups_per_accept = 0;
  uint64_t context_switches = 0;
  uint64_t exclusive_adds = 0;
};

SmpBenchmarkResult RunSmpBenchmark(const SmpBenchmarkConfig& config);

}  // namespace scio

#endif  // SRC_LOAD_SMP_BENCHMARK_RUN_H_
