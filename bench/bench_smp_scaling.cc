// SMP scaling: herd wakeups and multi-worker throughput, 1 -> 8 CPUs.
//
// Two experiments the paper's single-CPU testbed could not run:
//
//  1. Herd ablation (light load, 501 inactive connections, workers mostly
//     asleep): counts listener wakeups per accepted connection. Shared
//     wake-all reproduces the pre-2.3 thundering herd (wakeups/accept grows
//     with N); shared wake-one (WQ_FLAG_EXCLUSIVE + round-robin signals)
//     pins it at ~1; sharded accept has no shared queue at all.
//
//  2. Scaling sweep (offered load past single-CPU saturation, gigabit link):
//     reply rate as workers/CPUs grow. One CPU saturates; sharded N-CPU
//     pools should scale near-linearly until the load is absorbed.
//
// Every configuration runs twice with the same seed; any run Signature()
// mismatch is a determinism failure and the bench exits non-zero.
//
// Usage: bench_smp_scaling [--quick] [--json=FILE]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/gate.h"
#include "src/load/smp_benchmark_run.h"

namespace scio {
namespace {

struct Row {
  SmpBenchmarkResult r;
  std::string server;
};

SmpBenchmarkConfig BaseConfig(ServerKind server, ListenerMode mode, int n, bool quick) {
  SmpBenchmarkConfig config;
  config.server = server;
  config.mode = mode;
  config.workers = n;
  config.cpus = n;
  config.seed = 1789;
  config.active.seed = 17;
  config.inactive.seed = 23;
  config.warmup = quick ? Millis(500) : Seconds(1);
  config.drain = quick ? Seconds(1) : Seconds(2);
  return config;
}

// Phase 1: light load, large inactive population — workers sleep between
// SYNs, so every SYN finds the whole pool on the listener's wait queue.
SmpBenchmarkConfig HerdConfig(ServerKind server, ListenerMode mode, int n, bool quick) {
  SmpBenchmarkConfig config = BaseConfig(server, mode, n, quick);
  config.active.request_rate = 600;
  config.active.duration = quick ? Seconds(2) : Seconds(5);
  config.inactive.connections = 501;
  return config;
}

// Phase 2: offered load well past one CPU's capacity, on a gigabit link so
// the wire is not the bottleneck.
SmpBenchmarkConfig ScalingConfig(ServerKind server, ListenerMode mode, int n,
                                 bool quick) {
  SmpBenchmarkConfig config = BaseConfig(server, mode, n, quick);
  config.active.request_rate = 4500;
  config.active.duration = quick ? Seconds(2) : Seconds(5);
  config.inactive.connections = 501;
  config.net.bandwidth_bps = 1e9;
  return config;
}

// Runs the configuration twice; a signature mismatch fails the bench.
SmpBenchmarkResult RunChecked(const SmpBenchmarkConfig& config, gate::Tally* tally) {
  std::cerr << "running " << ServerKindName(config.server) << " "
            << ListenerModeName(config.mode) << " n=" << config.workers << " ...\n";
  SmpBenchmarkResult first;
  if (!tally->Check(gate::RunsIdentical([&] { return RunSmpBenchmark(config); }, &first))) {
    std::cerr << "DETERMINISM FAILURE: " << ListenerModeName(config.mode) << " n="
              << config.workers << " " << ServerKindName(config.server)
              << ": double runs diverged\n";
  }
  return first;
}

void PrintTable(const char* title, const std::vector<Row>& rows) {
  std::printf("\n%s\n", title);
  std::printf(
      "%-16s %-16s %4s | %10s %10s %8s | %12s %10s %10s\n", "server", "mode", "n",
      "replies/s", "err%", "accepts", "wakeups/acc", "ctx-sw", "cpu-util");
  for (const Row& row : rows) {
    std::printf(
        "%-16s %-16s %4d | %10.1f %10.2f %8llu | %12.3f %10llu %10.3f\n",
        row.server.c_str(), row.r.mode.c_str(), row.r.workers, row.r.reply_avg,
        row.r.error_pct, static_cast<unsigned long long>(row.r.total_accepted),
        row.r.wakeups_per_accept,
        static_cast<unsigned long long>(row.r.context_switches),
        row.r.cpu_utilization);
  }
}

std::string ToJson(const char* phase, const Row& row) {
  using gate::Num;
  using gate::Quote;
  return gate::JsonRow({{"phase", Quote(phase)},
                        {"server", Quote(row.server)},
                        {"mode", Quote(row.r.mode)},
                        {"workers", Num(row.r.workers)},
                        {"cpus", Num(row.r.cpus)},
                        {"reply_avg", Num(row.r.reply_avg)},
                        {"error_pct", Num(row.r.error_pct)},
                        {"total_accepted", Num(row.r.total_accepted)},
                        {"listener_syn_wakeups", Num(row.r.listener_syn_wakeups)},
                        {"wakeups_per_accept", Num(row.r.wakeups_per_accept)},
                        {"context_switches", Num(row.r.context_switches)},
                        {"exclusive_adds", Num(row.r.exclusive_adds)},
                        {"cpu_utilization", Num(row.r.cpu_utilization)},
                        {"median_conn_ms", Num(row.r.median_conn_ms)}});
}

}  // namespace
}  // namespace scio

int main(int argc, char** argv) {
  using namespace scio;

  const gate::Flags flags = gate::ParseFlags(argc, argv, gate::Accept::kQuickAndJson);
  const bool quick = flags.quick;

  const std::vector<ServerKind> servers = {ServerKind::kThttpdDevPoll,
                                           ServerKind::kPhhttpd};
  const std::vector<ListenerMode> modes = {ListenerMode::kSharedWakeAll,
                                           ListenerMode::kSharedWakeOne,
                                           ListenerMode::kSharded};
  const std::vector<int> sizes = quick ? std::vector<int>{1, 4}
                                       : std::vector<int>{1, 2, 4, 8};

  gate::Tally tally;
  gate::JsonReport json;

  // One phase: every (server, mode, n) cell, each run twice.
  const auto run_phase = [&](const char* phase, auto make_config) {
    std::vector<Row> rows;
    for (ServerKind server : servers) {
      for (ListenerMode mode : modes) {
        for (int n : sizes) {
          const SmpBenchmarkResult r = RunChecked(make_config(server, mode, n, quick), &tally);
          if (!r.setup_ok) {
            std::cerr << "setup failed: " << phase << " " << ListenerModeName(mode)
                      << " n=" << n << "\n";
            tally.Fail();
            continue;
          }
          Row row{r, ServerKindName(server)};
          json.results.push_back(ToJson(phase, row));
          rows.push_back(std::move(row));
        }
      }
    }
    return rows;
  };
  const std::vector<Row> herd_rows = run_phase("herd", HerdConfig);
  PrintTable("== Herd ablation: light load, 501 inactive, workers sleeping ==",
             herd_rows);
  const std::vector<Row> scaling_rows = run_phase("scaling", ScalingConfig);
  PrintTable("== Scaling sweep: 4500 conn/s offered, gigabit link ==", scaling_rows);

  // --- acceptance checks -------------------------------------------------------
  // (a) wake-all herd grows with N; (b) wake-one stays ~1; (c) sharded
  // throughput scales 1 -> 4 CPUs under saturating load.
  auto find = [](const std::vector<Row>& rows, const std::string& server,
                 const std::string& mode, int n) -> const Row* {
    for (const Row& row : rows) {
      if (row.server == server && row.r.mode == mode && row.r.workers == n) {
        return &row;
      }
    }
    return nullptr;
  };
  const int big = quick ? 4 : 8;
  for (const char* server : {"thttpd-devpoll", "phhttpd"}) {
    const Row* herd_big = find(herd_rows, server, "shared-wake-all", big);
    const Row* herd_one = find(herd_rows, server, "shared-wake-all", 1);
    const Row* one_big = find(herd_rows, server, "shared-wake-one", big);
    if (herd_big == nullptr || herd_one == nullptr || one_big == nullptr) {
      std::cerr << "CHECK SKIPPED (missing rows): " << server << "\n";
      tally.Fail();
      continue;
    }
    if (herd_big->r.wakeups_per_accept <= 1.0 ||
        herd_big->r.wakeups_per_accept <= herd_one->r.wakeups_per_accept) {
      std::cerr << "CHECK FAILED: " << server
                << " wake-all herd did not grow with N (n=" << big << ": "
                << herd_big->r.wakeups_per_accept << ", n=1: "
                << herd_one->r.wakeups_per_accept << ")\n";
      tally.Fail();
    }
    if (one_big->r.wakeups_per_accept > 1.5) {
      std::cerr << "CHECK FAILED: " << server << " wake-one wakeups/accept = "
                << one_big->r.wakeups_per_accept << " (expected ~1)\n";
      tally.Fail();
    }
    const Row* sharded1 = find(scaling_rows, server, "sharded", 1);
    const Row* sharded4 = find(scaling_rows, server, "sharded", 4);
    if (sharded1 == nullptr || sharded4 == nullptr) {
      std::cerr << "CHECK SKIPPED (missing scaling rows): " << server << "\n";
      tally.Fail();
      continue;
    }
    if (sharded4->r.reply_avg < 3.0 * sharded1->r.reply_avg) {
      std::cerr << "CHECK FAILED: " << server << " sharded 4-CPU reply rate "
                << sharded4->r.reply_avg << " < 3x 1-CPU " << sharded1->r.reply_avg
                << "\n";
      tally.Fail();
    }
  }

  if (!flags.json.empty()) {
    json.trail = {{"determinism_failures", gate::Num(tally.failures())}};
    json.Write(flags.json);
  }
  return tally.Finish();
}
