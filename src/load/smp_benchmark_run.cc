#include "src/load/smp_benchmark_run.h"

#include <algorithm>
#include <memory>

#include "src/load/httperf.h"
#include "src/load/inactive_pool.h"

namespace scio {
namespace {

// Builds the per-worker server. Wake-one semantics are baked into the event
// plane options here: exclusive /dev/poll waiters for thttpd, exclusive
// poll() waiters for phhttpd's fallback path (its signal-mode wake-one is
// the listener's round-robin delivery, set by the WorkerPool).
ServerFactory MakeFactory(const SmpBenchmarkConfig& config, const StaticContent* content) {
  return [&config, content](Sys* sys, int worker_index) -> std::unique_ptr<HttpServerBase> {
    (void)worker_index;
    const bool wake_one = config.mode == ListenerMode::kSharedWakeOne;
    switch (config.server) {
      case ServerKind::kPhhttpd: {
        if (wake_one) {
          PollSyscallOptions opts;
          opts.exclusive_wait = true;
          sys->poll_syscall() = PollSyscall(&sys->kernel(), &sys->proc(), opts);
        }
        return std::make_unique<Phhttpd>(sys, content, config.server_config,
                                         config.phhttpd_config);
      }
      case ServerKind::kThttpdDevPoll:
      default: {
        ThttpdDevPollConfig dp = config.devpoll_config;
        dp.devpoll.exclusive_wait = wake_one;
        return std::make_unique<ThttpdDevPoll>(sys, content, config.server_config, dp);
      }
    }
  };
}

}  // namespace

SmpBenchmarkResult RunSmpBenchmark(const SmpBenchmarkConfig& config) {
  Simulator sim;
  SimKernel kernel(&sim, config.cost);
  FaultPlane fault_plane(&sim, config.faults);
  kernel.set_fault_plane(&fault_plane);
  NetStack net(&kernel, config.net);
  net.InstallFaultPlane(&fault_plane);
  const bool filter_on = config.filter_enabled || !config.static_rules.empty() ||
                         config.adaptive_defense;
  std::unique_ptr<IngressFilterChain> chain;
  if (filter_on) {
    chain = std::make_unique<IngressFilterChain>(&kernel, config.filter_band_width);
    net.set_filter(chain.get());
    for (const FilterRule& rule : config.static_rules) {
      chain->Append(rule);
    }
  }
  StaticContent content;
  content.AddDocument("/index.html", config.document_bytes);

  WorkerPoolConfig pool_config;
  pool_config.workers = config.workers;
  pool_config.cpus = config.cpus;
  pool_config.mode = config.mode;
  pool_config.worker_max_fds = config.worker_max_fds;
  pool_config.seed = config.seed;
  pool_config.rt_queue_max = config.rt_queue_max;
  WorkerPool pool(&kernel, &net, pool_config, MakeFactory(config, &content));

  SmpBenchmarkResult result;
  result.target_rate = config.active.request_rate;
  result.inactive = config.inactive.connections;
  result.workers = config.workers;
  result.cpus = config.cpus;
  result.mode = ListenerModeName(config.mode);

  if (pool.Setup() < 0) {
    result.setup_ok = false;
    return result;
  }

  const std::shared_ptr<SimListener>& listener = pool.head_listener();
  // One defense spans the pool: every worker reports into it, every listener
  // shard registers with it (for sharded mode each shard has its own SYN
  // queue and cookie switch).
  std::unique_ptr<AdaptiveDefense> defense;
  if (config.adaptive_defense) {
    defense = std::make_unique<AdaptiveDefense>(&kernel, chain.get(), config.defense);
    std::vector<SimListener*> seen;
    for (int i = 0; i < pool.workers(); ++i) {
      auto shard = pool.sys(i).listener(pool.server(i).listener_fd());
      if (std::find(seen.begin(), seen.end(), shard.get()) == seen.end()) {
        seen.push_back(shard.get());
        defense->AddListener(shard);
      }
      pool.server(i).set_defense(defense.get());
    }
  }
  InactivePool inactive(&net, listener, config.inactive);
  HttperfGenerator generator(&net, listener, config.active);
  AttackCampaign attack(&net, listener, config.attack);

  attack.Start();
  inactive.Start();
  generator.Start(config.warmup);
  const SimTime until = config.warmup + config.active.duration + config.drain;
  pool.Run(until);
  inactive.Shutdown();
  attack.Shutdown();
  kernel.RequestStop();

  // --- reduction ---------------------------------------------------------------
  ReduceConnRecords(generator.records(), config.warmup, config.active.duration,
                    config.sample_width, &result);

  result.kernel_stats = kernel.stats();
  for (int i = 0; i < pool.workers(); ++i) {
    result.worker_stats.push_back(pool.server(i).stats());
    result.total_accepted += pool.server(i).stats().connections_accepted;
  }
  result.listener_syn_wakeups = kernel.stats().wait_listener_syn_wakeups;
  result.wakeups_per_accept =
      result.total_accepted == 0
          ? 0.0
          : static_cast<double>(result.listener_syn_wakeups) /
                static_cast<double>(result.total_accepted);
  result.context_switches = kernel.stats().smp_context_switches;
  result.exclusive_adds = kernel.stats().wait_exclusive_adds;

  result.attribution = kernel.attribution();
  result.busy_time = kernel.busy_time();
  if (pool.scheduler() != nullptr) {
    for (int cpu = 0; cpu < pool.scheduler()->cpus(); ++cpu) {
      result.cpu_busy.push_back(pool.scheduler()->cpu_ledger(cpu).Sum());
    }
  }
  result.cpu_utilization =
      kernel.now() == 0 ? 0.0
                        : static_cast<double>(kernel.busy_time()) /
                              (static_cast<double>(kernel.now()) * config.cpus);

  result.fault_stats = fault_plane.stats();
  result.attack_stats = attack.stats();
  if (chain != nullptr) {
    result.chain_stats = chain->stats();
  }
  if (defense != nullptr) {
    result.defense_stats = defense->stats();
  }
  for (int i = 0; i < pool.workers(); ++i) {
    auto shard = pool.sys(i).listener(pool.server(i).listener_fd());
    result.syn_backlog_peak =
        std::max<uint64_t>(result.syn_backlog_peak, shard->syn_backlog_peak());
  }

  result.mem = kernel.mem();

  // `sim` outlives `net` on unwind; drop undelivered events (which hold
  // sockets that release ports on destruction) while the stack is alive.
  sim.DiscardPending();
  return result;
}

}  // namespace scio
