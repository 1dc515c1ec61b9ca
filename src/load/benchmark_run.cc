#include "src/load/benchmark_run.h"

#include <memory>
#include <sstream>
#include <string_view>

#include "src/load/abusive_clients.h"
#include "src/load/httperf.h"
#include "src/load/inactive_pool.h"
#include "src/metrics/percentile.h"
#include "src/metrics/rate_series.h"

namespace scio {

std::string ServerKindName(ServerKind kind) {
  switch (kind) {
    case ServerKind::kThttpdPoll:
      return "thttpd-poll";
    case ServerKind::kThttpdDevPoll:
      return "thttpd-devpoll";
    case ServerKind::kPhhttpd:
      return "phhttpd";
    case ServerKind::kHybrid:
      return "hybrid";
    case ServerKind::kThttpdEpoll:
      return "thttpd-epoll";
    case ServerKind::kThttpdEpollEt:
      return "thttpd-epoll-et";
    case ServerKind::kPhhttpdKqueue:
      return "phhttpd-kqueue";
  }
  return "unknown";
}

std::unique_ptr<HttpServerBase> MakeServer(const BenchmarkRunConfig& config, Sys* sys,
                                           const StaticContent* content, bool* setup_ok) {
  std::unique_ptr<HttpServerBase> server;
  switch (config.server) {
    case ServerKind::kThttpdPoll:
      server = std::make_unique<ThttpdPoll>(sys, content, config.server_config,
                                            config.poll_options);
      *setup_ok = server->Setup() >= 0;
      break;
    case ServerKind::kThttpdDevPoll: {
      auto s = std::make_unique<ThttpdDevPoll>(sys, content, config.server_config,
                                               config.devpoll_config);
      *setup_ok = s->Setup() >= 0 && s->SetupDevPoll() >= 0;
      server = std::move(s);
      break;
    }
    case ServerKind::kPhhttpd: {
      auto s = std::make_unique<Phhttpd>(sys, content, config.server_config,
                                         config.phhttpd_config);
      *setup_ok = s->Setup() >= 0;
      if (*setup_ok) {
        s->SetupSignals();
      }
      server = std::move(s);
      break;
    }
    case ServerKind::kHybrid: {
      auto s = std::make_unique<HybridServer>(sys, content, config.server_config,
                                              config.devpoll_config, config.hybrid_config);
      *setup_ok = s->Setup() >= 0 && s->SetupDevPoll() >= 0;
      if (*setup_ok) {
        s->SetupHybrid();
      }
      server = std::move(s);
      break;
    }
    case ServerKind::kThttpdEpoll:
    case ServerKind::kThttpdEpollEt: {
      ThttpdEpollConfig ep = config.epoll_config;
      ep.edge_triggered =
          config.server == ServerKind::kThttpdEpollEt || ep.edge_triggered;
      auto s = std::make_unique<ThttpdEpoll>(sys, content, config.server_config, ep);
      *setup_ok = s->Setup() >= 0 && s->SetupEpoll() >= 0;
      server = std::move(s);
      break;
    }
    case ServerKind::kPhhttpdKqueue: {
      auto s = std::make_unique<PhhttpdKqueue>(sys, content, config.server_config,
                                               config.kqueue_config);
      *setup_ok = s->Setup() >= 0 && s->SetupKqueue() >= 0;
      server = std::move(s);
      break;
    }
  }
  return server;
}

void ReduceConnRecords(const std::deque<ConnRecord>& records, SimTime warmup,
                       SimDuration duration, SimDuration sample_width,
                       BenchmarkResult* result) {
  PercentileTracker conn_times;
  conn_times.Reserve(records.size());
  // Only samples inside the generation window count (the drain tail would
  // drag the average down even for a perfect server).
  RateSeries window(sample_width, duration);
  for (const ConnRecord& record : records) {
    ++result->attempts;
    switch (record.outcome) {
      case ConnOutcome::kOk:
        ++result->successes;
        window.Add(record.end - warmup);
        conn_times.Add(ToMillis(record.ConnTime()));
        break;
      case ConnOutcome::kPending:
        ++result->pending;
        break;
      default:
        ++result->errors;
        break;
    }
  }
  const StreamingStats rate_stats = window.Summary();
  result->reply_series = window.Rates();
  result->reply_avg = rate_stats.mean();
  result->reply_min = rate_stats.min();
  result->reply_max = rate_stats.max();
  result->reply_stddev = rate_stats.stddev();
  const uint64_t resolved = result->successes + result->errors;
  result->error_pct = resolved == 0 ? 0.0
                                    : 100.0 * static_cast<double>(result->errors) /
                                          static_cast<double>(resolved);
  result->median_conn_ms = conn_times.Median();
  result->p90_conn_ms = conn_times.Percentile(90.0);
}

BenchmarkResult RunBenchmark(const BenchmarkRunConfig& config) {
  Simulator sim;
  SimKernel kernel(&sim, config.cost);
  FaultPlane fault_plane(&sim, config.faults);
  kernel.set_fault_plane(&fault_plane);
  if (config.recorder != nullptr) {
    kernel.set_recorder(config.recorder);
    fault_plane.set_recorder(config.recorder);
    config.recorder->MarkPhase("warmup", 0);
    config.recorder->MarkPhase("generate", config.warmup);
    config.recorder->MarkPhase("drain", config.warmup + config.active.duration);
  }
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
  // Declared after `net`: the plane detaches its sockets and deregisters
  // from the stack before either dies on unwind.
  std::unique_ptr<TransportPlane> transport;
  if (config.transport_enabled) {
    transport = std::make_unique<TransportPlane>(&kernel, &net, config.transport);
  }
  Process& proc = kernel.CreateProcess("server", config.server_max_fds);
  proc.set_rt_queue_max(config.rt_queue_max);
  Sys sys(&kernel, &proc, &net);
  StaticContent content;
  content.AddDocument("/index.html", config.document_bytes);

  bool setup_ok = true;
  std::unique_ptr<HttpServerBase> server = MakeServer(config, &sys, &content, &setup_ok);
  if (!setup_ok) {
    BenchmarkResult failed;
    failed.setup_ok = false;
    failed.target_rate = config.active.request_rate;
    failed.inactive = config.inactive.connections;
    failed.fault_stats = fault_plane.stats();
    return failed;
  }

  auto listener = sys.listener(server->listener_fd());
  std::unique_ptr<AdaptiveDefense> defense;
  if (config.adaptive_defense) {
    defense = std::make_unique<AdaptiveDefense>(&kernel, chain.get(), config.defense);
    defense->AddListener(listener);
    server->set_defense(defense.get());
  }
  InactivePool pool(&net, listener, config.inactive);
  HttperfGenerator generator(&net, listener, config.active);
  AbusiveFleet abusive(&net, listener, config.abusive);
  AttackCampaign attack(&net, listener, config.attack);

  attack.Start();
  pool.Start();
  if (abusive.enabled()) {
    const SimTime abusive_start = config.abusive.start_at;
    const SimDuration abusive_for =
        config.abusive.active_for > 0
            ? config.abusive.active_for
            : config.warmup + config.active.duration - abusive_start;
    abusive.Start(abusive_start, abusive_for);
  }
  generator.Start(config.warmup);
  const SimTime until = config.warmup + config.active.duration + config.drain;
  server->Run(until);
  pool.Shutdown();
  abusive.Shutdown();
  attack.Shutdown();
  kernel.RequestStop();

  // --- reduction ---------------------------------------------------------------
  BenchmarkResult result;
  result.target_rate = config.active.request_rate;
  result.inactive = config.inactive.connections;

  ReduceConnRecords(generator.records(), config.warmup, config.active.duration,
                    config.sample_width, &result);

  result.kernel_stats = kernel.stats();
  result.server_stats = server->stats();
  result.attribution = kernel.attribution();
  result.busy_time = kernel.busy_time();
  result.cpu_utilization =
      kernel.now() == 0 ? 0.0
                        : static_cast<double>(kernel.busy_time()) / static_cast<double>(kernel.now());
  result.rt_queue_peak = proc.rt_queue_peak();
  result.inactive_reconnects = pool.reconnects();
  result.trickle_bytes = pool.trickle_bytes_sent();
  if (auto* ph = dynamic_cast<Phhttpd*>(server.get())) {
    result.phhttpd_fell_back_to_poll = ph->in_poll_fallback();
  }
  result.hybrid_mode_switches = result.server_stats.mode_switches;
  if (auto* hybrid = dynamic_cast<HybridServer*>(server.get())) {
    result.hybrid_in_signal_mode = hybrid->mode() == EventMode::kSignals;
  }
  result.fault_stats = fault_plane.stats();
  result.client_retries = generator.retries();
  result.abusive_aborts = abusive.aborts_completed();
  result.slowloris_reconnects = abusive.slowloris_reconnects();
  result.attack_stats = attack.stats();
  if (chain != nullptr) {
    result.chain_stats = chain->stats();
  }
  if (defense != nullptr) {
    result.defense_stats = defense->stats();
  }
  if (transport != nullptr) {
    result.transport_stats = transport->stats();
  }
  result.syn_backlog_peak = listener->syn_backlog_peak();
  result.mem = kernel.mem();

  // `sim` outlives `net` on unwind; drop undelivered events (which hold
  // sockets that release ports on destruction) while the stack is alive.
  sim.DiscardPending();
  return result;
}

std::string Signature(const BenchmarkResult& r) {
  std::ostringstream out;
  out.precision(17);
  const auto row = [&out](std::string_view name, const auto& value) {
    out << name << '=' << value << ';';
  };
  const auto rows = [&row](const auto& table) {
    for (const auto& [name, value] : table) {
      row(name, value);
    }
  };
  const auto series = [&out](std::string_view name, const auto& values) {
    out << name << '=';
    for (const auto& v : values) {
      out << v << ',';
    }
    out << ';';
  };

  row("target_rate", r.target_rate);
  row("inactive", r.inactive);
  row("reply_avg", r.reply_avg);
  row("reply_min", r.reply_min);
  row("reply_max", r.reply_max);
  row("reply_stddev", r.reply_stddev);
  row("attempts", r.attempts);
  row("successes", r.successes);
  row("errors", r.errors);
  row("pending", r.pending);
  row("error_pct", r.error_pct);
  row("median_conn_ms", r.median_conn_ms);
  row("p90_conn_ms", r.p90_conn_ms);
  row("busy_time", r.busy_time);
  row("inactive_reconnects", r.inactive_reconnects);
  row("trickle_bytes", r.trickle_bytes);
  row("phhttpd_fell_back_to_poll", r.phhttpd_fell_back_to_poll);
  row("hybrid_mode_switches", r.hybrid_mode_switches);
  row("cpu_utilization", r.cpu_utilization);
  row("rt_queue_peak", r.rt_queue_peak);
  row("client_retries", r.client_retries);
  row("abusive_aborts", r.abusive_aborts);
  row("slowloris_reconnects", r.slowloris_reconnects);
  row("hybrid_in_signal_mode", r.hybrid_in_signal_mode);
  row("setup_ok", r.setup_ok);
  row("syn_backlog_peak", r.syn_backlog_peak);

  rows(r.kernel_stats.ToRows());
  rows(r.server_stats.ToRows());
  for (const ServerStats& worker : r.worker_stats) {
    out << "worker:";
    rows(worker.ToRows());
  }
  rows(r.fault_stats.ToRows());
  rows(r.attack_stats.ToRows());
  rows(r.chain_stats.ToRows());
  rows(r.defense_stats.ToRows());
  rows(r.transport_stats.ToRows());
  out << "cpu:";
  rows(r.attribution.ToRows());
  out << "mem:";
  rows(r.mem.ToRows());
  series("cpu_busy", r.cpu_busy);
  series("reply_series", r.reply_series);
  return out.str();
}

}  // namespace scio
