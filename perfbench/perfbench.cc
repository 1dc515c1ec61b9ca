// perfbench: one repetition of one benchmark workload, as one process.
//
// Assembles a simulated world from the public classes (Simulator, SimKernel,
// NetStack, a server or a WorkerPool, InactivePool, HttperfGenerator), runs
// it, checks its invariants and prints one JSON object on the last line of
// stdout. perfbench/run.py launches one process per repetition, so every
// repetition pays the same cold start (page faults, heap growth) and
// ru_maxrss is that repetition's own peak.
//
// Usage: perfbench --workload NAME --seed N [--small]
//   workloads: devpoll-scan, idle-fleet, smp-sharded
//   --small    tiny sizes for run.py's self-check mode
//
// Host times:
//   setup_s     main() entry -> the first simulated event (world assembly,
//               server Setup*(), load generators scheduled)
//   wall_s      first simulated event -> end of world teardown
//   host_cpu_s  user+sys CPU of the whole process over wall_s
// Modelled (virtual-time) outputs are a pure function of the workload and
// seed; their digest must be identical across repetitions and binaries.
//
// The traced build (PERFBENCH_TRACE=1, linked with --wrap on each layer's
// entry points) adds a "trace" object with per-layer host self time and call
// counts.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "span_trace.h"
#include "src/kernel/sim_kernel.h"
#include "src/load/httperf.h"
#include "src/load/inactive_pool.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/servers/thttpd_devpoll.h"
#include "src/servers/thttpd_epoll.h"
#include "src/servers/worker_pool.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using scio::ChargeCat;
using scio::MemSys;
using scio::SimDuration;
using scio::SimTime;

// ---------------------------------------------------------------------------
// Host clocks.

struct HostSample {
  uint64_t wall_ns = 0;
  uint64_t user_ns = 0;
  uint64_t sys_ns = 0;
  long nvcsw = 0;
  long maxrss_kb = 0;
};

uint64_t TvNs(const timeval& tv) {
  return static_cast<uint64_t>(tv.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
}

HostSample SampleHost() {
  HostSample s;
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  s.wall_ns = static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
              static_cast<uint64_t>(ts.tv_nsec);
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  s.user_ns = TvNs(ru.ru_utime);
  s.sys_ns = TvNs(ru.ru_stime);
  s.nvcsw = ru.ru_nvcsw;
  s.maxrss_kb = ru.ru_maxrss;
  return s;
}

// ---------------------------------------------------------------------------
// Workload parameters.

struct WorkloadSpec {
  std::string name;
  // Open-loop Poisson stream.
  double rate = 700.0;
  SimDuration duration = scio::Seconds(10);
  SimDuration client_timeout = scio::Millis(500);
  SimDuration warmup = scio::Seconds(2);
  SimDuration drain = scio::Seconds(4);
  // Trickling inactive connections (devpoll-scan, smp-sharded).
  int inactive = 0;
  // Silent idle fleet (idle-fleet).
  size_t fleet = 0;
  // SMP topology (smp-sharded).
  int cpus = 0;
};

bool MakeSpec(const std::string& name, bool small, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "devpoll-scan") {
    // FIG 9's load below the modelled knee: the server re-scans its 501-entry
    // interest set on almost every request.
    spec->rate = 700.0;
    spec->inactive = small ? 51 : 501;
    spec->duration = scio::Seconds(small ? 1 : 10);
    return true;
  }
  if (name == "idle-fleet") {
    // A silent fleet ramped onto thttpd-epoll-ET, then a light stream whose
    // clients wait up to 5 s, so sweep stalls show as tail latency rather
    // than timeouts. The drain outlasts the client timeout: nothing is left
    // pending.
    spec->fleet = small ? 4096 : 200000;
    spec->rate = 200.0;
    spec->duration = scio::Seconds(small ? 1 : 10);
    spec->client_timeout = scio::Seconds(5);
    spec->warmup = scio::Seconds(1);
    spec->drain = scio::Seconds(6);
    return true;
  }
  if (name == "smp-sharded") {
    // Two thttpd-devpoll workers on two simulated CPUs behind reuseport
    // shards, gigabit link. At 2000 req/s the pair sits on its latency knee
    // (a 5% swing in the Poisson count moved p99 by 30%); 1600 req/s keeps
    // the modelled latency steady across seeds.
    spec->rate = 1600.0;
    spec->inactive = small ? 51 : 501;
    spec->cpus = 2;
    spec->duration = scio::Seconds(small ? 1 : 2);
    spec->warmup = scio::Seconds(1);
    spec->drain = scio::Seconds(1);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The silent fleet: connects in batches, each launched only once the server
// has accepted the previous one, then stays silent. Same pacing rule as
// bench/bench_million_idle, so the ramp is a pure function of the server.

constexpr size_t kConnectBatch = 2048;
constexpr SimDuration kBatchGap = scio::Millis(10);

class IdleFleet {
 public:
  IdleFleet(scio::NetStack* net, std::shared_ptr<scio::SimListener> listener,
            const scio::ServerStats* stats, size_t target)
      : net_(net), listener_(std::move(listener)), stats_(stats), target_(target) {
    members_.reserve(target);
  }

  void Start() { LaunchBatch(); }

  size_t connected() const { return connected_; }
  size_t refused() const { return refused_; }
  bool done() const {
    return launched_ >= target_ && pending_ == 0 && ServerDrainedBatch();
  }

  void Shutdown() {
    for (auto& socket : members_) {
      if (socket != nullptr) {
        socket->Close();
      }
    }
    members_.clear();
  }

 private:
  void LaunchBatch() {
    PB_SPAN(kBenchFleet);
    const size_t count = std::min(kConnectBatch, target_ - launched_);
    launched_ += count;
    pending_ += count;
    for (size_t i = 0; i < count; ++i) {
      std::shared_ptr<scio::SimSocket> socket = net_->Connect(listener_);
      if (socket == nullptr) {
        ++refused_;
        --pending_;
        continue;
      }
      socket->on_connected = [this] { OnEstablished(); };
      socket->on_refused = [this] {
        ++refused_;
        --pending_;
        MaybeScheduleNext();
      };
      members_.push_back(std::move(socket));
    }
    MaybeScheduleNext();
  }

  void OnEstablished() {
    PB_SPAN(kBenchFleet);
    ++connected_;
    --pending_;
    MaybeScheduleNext();
  }

  void MaybeScheduleNext() {
    if (pending_ != 0 || launched_ >= target_) {
      return;
    }
    ScheduleDrainCheck();
  }

  bool ServerDrainedBatch() const {
    return stats_->connections_accepted >= launched_ - refused_;
  }

  void ScheduleDrainCheck() {
    net_->kernel()->sim().ScheduleAfter(kBatchGap, [this] {
      if (ServerDrainedBatch()) {
        LaunchBatch();
      } else {
        ScheduleDrainCheck();
      }
    });
  }

  scio::NetStack* net_;
  std::shared_ptr<scio::SimListener> listener_;
  const scio::ServerStats* stats_;
  size_t target_;
  std::vector<std::shared_ptr<scio::SimSocket>> members_;
  size_t launched_ = 0;
  size_t connected_ = 0;
  size_t pending_ = 0;
  size_t refused_ = 0;
};

// ---------------------------------------------------------------------------
// One repetition's results.

struct Result {
  // Host.
  double setup_s = 0;
  double wall_s = 0;
  double host_cpu_s = 0;
  double host_sys_s = 0;
  double peak_rss_mb = 0;
  long voluntary_switches = 0;
  // Modelled.
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t pending = 0;
  uint64_t window_ok = 0;  // successful replies inside the generation window
  double window_s = 0;
  // Every successful connection time; run.py pools them across repetitions
  // into the median and p99.
  std::vector<double> conn_ms;
  uint64_t open_conns = 0;  // server connections open at the end of the load
  // Exact per-layer counters and virtual times, in print order.
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::pair<std::string, bool>> checks;
  std::string digest_text;
#if PERFBENCH_TRACE
  TraceTotals trace;
#endif
};

// Wait-machinery categories: the cost of finding ready descriptors, as in
// bench/bench_million_idle's CPU-shape split.
constexpr ChargeCat kWaitCats[] = {
    ChargeCat::kPollfdCopyin, ChargeCat::kDriverPoll,    ChargeCat::kWaitqueue,
    ChargeCat::kResultCopyout, ChargeCat::kDevpollScan,  ChargeCat::kSignalDequeue,
    ChargeCat::kPollfdRebuild, ChargeCat::kEpollCtl,     ChargeCat::kEpollReady,
    ChargeCat::kEpollWait,     ChargeCat::kKqRegister,   ChargeCat::kKqFilter,
};

// Everything observable about the modelled run, in a stable order.
class Digest {
 public:
  template <typename T>
  Digest& Add(const char* key, const T& value) {
    out_ << key << '=' << value << ';';
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string Hex64(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

// Shared reduction over the generator's records, the kernel and the
// server stats. `servers` lists every server instance (one, or one per
// worker).
void Reduce(const WorkloadSpec& spec, SimTime gen_start, scio::Simulator& sim,
            scio::SimKernel& kernel, const scio::HttperfGenerator& generator,
            const std::vector<const scio::HttpServerBase*>& servers, Result* r,
            Digest* digest) {
  r->conn_ms.reserve(generator.records().size());
  const SimTime window_end = gen_start + spec.duration;
  uint64_t in_window = 0;
  const size_t buckets = static_cast<size_t>(spec.duration / scio::Seconds(1));
  std::vector<uint64_t> series(buckets, 0);
  for (const scio::ConnRecord& record : generator.records()) {
    ++r->attempted;
    switch (record.outcome) {
      case scio::ConnOutcome::kOk:
        ++r->ok;
        r->conn_ms.push_back(scio::ToMillis(record.ConnTime()));
        if (record.end >= gen_start && record.end < window_end) {
          ++in_window;
          ++series[static_cast<size_t>((record.end - gen_start) / scio::Seconds(1))];
        }
        break;
      case scio::ConnOutcome::kPending:
        ++r->pending;
        break;
      default:
        ++r->errors;
        break;
    }
  }
  r->window_ok = in_window;
  r->window_s = scio::ToSeconds(spec.duration);

  const scio::KernelStats& ks = kernel.stats();
  const scio::TimeAttribution& attr = kernel.attribution();
  const scio::MemLedger& mem = kernel.mem();
  uint64_t loops = 0;
  uint64_t accepts = 0;
  uint64_t responses = 0;
  uint64_t open = 0;
  uint64_t conn_table_bytes = 0;
  for (const scio::HttpServerBase* s : servers) {
    loops += s->stats().loop_iterations;
    accepts += s->stats().connections_accepted;
    responses += s->stats().responses_sent;
    open += s->open_connections();
    conn_table_bytes += s->conn_table_bytes();
  }
  SimDuration wait = 0;
  for (ChargeCat cat : kWaitCats) {
    wait += attr[cat];
  }
  const uint64_t ledger_conn_bytes = mem[MemSys::kFdTable] + mem[MemSys::kConns] +
                                     mem[MemSys::kInterests] + mem[MemSys::kTransport];
  const double per_conn =
      open == 0 ? 0.0 : static_cast<double>(ledger_conn_bytes) / static_cast<double>(open);

  r->layer = {
      {"sim.events", static_cast<double>(sim.executed_count())},
      {"kernel.syscalls", static_cast<double>(ks.syscalls)},
      {"kernel.busy_virtual_ms", scio::ToMillis(kernel.busy_time())},
      {"core.devpoll.polls", static_cast<double>(ks.devpoll_polls)},
      {"core.devpoll.interests_scanned", static_cast<double>(ks.devpoll_interests_scanned)},
      {"core.devpoll.driver_calls", static_cast<double>(ks.devpoll_driver_calls)},
      {"core.devpoll.cached_ready_rechecks",
       static_cast<double>(ks.devpoll_cached_ready_rechecks)},
      {"core.epoll.waits", static_cast<double>(ks.epoll_waits)},
      {"core.epoll.events_delivered", static_cast<double>(ks.epoll_events_delivered)},
      {"core.wait_virtual_ms", scio::ToMillis(wait)},
      {"net.packets_delivered", static_cast<double>(ks.packets_delivered)},
      {"net.interrupt_virtual_ms", scio::ToMillis(attr[ChargeCat::kInterrupt])},
      {"servers.loop_iterations", static_cast<double>(loops)},
      {"servers.accepts", static_cast<double>(accepts)},
      {"servers.sweep_virtual_ms", scio::ToMillis(attr[ChargeCat::kTimerSweep])},
      {"smp.context_switches", static_cast<double>(ks.smp_context_switches)},
      {"mem.fd_table_bytes", static_cast<double>(mem[MemSys::kFdTable])},
      {"mem.conns_bytes", static_cast<double>(mem[MemSys::kConns])},
      {"mem.interests_bytes", static_cast<double>(mem[MemSys::kInterests])},
      {"mem.ledger_bytes_per_conn", per_conn},
  };
  r->open_conns = open;

  r->checks.push_back({"attribution_sum", attr.Sum() == kernel.busy_time()});
  r->checks.push_back({"mem_ledger_consistent", mem.Consistent()});
  r->checks.push_back(
      {"conn_slab_crosscheck", mem[MemSys::kConns] == conn_table_bytes});
  r->checks.push_back(
      {"outcomes_add_up", r->attempted == r->ok + r->errors + r->pending});

  for (const auto& row : ks.ToRows()) {
    digest->Add(row.first.c_str(), row.second);
  }
  digest->Add("attr", attr.Signature())
      .Add("busy", kernel.busy_time())
      .Add("now", kernel.now())
      .Add("events", sim.executed_count())
      .Add("mem", mem.Signature())
      .Add("loops", loops)
      .Add("accepts", accepts)
      .Add("responses", responses)
      .Add("open", open)
      .Add("attempted", r->attempted)
      .Add("ok", r->ok)
      .Add("errors", r->errors)
      .Add("pending", r->pending);
  std::string series_text;
  for (uint64_t n : series) {
    series_text += std::to_string(n) + ",";
  }
  digest->Add("series", series_text);
  std::string conn_text;
  char buf[32];
  for (double ms : r->conn_ms) {
    std::snprintf(buf, sizeof(buf), "%.17g,", ms);
    conn_text += buf;
  }
  digest->Add("conn_ms", conn_text);
}

scio::ActiveWorkload MakeActive(const WorkloadSpec& spec, uint64_t seed) {
  scio::ActiveWorkload active;
  active.request_rate = spec.rate;
  active.duration = spec.duration;
  active.client_timeout = spec.client_timeout;
  active.seed = seed * 1000003ULL + 17;
  return active;
}

scio::InactiveWorkload MakeInactive(const WorkloadSpec& spec, uint64_t seed) {
  scio::InactiveWorkload inactive;
  inactive.connections = spec.inactive;
  inactive.seed = seed * 7919ULL + 5;
  return inactive;
}

// The measured interval opens at the first simulated event.
struct Interval {
  HostSample start;
  void Begin() {
    start = SampleHost();
#if PERFBENCH_TRACE
    BeginWindow();
#endif
  }
  void End(const HostSample& process_start, Result* r) {
#if PERFBENCH_TRACE
    r->trace = EndWindow();
#endif
    const HostSample end = SampleHost();
    r->setup_s = static_cast<double>(start.wall_ns - process_start.wall_ns) / 1e9;
    r->wall_s = static_cast<double>(end.wall_ns - start.wall_ns) / 1e9;
    r->host_cpu_s = static_cast<double>((end.user_ns - start.user_ns) +
                                        (end.sys_ns - start.sys_ns)) /
                    1e9;
    r->host_sys_s = static_cast<double>(end.sys_ns - start.sys_ns) / 1e9;
    r->voluntary_switches = end.nvcsw - start.nvcsw;
  }
};

// RSS growth per open connection between world assembly and the end of the
// load (ru_maxrss is monotonic, and this process runs exactly one world).
double RssPerConn(const HostSample& before, const Result& r) {
  const HostSample now = SampleHost();
  return r.open_conns == 0 ? 0.0
                           : static_cast<double>(now.maxrss_kb - before.maxrss_kb) * 1024.0 /
                                 static_cast<double>(r.open_conns);
}

// ---------------------------------------------------------------------------
// devpoll-scan and idle-fleet: one server process, one CPU.

void RunSingle(const WorkloadSpec& spec, uint64_t seed, const HostSample& process_start,
               Result* r, Digest* digest) {
  const HostSample world_start = SampleHost();
  const bool fleet_mode = spec.fleet > 0;
  auto sim = std::make_unique<scio::Simulator>();
  auto kernel = std::make_unique<scio::SimKernel>(sim.get());
  scio::NetConfig net_config;
  int max_fds = 8192;
  scio::ServerConfig server_config;
  if (fleet_mode) {
    net_config.client_port_count = static_cast<int>(spec.fleet) + 65536;
    max_fds = static_cast<int>(spec.fleet + spec.fleet / 2 + 8192);
    server_config.listen_backlog = static_cast<int>(kConnectBatch) * 2;
    server_config.syn_backlog.max_half_open = static_cast<int>(kConnectBatch) * 2;
    // The fleet is idle by design; only the sweep machinery ticks over it.
    server_config.idle_timeout = scio::Seconds(1000000);
  }
  auto net = std::make_unique<scio::NetStack>(kernel.get(), net_config);
  scio::Process& proc = kernel->CreateProcess("server", max_fds);
  auto sys = std::make_unique<scio::Sys>(kernel.get(), &proc, net.get());
  auto content = std::make_unique<scio::StaticContent>();
  content->AddDocument("/index.html", 6 * 1024);

  std::unique_ptr<scio::HttpServerBase> server;
  bool setup_ok = false;
  if (fleet_mode) {
    scio::ThttpdEpollConfig ep;
    ep.edge_triggered = true;
    auto s = std::make_unique<scio::ThttpdEpoll>(sys.get(), content.get(), server_config, ep);
    setup_ok = s->Setup() >= 0 && s->SetupEpoll() >= 0;
    server = std::move(s);
  } else {
    auto s = std::make_unique<scio::ThttpdDevPoll>(sys.get(), content.get(), server_config,
                                                   scio::ThttpdDevPollConfig{});
    setup_ok = s->Setup() >= 0 && s->SetupDevPoll() >= 0;
    server = std::move(s);
  }
  r->checks.push_back({"server_setup", setup_ok});
  if (!setup_ok) {
    return;
  }
  std::shared_ptr<scio::SimListener> listener = sys->listener(server->listener_fd());
  auto inactive =
      std::make_unique<scio::InactivePool>(net.get(), listener, MakeInactive(spec, seed));
  auto generator =
      std::make_unique<scio::HttperfGenerator>(net.get(), listener, MakeActive(spec, seed));
  std::unique_ptr<IdleFleet> fleet;
  if (fleet_mode) {
    fleet = std::make_unique<IdleFleet>(net.get(), listener, &server->stats(), spec.fleet);
  }

  Interval interval;
  interval.Begin();
  SimTime gen_start = spec.warmup;
  {
    PB_SPAN(kBenchLoadStart);
    inactive->Start();
    if (fleet) {
      fleet->Start();
    } else {
      generator->Start(gen_start);
    }
  }
  if (fleet) {
    // Ramp in one-second slices until the whole fleet is accepted; the
    // stream starts one warmup later.
    const SimTime ramp_cap = scio::Seconds(100000);
    while (!fleet->done() && kernel->now() < ramp_cap && !kernel->stopped()) {
      PB_SPAN(kBenchServerRun);
      server->Run(kernel->now() + scio::Seconds(1));
    }
    r->checks.push_back({"fleet_established",
                         fleet->done() && fleet->connected() == spec.fleet &&
                             fleet->refused() == 0 &&
                             server->open_connections() >= spec.fleet});
    gen_start = kernel->now() + spec.warmup;
    PB_SPAN(kBenchLoadStart);
    generator->Start(gen_start);
  }
  {
    PB_SPAN(kBenchServerRun);
    server->Run(gen_start + spec.duration + spec.drain);
  }
  Reduce(spec, gen_start, *sim, *kernel, *generator, {server.get()}, r, digest);
  r->layer.push_back({"mem.rss_bytes_per_conn", RssPerConn(world_start, *r)});

  // Teardown, inside the measured interval.
  {
    PB_SPAN(kBenchTeardownLoad);
    inactive->Shutdown();
    if (fleet) {
      fleet->Shutdown();
    }
    kernel->RequestStop();
    sim->DiscardPending();
    fleet.reset();
    generator.reset();
    inactive.reset();
  }
  r->checks.push_back({"mem_ledger_after_shutdown", kernel->mem().Consistent()});
  {
    PB_SPAN(kBenchTeardownServers);
    listener.reset();
    server.reset();
    content.reset();
    sys.reset();
  }
  {
    PB_SPAN(kBenchTeardownNet);
    net.reset();
  }
  {
    PB_SPAN(kBenchTeardownKernel);
    kernel.reset();
  }
  {
    PB_SPAN(kBenchTeardownSim);
    sim.reset();
  }
  interval.End(process_start, r);
}

// ---------------------------------------------------------------------------
// smp-sharded: a WorkerPool of thttpd-devpoll workers on the SMP plane.

void RunSmp(const WorkloadSpec& spec, uint64_t seed, const HostSample& process_start,
            Result* r, Digest* digest) {
  const HostSample world_start = SampleHost();
  auto sim = std::make_unique<scio::Simulator>();
  auto kernel = std::make_unique<scio::SimKernel>(sim.get());
  scio::NetConfig net_config;
  net_config.bandwidth_bps = 1e9;
  auto net = std::make_unique<scio::NetStack>(kernel.get(), net_config);
  auto content = std::make_unique<scio::StaticContent>();
  content->AddDocument("/index.html", 6 * 1024);

  scio::WorkerPoolConfig pool_config;
  pool_config.workers = spec.cpus;
  pool_config.cpus = spec.cpus;
  pool_config.mode = scio::ListenerMode::kSharded;
  // The topology (flow-hash and tie-break seed) is part of the workload,
  // not of its seeded inputs: only the client streams vary with --seed.
  pool_config.seed = 1;
  const scio::StaticContent* content_ptr = content.get();
  auto pool = std::make_unique<scio::WorkerPool>(
      kernel.get(), net.get(), pool_config,
      [content_ptr](scio::Sys* sys, int) -> std::unique_ptr<scio::HttpServerBase> {
        return std::make_unique<scio::ThttpdDevPoll>(sys, content_ptr, scio::ServerConfig{},
                                                     scio::ThttpdDevPollConfig{});
      });
  const bool setup_ok = pool->Setup() >= 0;
  r->checks.push_back({"server_setup", setup_ok});
  if (!setup_ok) {
    return;
  }
  std::shared_ptr<scio::SimListener> listener = pool->head_listener();
  auto inactive =
      std::make_unique<scio::InactivePool>(net.get(), listener, MakeInactive(spec, seed));
  auto generator =
      std::make_unique<scio::HttperfGenerator>(net.get(), listener, MakeActive(spec, seed));

  Interval interval;
  interval.Begin();
  {
    PB_SPAN(kBenchLoadStart);
    inactive->Start();
    generator->Start(spec.warmup);
  }
  const SimDuration busy_before = kernel->busy_time();
  const scio::TimeAttribution attr_before = kernel->attribution();
  {
    PB_SPAN(kBenchServerRun);
    pool->Run(spec.warmup + spec.duration + spec.drain);
  }
  std::vector<const scio::HttpServerBase*> servers;
  for (int i = 0; i < pool->workers(); ++i) {
    servers.push_back(&pool->server(i));
  }
  Reduce(spec, spec.warmup, *sim, *kernel, *generator, servers, r, digest);
  r->layer.push_back({"mem.rss_bytes_per_conn", RssPerConn(world_start, *r)});

  // Per-CPU ledgers: together they hold exactly the virtual CPU charged
  // while the workers ran, category by category.
  const scio::SmpScheduler* sched = pool->scheduler();
  bool cpu_ok = sched != nullptr;
  if (sched != nullptr) {
    scio::TimeAttribution cpu_sum;
    std::string cpu_sigs;
    for (int cpu = 0; cpu < sched->cpus(); ++cpu) {
      const scio::TimeAttribution& ledger = sched->cpu_ledger(cpu);
      for (size_t i = 0; i < scio::kChargeCatCount; ++i) {
        const auto cat = static_cast<ChargeCat>(i);
        cpu_sum.Add(cat, ledger[cat]);
      }
      cpu_sigs += ledger.Signature() + "|";
    }
    const scio::TimeAttribution& attr = kernel->attribution();
    for (size_t i = 0; i < scio::kChargeCatCount && cpu_ok; ++i) {
      const auto cat = static_cast<ChargeCat>(i);
      cpu_ok = cpu_sum[cat] == attr[cat] - attr_before[cat];
    }
    cpu_ok = cpu_ok && cpu_sum.Sum() == kernel->busy_time() - busy_before;
    digest->Add("cpu_ledgers", cpu_sigs);
  }
  r->checks.push_back({"cpu_ledgers_sum", cpu_ok});

  {
    PB_SPAN(kBenchTeardownLoad);
    inactive->Shutdown();
    kernel->RequestStop();
    sim->DiscardPending();
    generator.reset();
    inactive.reset();
  }
  r->checks.push_back({"mem_ledger_after_shutdown", kernel->mem().Consistent()});
  {
    PB_SPAN(kBenchTeardownServers);
    listener.reset();
    pool.reset();
    content.reset();
  }
  {
    PB_SPAN(kBenchTeardownNet);
    net.reset();
  }
  {
    PB_SPAN(kBenchTeardownKernel);
    kernel.reset();
  }
  {
    PB_SPAN(kBenchTeardownSim);
    sim.reset();
  }
  interval.End(process_start, r);
}

// ---------------------------------------------------------------------------
// Output: one JSON object; numbers printed with all their digits.

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void PrintJson(const std::string& workload, uint64_t seed, const Result& r) {
  std::ostringstream o;
  o << "{\"workload\": " << Quote(workload) << ", \"seed\": " << seed
    << ", \"traced\": " << (PERFBENCH_TRACE ? "true" : "false");
  o << ", \"host\": {\"setup_s\": " << Num(r.setup_s) << ", \"wall_s\": " << Num(r.wall_s)
    << ", \"host_cpu_s\": " << Num(r.host_cpu_s) << ", \"host_sys_s\": " << Num(r.host_sys_s)
    << ", \"peak_rss_mb\": " << Num(r.peak_rss_mb)
    << ", \"voluntary_switches\": " << r.voluntary_switches << "}";
  o << ", \"model\": {\"attempted\": " << r.attempted << ", \"ok\": " << r.ok
    << ", \"errors\": " << r.errors << ", \"pending\": " << r.pending
    << ", \"window_s\": " << Num(r.window_s) << ", \"window_ok\": " << r.window_ok
    << ", \"conn_ms\": [";
  for (size_t i = 0; i < r.conn_ms.size(); ++i) {
    o << (i ? "," : "") << Num(r.conn_ms[i]);
  }
  o << "]}";
  o << ", \"layer\": {";
  for (size_t i = 0; i < r.layer.size(); ++i) {
    o << (i ? ", " : "") << Quote(r.layer[i].first) << ": " << Num(r.layer[i].second);
  }
  o << "}, \"checks\": {";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    o << (i ? ", " : "") << Quote(r.checks[i].first) << ": "
      << (r.checks[i].second ? "true" : "false");
  }
  o << "}, \"digest\": " << Quote(Hex64(r.digest_text));
#if PERFBENCH_TRACE
  const TraceTotals& t = r.trace;
  uint64_t layer_calls[kLayerCount] = {};
  o << ", \"trace\": {\"window_ms\": " << Num(static_cast<double>(t.window_ns) / 1e6)
    << ", \"blocked_ms\": " << Num(static_cast<double>(t.blocked_ns) / 1e6)
    << ", \"overhead_ms\": " << Num(t.overhead_ns / 1e6)
    << ", \"span_cost_ns\": " << Num(t.cost_timed_ns)
    << ", \"hot_span_cost_ns\": [" << Num(t.cost_hot_untimed_ns) << ", "
    << Num(t.cost_hot_timed_ns) << "]"
    << ", \"dropped_spans\": " << t.dropped << ", \"boundaries\": {";
  for (int b = 0; b < kBoundaryCount; ++b) {
    const Boundary& info = BoundaryInfo(b);
    layer_calls[info.layer] += t.calls[b];
    o << (b ? ", " : "") << Quote(info.name) << ": " << t.calls[b];
  }
  o << "}, \"layers\": {";
  for (int l = 0; l < kLayerCount; ++l) {
    o << (l ? ", " : "") << Quote(LayerName(l)) << ": {\"self_ms\": "
      << Num(t.self_ns[l] / 1e6) << ", \"calls\": " << layer_calls[l] << "}";
  }
  o << "}}";
#endif
  o << "}";
  std::printf("%s\n", o.str().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const HostSample process_start = SampleHost();
  std::string workload;
  uint64_t seed = 1;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--small") {
      small = true;
    } else {
      std::fprintf(stderr, "usage: perfbench --workload NAME --seed N [--small]\n");
      return 2;
    }
  }
  WorkloadSpec spec;
  if (!MakeSpec(workload, small, &spec)) {
    std::fprintf(stderr, "unknown workload '%s' (devpoll-scan, idle-fleet, smp-sharded)\n",
                 workload.c_str());
    return 2;
  }

  Result r;
  Digest digest;
  digest.Add("workload", workload).Add("seed", seed);
  if (spec.cpus > 0) {
    RunSmp(spec, seed, process_start, &r, &digest);
  } else {
    RunSingle(spec, seed, process_start, &r, &digest);
  }
  r.digest_text = digest.text();
  r.peak_rss_mb = static_cast<double>(SampleHost().maxrss_kb) / 1024.0;
  PrintJson(workload, seed, r);
  for (const auto& check : r.checks) {
    if (!check.second) {
      std::fprintf(stderr, "check failed: %s\n", check.first.c_str());
      return 1;
    }
  }
  return 0;
}
