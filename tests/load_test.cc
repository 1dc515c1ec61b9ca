// Tests for the load generators and the end-to-end benchmark harness,
// including exact determinism of full runs.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/load/abusive_clients.h"
#include "src/load/benchmark_run.h"
#include "src/load/httperf.h"
#include "src/load/inactive_pool.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

class LoadTest : public SimWorldTest {};

TEST_F(LoadTest, GeneratorHitsTargetCountDeterministic) {
  ActiveWorkload workload;
  workload.request_rate = 1000;
  workload.duration = Seconds(2);
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  EXPECT_EQ(generator.attempts(), 2000u);
}

TEST_F(LoadTest, PoissonArrivalCountConcentratesAroundTarget) {
  ActiveWorkload workload;
  workload.request_rate = 1000;
  workload.duration = Seconds(4);
  workload.poisson_arrivals = true;
  workload.seed = 5;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  EXPECT_NEAR(static_cast<double>(generator.attempts()), 4000.0, 4 * 63.0)
      << "within ~4 sigma of rate*duration";
}

TEST_F(LoadTest, RefusedConnectionsRecorded) {
  ASSERT_EQ(sys_.Close(listen_fd_), 0);  // every SYN refused
  ActiveWorkload workload;
  workload.request_rate = 100;
  workload.duration = Millis(100);
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  sim_.AdvanceTo(Seconds(2));
  for (const ConnRecord& record : generator.records()) {
    EXPECT_EQ(record.outcome, ConnOutcome::kRefused);
    EXPECT_TRUE(record.IsError());
  }
}

TEST_F(LoadTest, UnservedClientsTimeOut) {
  // Nobody accepts: connections establish (backlog) but never get replies.
  ActiveWorkload workload;
  workload.request_rate = 50;
  workload.duration = Millis(100);
  workload.client_timeout = Millis(200);
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  sim_.AdvanceTo(Seconds(2));
  int timeouts = 0;
  for (const ConnRecord& record : generator.records()) {
    timeouts += record.outcome == ConnOutcome::kTimeout ? 1 : 0;
  }
  EXPECT_EQ(timeouts, static_cast<int>(generator.attempts()));
}

TEST_F(LoadTest, PortExhaustionRecordedAsNoPorts) {
  NetConfig tight;
  tight.client_port_count = 5;
  NetStack small_net(&kernel_, tight);
  auto listener = std::make_shared<SimListener>(&kernel_, &small_net, 128);
  ActiveWorkload workload;
  workload.request_rate = 100;
  workload.duration = Millis(200);
  workload.client_timeout = Seconds(30);  // ports stay held
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&small_net, listener, workload);
  generator.Start(0);
  sim_.AdvanceTo(Seconds(1));
  int no_ports = 0;
  for (const ConnRecord& record : generator.records()) {
    no_ports += record.outcome == ConnOutcome::kNoPorts ? 1 : 0;
  }
  EXPECT_EQ(no_ports, static_cast<int>(generator.attempts()) - 5)
      << "only port_count connections can be in flight";
}

TEST_F(LoadTest, InactivePoolReachesTargetPopulation) {
  InactiveWorkload inactive;
  inactive.connections = 10;
  InactivePool pool(&net_, listener_, inactive);
  pool.Start();
  sim_.AdvanceTo(Seconds(2));
  // Accept everything so the pool members establish fully.
  while (sys_.Accept(listen_fd_) >= 0) {
  }
  sim_.AdvanceTo(Seconds(3));
  EXPECT_EQ(pool.connected_now(), 10);
  pool.Shutdown();
  EXPECT_EQ(pool.connected_now(), 0);
}

// Regression: a slowloris member whose connection the server reaps while the
// fleet is mid-teardown must still release its client port. The churn loop
// (accept + immediate close, the pressure-reap pattern) used to race the
// fleet's reconnect callbacks and leak ports into in_use_ forever.
TEST_F(LoadTest, SlowlorisTeardownReleasesPortsUnderPressure) {
  AbusiveWorkload abusive;
  abusive.slowloris_connections = 8;
  abusive.slowloris_write_interval = Millis(50);
  abusive.slowloris_reconnect_delay = Millis(50);
  AbusiveFleet fleet(&net_, listener_, abusive);
  fleet.Start(0, Millis(800));
  // Server under fd pressure: reap (close) every connection the moment it is
  // accepted, forcing each member through its reconnect path over and over.
  for (int step = 0; step < 100; ++step) {
    RunFor(Millis(10));
    int fd;
    while ((fd = sys_.Accept(listen_fd_)) >= 0) {
      EXPECT_EQ(sys_.Close(fd), 0);
    }
  }
  fleet.Shutdown();
  sim_.RunAll();
  EXPECT_GT(fleet.slowloris_reconnects(), 0u) << "the churn actually happened";
  EXPECT_EQ(net_.ports().in_use(), 0) << "every reaped member gave its port back";
}

// --- full harness ------------------------------------------------------------------

TEST(BenchmarkRunTest, SmallRunProducesSaneNumbers) {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 300;
  config.active.duration = Seconds(2);
  config.inactive.connections = 10;
  config.warmup = Millis(500);
  config.drain = Seconds(1);
  const BenchmarkResult result = RunBenchmark(config);
  EXPECT_GT(result.attempts, 500u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_NEAR(result.reply_avg, 300.0, 60.0);
  EXPECT_GT(result.median_conn_ms, 0.0);
  EXPECT_LT(result.median_conn_ms, 50.0);
  EXPECT_GT(result.cpu_utilization, 0.0);
  EXPECT_LT(result.cpu_utilization, 1.0);
}

class DeterminismTest : public ::testing::TestWithParam<ServerKind> {};

TEST_P(DeterminismTest, IdenticalSeedsIdenticalResults) {
  BenchmarkRunConfig config;
  config.server = GetParam();
  config.active.request_rate = 400;
  config.active.duration = Seconds(1);
  config.inactive.connections = 20;
  config.warmup = Millis(500);
  config.drain = Millis(500);
  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.kernel_stats.syscalls, b.kernel_stats.syscalls);
  EXPECT_EQ(a.kernel_stats.poll_driver_calls, b.kernel_stats.poll_driver_calls);
  EXPECT_EQ(a.kernel_stats.devpoll_driver_calls, b.kernel_stats.devpoll_driver_calls);
  EXPECT_DOUBLE_EQ(a.median_conn_ms, b.median_conn_ms);
  EXPECT_EQ(Signature(a), Signature(b));
}

INSTANTIATE_TEST_SUITE_P(AllServers, DeterminismTest,
                         ::testing::Values(ServerKind::kThttpdPoll,
                                           ServerKind::kThttpdDevPoll,
                                           ServerKind::kPhhttpd, ServerKind::kHybrid));

// Retry backoff jitter: a config that forces refusals (accept-EMFILE window
// fills the backlog, later SYNs bounce) so clients actually walk the
// backoff path.
BenchmarkRunConfig RetryStormConfig() {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 600;
  config.active.duration = Seconds(2);
  config.active.max_retries = 3;
  config.inactive.connections = 0;
  config.warmup = Millis(500);
  config.drain = Seconds(1);
  config.faults.Add({FaultKind::kAcceptEmfile, Millis(700), Millis(1700), 1.0, 0,
                     LinkDir::kBoth});
  return config;
}

TEST(BenchmarkRunTest, RetryJitterDrawsNothingWhenZero) {
  // jitter = 0 (the default) must not consume RNG draws: two runs are
  // byte-identical, the contract that keeps every pre-jitter baseline stable.
  const BenchmarkRunConfig config = RetryStormConfig();
  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_GT(a.client_retries, 0u) << "the storm must actually cause retries";
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(Signature(a), Signature(b));
}

TEST(BenchmarkRunTest, RetryJitterIsSeededAndDeterministic) {
  BenchmarkRunConfig config = RetryStormConfig();
  config.active.retry_jitter = 0.5;
  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_GT(a.client_retries, 0u);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(Signature(a), Signature(b));
  // And the knob is live: a jittered timeline differs from the unjittered one.
  const BenchmarkResult plain = RunBenchmark(RetryStormConfig());
  EXPECT_NE(Signature(a), Signature(plain));
}

// The run signature covers every stats surface by construction: perturbing a
// single field anywhere in a real result must change it.
TEST(BenchmarkRunTest, SignatureCoversEveryStatsSurface) {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 300;
  config.active.duration = Seconds(1);
  config.inactive.connections = 10;
  config.warmup = Millis(500);
  config.drain = Millis(500);
  const BenchmarkResult base = RunBenchmark(config);
  ASSERT_TRUE(base.setup_ok);
  ASSERT_FALSE(base.reply_series.empty());
  const std::string base_signature = Signature(base);

  const std::vector<std::pair<const char*, std::function<void(BenchmarkResult*)>>>
      perturbations = {
          {"scalar count", [](BenchmarkResult* r) { ++r->pending; }},
          {"scalar latency", [](BenchmarkResult* r) { r->p90_conn_ms += 0.5; }},
          {"busy time", [](BenchmarkResult* r) { ++r->busy_time; }},
          {"kernel row", [](BenchmarkResult* r) { ++r->kernel_stats.kq_spurious_active; }},
          {"server row", [](BenchmarkResult* r) { ++r->server_stats.deadline_reaps; }},
          {"worker row",
           [](BenchmarkResult* r) { r->worker_stats.push_back(r->server_stats); }},
          {"fault row", [](BenchmarkResult* r) { ++r->fault_stats.packets_flap_held; }},
          {"attack row", [](BenchmarkResult* r) { ++r->attack_stats.syns_sent; }},
          {"chain row", [](BenchmarkResult* r) { ++r->chain_stats.dropped; }},
          {"defense row", [](BenchmarkResult* r) { ++r->defense_stats.tier_peak; }},
          {"transport row", [](BenchmarkResult* r) { ++r->transport_stats.rto_fires; }},
          {"attribution category",
           [](BenchmarkResult* r) { r->attribution.Add(ChargeCat::kTimerSweep, 1); }},
          {"mem ledger row", [](BenchmarkResult* r) { r->mem.Add(MemSys::kTimers, 1); }},
          {"cpu busy", [](BenchmarkResult* r) { r->cpu_busy.push_back(0); }},
          {"reply series bucket", [](BenchmarkResult* r) { r->reply_series.back() += 1; }},
      };
  for (const auto& [what, perturb] : perturbations) {
    BenchmarkResult changed = base;
    perturb(&changed);
    EXPECT_NE(Signature(changed), base_signature) << what;
  }
  // Every counter of the X-macro surfaces, not just a sample of them.
#define SCIO_X(surface, field, row_name)                       \
  {                                                            \
    BenchmarkResult changed = base;                            \
    ++changed.surface.field;                                   \
    EXPECT_NE(Signature(changed), base_signature) << row_name; \
  }
#define SCIO_KERNEL_X(field, row_name) SCIO_X(kernel_stats, field, row_name)
#define SCIO_SERVER_X(field, row_name) SCIO_X(server_stats, field, row_name)
  SCIO_KERNEL_STATS_FIELDS(SCIO_KERNEL_X)
  SCIO_SERVER_STATS_FIELDS(SCIO_SERVER_X)
#undef SCIO_SERVER_X
#undef SCIO_KERNEL_X
#undef SCIO_X
}

TEST(BenchmarkRunTest, DevPollBeatsStockPollUnderInactiveLoad) {
  // The paper's headline claim, as an executable assertion: with hundreds of
  // inactive connections, /dev/poll spends far less kernel effort than
  // stock poll() and serves with lower latency.
  BenchmarkRunConfig config;
  config.active.request_rate = 600;
  config.active.duration = Seconds(3);
  config.inactive.connections = 251;

  config.server = ServerKind::kThttpdPoll;
  const BenchmarkResult poll_result = RunBenchmark(config);
  config.server = ServerKind::kThttpdDevPoll;
  const BenchmarkResult devpoll_result = RunBenchmark(config);

  EXPECT_LT(devpoll_result.median_conn_ms, poll_result.median_conn_ms / 3.0);
  EXPECT_LT(devpoll_result.kernel_stats.devpoll_driver_calls,
            poll_result.kernel_stats.poll_driver_calls / 10);
  EXPECT_GE(devpoll_result.reply_avg, poll_result.reply_avg * 0.98);
  EXPECT_LE(devpoll_result.error_pct, poll_result.error_pct);
}

TEST(BenchmarkRunTest, ServerKindNamesAreStable) {
  EXPECT_EQ(ServerKindName(ServerKind::kThttpdPoll), "thttpd-poll");
  EXPECT_EQ(ServerKindName(ServerKind::kThttpdDevPoll), "thttpd-devpoll");
  EXPECT_EQ(ServerKindName(ServerKind::kPhhttpd), "phhttpd");
  EXPECT_EQ(ServerKindName(ServerKind::kHybrid), "hybrid");
}

}  // namespace
}  // namespace scio
