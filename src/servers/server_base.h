// Shared machinery for the simulated web servers.
//
// All three of the paper's servers (§5) serve static content over HTTP/1.0
// with the same per-connection state machine — accept, read+parse request,
// write response, close — and a periodic idle-connection timeout sweep. They
// differ only in how they learn about events, which each subclass provides.

#ifndef SRC_SERVERS_SERVER_BASE_H_
#define SRC_SERVERS_SERVER_BASE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sys.h"
#include "src/http/request_parser.h"
#include "src/http/static_content.h"
#include "src/net/listener.h"
#include "src/servers/conn_table.h"

namespace scio {

class AdaptiveDefense;

struct ServerConfig {
  int listen_backlog = 128;
  size_t read_chunk = 4096;
  // Half-open (SYN) queue sizing for the listener this server creates via
  // Setup(). Shared listeners installed with AdoptListener keep whatever
  // their creator configured.
  SynBacklogConfig syn_backlog;
  // thttpd's default idle timeouts are in the minutes; inactive connections
  // are expected to survive (their clients trickle bytes to stay alive).
  SimDuration idle_timeout = Seconds(60);
  SimDuration timer_sweep_interval = Seconds(1);
  // Graceful degradation under descriptor pressure: above the high watermark
  // (fraction of the fd table) the server stops accepting and reaps idle
  // connections on the much shorter pressure timeout; accepting resumes only
  // below the low watermark (hysteresis, so it doesn't flap at the edge).
  double fd_high_watermark = 0.92;
  double fd_low_watermark = 0.85;
  SimDuration pressure_idle_timeout = Seconds(2);
};

// Per-server counters. Like KernelStats, the field list is one X-macro: the
// members and the ToRows() export are generated from it, so a row can never
// drift from the struct.
// X(field, row_name)
#define SCIO_SERVER_STATS_FIELDS(X)                                           \
  X(connections_accepted, "server.connections_accepted")                      \
  X(responses_sent, "server.responses_sent")                                  \
  X(not_found_sent, "server.not_found_sent")                                  \
  X(bad_requests, "server.bad_requests")                                      \
  X(idle_timeouts, "server.idle_timeouts")                                    \
  X(peer_closes, "server.peer_closes")                                        \
  X(accept_emfile, "server.accept_emfile")                                    \
  /* Events for already-closed connections. */                                \
  X(stale_events, "server.stale_events")                                      \
  X(loop_iterations, "server.loop_iterations")                                \
  /* RT signal queue overflows handled. */                                    \
  X(overflow_recoveries, "server.overflow_recoveries")                        \
  /* Hybrid server transitions. */                                            \
  X(mode_switches, "server.mode_switches")                                    \
  /* Accepts skipped under fd pressure. */                                    \
  X(accepts_throttled, "server.accepts_throttled")                            \
  /* Idle conns closed early under pressure. */                               \
  X(pressure_reaps, "server.pressure_reaps")                                  \
  /* Waits interrupted and retried. */                                        \
  X(eintr_returns, "server.eintr_returns")                                    \
  /* EPIPE/EBADF on response writes. */                                       \
  X(write_errors, "server.write_errors")                                      \
  /* Interest batches requeued on ENOMEM. */                                  \
  X(devpoll_write_retries, "server.devpoll_write_retries")                    \
  /* Sweep-driven re-probes of a stalled backlog. */                          \
  X(accept_retries, "server.accept_retries")                                  \
  /* Conns reaped for outliving the request deadline. */                      \
  X(deadline_reaps, "server.deadline_reaps")

struct ServerStats {
#define SCIO_X(field, row_name) uint64_t field = 0;
  SCIO_SERVER_STATS_FIELDS(SCIO_X)
#undef SCIO_X

  // Number of counters (== ToRows().size()).
  static constexpr size_t kFieldCount = []() constexpr {
    size_t n = 0;
#define SCIO_X(field, row_name) ++n;
    SCIO_SERVER_STATS_FIELDS(SCIO_X)
#undef SCIO_X
    return n;
  }();

  // Export all counters as (name, value) pairs.
  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
};

// Drift guard, as for KernelStats: a plain member outside the X-macro would
// grow the struct without growing the row export.
static_assert(sizeof(ServerStats) == ServerStats::kFieldCount * sizeof(uint64_t),
              "add ServerStats counters via SCIO_SERVER_STATS_FIELDS, not as "
              "plain members");

class HttpServerBase {
 public:
  HttpServerBase(Sys* sys, const StaticContent* content, ServerConfig config);
  virtual ~HttpServerBase() = default;

  // Create the listening socket. Must be called once before Run().
  // Returns the listener fd, or a negative errno-style code on failure.
  int Setup();

  // Alternative to Setup() for worker processes: install an already-bound
  // shared listener (fork/SCM_RIGHTS inheritance) instead of creating one.
  // Returns the installed fd, or a negative errno-style code.
  int AdoptListener(const std::shared_ptr<SimListener>& listener);

  // Post-listener event-plane setup (open /dev/poll, arm signals, ...).
  // Servers whose RunBenchmark-era Run() does this lazily override it so a
  // WorkerPool can prepare every worker before any of them runs. Returns 0
  // or a negative errno-style code.
  virtual int SetupEvents() { return 0; }

  // Run the event loop until simulated time `until` (or kernel stop).
  virtual void Run(SimTime until) = 0;

  int listener_fd() const { return listener_fd_; }
  const ServerStats& stats() const { return stats_; }

  // Attach the shared graceful-degradation controller (borrowed; may be
  // null). The timer sweep reports fd pressure to it and, while it is
  // engaged, reaps connections that outlive its request deadline.
  void set_defense(AdaptiveDefense* defense) { defense_ = defense; }
  size_t open_connections() const { return conns_.size(); }
  // Bytes of slab storage the connection table holds (ledger cross-check).
  size_t conn_table_bytes() const { return conns_.tracked_bytes(); }
  const std::string& name() const { return name_; }

 protected:
  // Connection state lives in ConnTable's slab (src/servers/conn_table.h);
  // the aliases keep subclass code reading as before.
  using Phase = ConnPhase;
  using Conn = scio::Conn;

  // --- hooks for the event-acquisition subclasses -----------------------------
  virtual void OnConnOpened(int fd) { (void)fd; }
  virtual void OnConnPhaseChanged(int fd, Phase phase) {
    (void)fd;
    (void)phase;
  }
  virtual void OnConnClosing(int fd) { (void)fd; }

  // --- shared connection handling -----------------------------------------------
  // Accept every queued connection. Returns number accepted.
  int DrainAccepts();
  // Handle readability on a connection; returns false if the conn was closed.
  bool HandleReadable(int fd);
  // Continue a partial response write; returns false if the conn was closed.
  bool HandleWritable(int fd);
  // Dispatch one readiness report.
  void DispatchEvent(int fd, PollEvents revents);
  // Close and forget a connection.
  void CloseConn(int fd);
  // Close connections idle longer than the timeout. Charges per-connection
  // sweep costs. Returns number closed.
  int SweepTimeouts();
  // Run the sweep if the interval has elapsed.
  void MaybeSweep();
  // True while the fd table is too full to accept (hysteretic; see
  // ServerConfig watermarks). Updating the flag is a side effect.
  bool UnderFdPressure();
  // Shed idle connections using the aggressive pressure timeout.
  int PressureReap();
  // Close connections still reading their request `deadline` after accept.
  int DeadlineReap(SimDuration deadline);

  bool HasConn(int fd) const { return conns_.Contains(fd); }

  Sys& sys() { return *sys_; }
  SimKernel& kernel() { return sys_->kernel(); }

  std::string name_ = "http-server";
  Sys* sys_;
  const StaticContent* content_;
  ServerConfig config_;
  int listener_fd_ = -1;
  // Slab keyed by fd with intrusive activity/reading lists. Poll-set
  // rebuilds iterate ascending-fd; reaps walk only the expired list prefix
  // and close in ascending-fd order — simulation state never depends on
  // address order (sciolint D2), so seeded runs stay bit-identical.
  ConnTable conns_;
  ServerStats stats_;
  AdaptiveDefense* defense_ = nullptr;
  SimTime next_sweep_ = 0;
  bool fd_pressure_ = false;
  // True when DrainAccepts bailed out (EMFILE or fd pressure) with the
  // backlog possibly non-empty. Signal-driven servers never get another
  // listener edge for those queued connections — the enqueue-time signal was
  // already consumed — so MaybeSweep re-probes the backlog until it drains.
  bool accept_stalled_ = false;

 private:
  // Build and start sending the response for a completed request.
  void StartResponse(int fd, Conn& conn);
  // Close connections idle longer than `timeout`; `pressure` attributes the
  // closes to pressure_reaps instead of idle_timeouts.
  int ReapIdle(SimDuration timeout, bool pressure);
};

}  // namespace scio

#endif  // SRC_SERVERS_SERVER_BASE_H_
