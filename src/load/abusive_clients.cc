#include "src/load/abusive_clients.h"

namespace scio {

AbusiveFleet::AbusiveFleet(NetStack* net, std::shared_ptr<SimListener> listener,
                           AbusiveWorkload workload)
    : net_(net), listener_(std::move(listener)), workload_(workload), rng_(workload.seed) {
  drip_request_ = "GET /index.html HTTP/1.0\r\nX-Slowloris-Padding: ";
  slowloris_.resize(static_cast<size_t>(workload_.slowloris_connections));
}

AbusiveFleet::~AbusiveFleet() { Shutdown(); }

void AbusiveFleet::Start(SimTime start_at, SimDuration duration) {
  Simulator& sim = net_->kernel()->sim();
  for (size_t i = 0; i < slowloris_.size(); ++i) {
    // Stagger connects over ~500ms so the attack ramps rather than bursts.
    const SimDuration delay = Nanos(rng_.UniformInt(0, Millis(500)));
    slowloris_[i].reconnect_timer = sim.ScheduleAt(
        start_at + delay, [this, i] { ConnectSlowloris(i); });
  }
  if (workload_.abort_churn_rate > 0) {
    const double gap_ns = 1e9 / workload_.abort_churn_rate;
    double clock = rng_.Exponential(gap_ns);
    while (clock < static_cast<double>(duration)) {
      sim.ScheduleAt(start_at + static_cast<SimTime>(clock),
                     [this] { LaunchAborter(); });
      clock += rng_.Exponential(gap_ns);
    }
  }
  // The attack clears when the window closes (Shutdown is idempotent, so the
  // end-of-run call is still safe).
  sim.ScheduleAt(start_at + duration, [this] { Shutdown(); });
}

void AbusiveFleet::Shutdown() {
  shutdown_ = true;
  for (Slowloris& member : slowloris_) {
    member.write_timer.Cancel();
    member.reconnect_timer.Cancel();
    if (member.socket != nullptr) {
      member.socket->on_connected = nullptr;
      member.socket->on_refused = nullptr;
      member.socket->on_eof = nullptr;
      member.socket->Close();
      member.socket = nullptr;
    }
  }
  for (std::unique_ptr<Aborter>& aborter : aborters_) {
    aborter->abort_timer.Cancel();
    if (aborter->socket != nullptr) {
      aborter->socket->on_connected = nullptr;
      aborter->socket->on_refused = nullptr;
      aborter->socket->on_eof = nullptr;
      aborter->socket->Close();
      aborter->socket = nullptr;
    }
  }
}

void AbusiveFleet::ConnectSlowloris(size_t idx) {
  if (shutdown_) {
    return;
  }
  Slowloris& member = slowloris_[idx];
  member.next_byte = 0;
  member.socket = net_->Connect(listener_);
  if (member.socket == nullptr) {
    ++slowloris_reconnects_;
    member.reconnect_timer = net_->kernel()->sim().ScheduleAfter(
        workload_.slowloris_reconnect_delay, [this, idx] { ConnectSlowloris(idx); });
    return;
  }
  member.socket->on_connected = [this, idx] {
    if (!shutdown_) {
      ScheduleSlowlorisWrite(idx);
    }
  };
  auto reopen = [this, idx] {
    // Reaped or refused: come straight back, like the real attack tool.
    Slowloris& m = slowloris_[idx];
    m.write_timer.Cancel();
    if (m.socket != nullptr) {
      // This lambda *is* the socket's on_eof/on_refused. Detach every
      // callback before Close() so no further event re-enters us, and so
      // dropping our strong reference below never destroys a callback
      // that is still on the call stack (the dispatch sites also invoke a
      // local copy, but teardown should not lean on that alone).
      m.socket->on_connected = nullptr;
      m.socket->on_refused = nullptr;
      m.socket->on_eof = nullptr;
      m.socket->Close();
      m.socket = nullptr;
    }
    if (!shutdown_) {
      ++slowloris_reconnects_;
      m.reconnect_timer = net_->kernel()->sim().ScheduleAfter(
          workload_.slowloris_reconnect_delay, [this, idx] { ConnectSlowloris(idx); });
    }
  };
  member.socket->on_refused = reopen;
  member.socket->on_eof = reopen;
}

void AbusiveFleet::ScheduleSlowlorisWrite(size_t idx) {
  // +/-25% jitter so thousands of drips don't phase-lock into a comb.
  const auto base = static_cast<double>(workload_.slowloris_write_interval);
  const auto interval = static_cast<SimDuration>(base * rng_.UniformReal(0.75, 1.25));
  slowloris_[idx].write_timer =
      net_->kernel()->sim().ScheduleAfter(interval, [this, idx] {
        if (shutdown_) {
          return;
        }
        Slowloris& member = slowloris_[idx];
        if (member.socket == nullptr ||
            member.socket->state() != SimSocket::State::kEstablished) {
          return;
        }
        const char byte = member.next_byte < drip_request_.size()
                              ? drip_request_[member.next_byte]
                              : 'z';
        ++member.next_byte;
        member.socket->Write(Chunk{std::string(1, byte), 0});
        ++slowloris_bytes_;
        ScheduleSlowlorisWrite(idx);
      });
}

void AbusiveFleet::LaunchAborter() {
  if (shutdown_) {
    return;
  }
  aborters_.push_back(std::make_unique<Aborter>());
  Aborter* aborter = aborters_.back().get();
  aborter->socket = net_->Connect(listener_);
  if (aborter->socket == nullptr) {
    return;  // out of ports; the churn stream just thins out
  }
  aborter->socket->on_refused = [this, aborter] { FinishAborter(aborter); };
  aborter->socket->on_eof = [this, aborter] { FinishAborter(aborter); };
  aborter->socket->on_connected = [this, aborter] {
    if (shutdown_) {
      return;
    }
    aborter->abort_timer = net_->kernel()->sim().ScheduleAfter(
        workload_.abort_after, [this, aborter] {
          ++aborts_completed_;
          FinishAborter(aborter);
        });
  };
}

void AbusiveFleet::FinishAborter(Aborter* aborter) {
  aborter->abort_timer.Cancel();
  if (aborter->socket != nullptr) {
    aborter->socket->on_connected = nullptr;
    aborter->socket->on_refused = nullptr;
    aborter->socket->on_eof = nullptr;
    aborter->socket->Close();
    aborter->socket = nullptr;
  }
}

}  // namespace scio
