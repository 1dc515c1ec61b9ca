#include "src/kernel/file.h"

#include <algorithm>

#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"

namespace scio {

void File::NotifyStatus(PollEvents mask) {
  // 1. Backmap hints and other listeners run first (driver context).
  //    A lone listener is called directly. With more, snapshot: a listener
  //    callback must not mutate the list re-entrantly, but hint marking can
  //    wake processes whose reaction could.
  if (first_listener_ != nullptr) {
    if (!fan_out_ || fan_out_->more_listeners.empty()) {
      first_listener_->OnFileStatus(*this, mask);
    } else {
      std::vector<StatusListener*> snapshot;
      snapshot.reserve(1 + fan_out_->more_listeners.size());
      snapshot.push_back(first_listener_);
      snapshot.insert(snapshot.end(), fan_out_->more_listeners.begin(),
                      fan_out_->more_listeners.end());
      for (StatusListener* l : snapshot) {
        l->OnFileStatus(*this, mask);
      }
    }
  }
  // 2. Queue the RT signal, if armed (paper §2: the kernel raises the
  //    assigned signal whenever a read/write/close operation completes).
  //    kAll fans the event out to every subscriber (herd); kRoundRobin
  //    delivers it to exactly one, rotating in registration order.
  if (async_sub_count() > 0) {
    FanOut& fo = *fan_out_;
    if (fo.async_mode == AsyncDeliveryMode::kAll) {
      for (const AsyncSub& sub : fo.async_subs) {
        kernel_->QueueRtSignal(*sub.proc, SigInfo{sub.signo, fd_number_, mask});
      }
    } else {
      const AsyncSub& sub = fo.async_subs[fo.async_rr_next % fo.async_subs.size()];
      fo.async_rr_next = (fo.async_rr_next + 1) % fo.async_subs.size();
      kernel_->QueueRtSignal(*sub.proc, SigInfo{sub.signo, fd_number_, mask});
    }
  }
  // 3. Wake blocked poll()/DP_POLL/sigwaitinfo sleepers. wake_up(), not
  //    wake_up_all(): with no exclusive waiters registered (every pre-SMP
  //    configuration) the two are identical; with exclusive waiters this is
  //    where the 2.3 wake-one fix takes effect.
  poll_wait_.WakeOne();
}

File::FanOut& File::fan_out() {
  if (!fan_out_) {
    fan_out_ = std::make_unique<FanOut>();
  }
  return *fan_out_;
}

void File::ReleaseIdleFanOut() {
  if (fan_out_ && fan_out_->more_listeners.empty() && fan_out_->async_subs.empty() &&
      fan_out_->async_mode == AsyncDeliveryMode::kAll) {
    fan_out_.reset();
  }
}

void File::AddStatusListener(StatusListener* listener) {
  if (first_listener_ == nullptr) {
    first_listener_ = listener;
  } else {
    fan_out().more_listeners.push_back(listener);
  }
}

void File::RemoveStatusListener(StatusListener* listener) {
  if (fan_out_) {
    std::vector<StatusListener*>& more = fan_out_->more_listeners;
    more.erase(std::remove(more.begin(), more.end(), listener), more.end());
  }
  if (first_listener_ == listener) {
    // Promote the next registration so fan-out order is unchanged.
    if (fan_out_ && !fan_out_->more_listeners.empty()) {
      first_listener_ = fan_out_->more_listeners.front();
      fan_out_->more_listeners.erase(fan_out_->more_listeners.begin());
    } else {
      first_listener_ = nullptr;
    }
  }
  ReleaseIdleFanOut();
}

void File::SetAsyncSignal(Process* owner, int signo) {
  if (owner == nullptr) {
    // Legacy disarm: drop every subscription.
    if (fan_out_) {
      fan_out_->async_subs.clear();
      fan_out_->async_rr_next = 0;
      ReleaseIdleFanOut();
    }
    return;
  }
  if (fan_out_) {
    std::vector<AsyncSub>& subs = fan_out_->async_subs;
    for (auto it = subs.begin(); it != subs.end(); ++it) {
      if (it->proc == owner) {
        if (signo == 0) {
          subs.erase(it);
          fan_out_->async_rr_next = 0;
          ReleaseIdleFanOut();
        } else {
          it->signo = signo;
        }
        return;
      }
    }
  }
  if (signo != 0) {
    fan_out().async_subs.push_back(AsyncSub{owner, signo});
  }
}

void File::SetAsyncDeliveryMode(AsyncDeliveryMode mode) {
  if (mode == AsyncDeliveryMode::kAll && !fan_out_) {
    return;  // the default: no block needed to say so
  }
  fan_out().async_mode = mode;
  ReleaseIdleFanOut();
}

}  // namespace scio
