// File objects: anything a file descriptor can refer to.
//
// A File exposes its instantaneous readiness through PollMask() (the "driver
// poll callback" in the paper's terms — invoking it is charged as an
// expensive operation), and pushes state-change notifications through
// NotifyStatus(). Notifications fan out to:
//   1. registered StatusListeners — /dev/poll backmap links use these to set
//      hints (paper §3.2);
//   2. the owner's RT signal queue, if fcntl(F_SETSIG) armed one (paper §2);
//   3. the file's poll wait queue, waking blocked poll()/DP_POLL sleepers.
// Hints are set before sleepers wake, so a woken scan always observes them.
//
// Every connection holds a File, so its layout is kept to 72 bytes: the first
// listener (the one-interest case of every epoll/kqueue/devpoll
// registration) sits inline, and further listeners plus all RT-signal state
// live in a side block allocated on first use. Most files never allocate it.

#ifndef SRC_KERNEL_FILE_H_
#define SRC_KERNEL_FILE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/kernel/poll_types.h"
#include "src/kernel/wait_queue.h"

namespace scio {

class File;
class Process;
class SimKernel;

class StatusListener {
 public:
  virtual ~StatusListener() = default;
  // `mask` is the subset of poll bits whose state just changed (to active).
  virtual void OnFileStatus(File& file, PollEvents mask) = 0;
};

// How NotifyStatus distributes the RT signal when several processes have
// armed async signals on the same file (N workers sharing one listener fd):
//  - kAll mirrors 2.2 SIGIO fan-out: every subscriber gets the signal — the
//    thundering herd, reproduced on purpose;
//  - kRoundRobin delivers each event to exactly one subscriber, rotating —
//    the signal-plane analogue of the wake-one wait-queue fix.
enum class AsyncDeliveryMode { kAll, kRoundRobin };

class File {
 public:
  explicit File(SimKernel* kernel) : kernel_(kernel) {}
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  virtual ~File() = default;

  // Instantaneous readiness. This is the driver poll callback: callers that
  // model kernel scans must charge CostModel::*driver_poll* when calling it.
  virtual PollEvents PollMask() const = 0;

  // Whether this file's driver participates in the /dev/poll hinting scheme
  // (paper §3.2: only essential drivers are modified; others fall back to
  // being polled on every scan).
  virtual bool SupportsPollHints() const { return false; }

  // Invoked when the last fd reference is closed.
  virtual void OnFdClose() {}

  SimKernel* kernel() const { return kernel_; }
  WaitQueue& poll_wait() { return poll_wait_; }

  // Fan a state change out to listeners, signal owner, and sleepers.
  void NotifyStatus(PollEvents mask);

  void AddStatusListener(StatusListener* listener);
  void RemoveStatusListener(StatusListener* listener);
  size_t status_listener_count() const {
    return first_listener_ == nullptr ? 0 : 1 + (fan_out_ ? fan_out_->more_listeners.size() : 0);
  }

  // fcntl(F_SETOWN)/fcntl(F_SETSIG): arm async event signals. The owner list
  // supports one subscription per process so N workers can share a listener.
  // signo != 0 adds/updates `owner`'s subscription; signo == 0 with a non-null
  // owner removes only that process's subscription; a null owner disarms all
  // (the legacy single-owner disarm path).
  void SetAsyncSignal(Process* owner, int signo);
  Process* async_owner() const {
    return async_sub_count() == 0 ? nullptr : fan_out_->async_subs.front().proc;
  }
  int async_signo() const {
    return async_sub_count() == 0 ? 0 : fan_out_->async_subs.front().signo;
  }
  size_t async_sub_count() const { return fan_out_ ? fan_out_->async_subs.size() : 0; }

  void SetAsyncDeliveryMode(AsyncDeliveryMode mode);
  AsyncDeliveryMode async_delivery_mode() const {
    return fan_out_ ? fan_out_->async_mode : AsyncDeliveryMode::kAll;
  }

  // Whether the side block holding extra listeners and RT-signal state has
  // been allocated (exposed for the footprint tests).
  bool has_fan_out() const { return fan_out_ != nullptr; }

  // The fd number this file is installed under (for signal payloads and
  // result reporting). Maintained by FdTable.
  void set_fd_number(int fd) { fd_number_ = fd; }
  int fd_number() const { return fd_number_; }

 private:
  struct AsyncSub {
    Process* proc = nullptr;
    int signo = 0;
  };

  // Everything past the first listener: rare, so allocated on first use.
  struct FanOut {
    std::vector<StatusListener*> more_listeners;  // after first_listener_
    std::vector<AsyncSub> async_subs;             // registration order
    AsyncDeliveryMode async_mode = AsyncDeliveryMode::kAll;
    size_t async_rr_next = 0;
  };

  FanOut& fan_out();
  // Free the side block once it holds nothing a fresh one would not.
  void ReleaseIdleFanOut();

  SimKernel* kernel_;
  WaitQueue poll_wait_;
  StatusListener* first_listener_ = nullptr;  // registration order: first
  std::unique_ptr<FanOut> fan_out_;
  int fd_number_ = -1;
};

}  // namespace scio

#endif  // SRC_KERNEL_FILE_H_
