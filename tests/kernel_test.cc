// Tests for the simulated kernel substrate: fd table, wait queues, files,
// process RT signal queues, and time accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/kernel/fd_table.h"
#include "src/kernel/file.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"

namespace scio {
namespace {

// A minimal controllable file for kernel-level tests.
class FakeFile : public File {
 public:
  explicit FakeFile(SimKernel* kernel) : File(kernel) {}
  PollEvents PollMask() const override { return mask_; }
  bool SupportsPollHints() const override { return hints_; }
  void OnFdClose() override { ++close_calls_; }

  void SetMask(PollEvents mask) { mask_ = mask; }
  void set_hints(bool hints) { hints_ = hints; }
  int close_calls() const { return close_calls_; }

 private:
  PollEvents mask_ = 0;
  bool hints_ = true;
  int close_calls_ = 0;
};

struct KernelFixture : ::testing::Test {
  Simulator sim;
  SimKernel kernel{&sim};
};

// --- FdTable -------------------------------------------------------------------

TEST_F(KernelFixture, FdTableAllocatesLowestFree) {
  FdTable table(16);
  auto f0 = std::make_shared<FakeFile>(&kernel);
  auto f1 = std::make_shared<FakeFile>(&kernel);
  auto f2 = std::make_shared<FakeFile>(&kernel);
  EXPECT_EQ(table.Allocate(f0), 0);
  EXPECT_EQ(table.Allocate(f1), 1);
  EXPECT_EQ(table.Allocate(f2), 2);
  EXPECT_EQ(table.Close(1), 0);
  auto f3 = std::make_shared<FakeFile>(&kernel);
  EXPECT_EQ(table.Allocate(f3), 1) << "freed fd is reused lowest-first";
}

TEST_F(KernelFixture, FdTableRespectsLimit) {
  FdTable table(2);
  EXPECT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), 0);
  EXPECT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), 1);
  EXPECT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), -1) << "EMFILE";
  EXPECT_EQ(table.open_count(), 2u);
}

TEST_F(KernelFixture, FdTableCloseRunsHookOnceAndRejectsDoubleClose) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  const int fd = table.Allocate(file);
  EXPECT_EQ(table.Close(fd), 0);
  EXPECT_EQ(file->close_calls(), 1);
  EXPECT_EQ(table.Close(fd), -1) << "EBADF";
  EXPECT_EQ(table.Get(fd), nullptr);
}

TEST_F(KernelFixture, FdTableKeepsFileAliveThroughSharedPtr) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  std::weak_ptr<FakeFile> weak = file;
  const int fd = table.Allocate(file);
  file.reset();
  EXPECT_FALSE(weak.expired()) << "table holds a reference";
  table.Close(fd);
  EXPECT_TRUE(weak.expired());
}

TEST_F(KernelFixture, FdTableSetsFdNumber) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  const int fd = table.Allocate(file);
  EXPECT_EQ(file->fd_number(), fd);
}

TEST_F(KernelFixture, FdTableOpenFdsSnapshot) {
  FdTable table(8);
  table.Allocate(std::make_shared<FakeFile>(&kernel));
  table.Allocate(std::make_shared<FakeFile>(&kernel));
  table.Allocate(std::make_shared<FakeFile>(&kernel));
  table.Close(1);
  EXPECT_EQ(table.OpenFds(), (std::vector<int>{0, 2}));
}

// --- WaitQueue ---------------------------------------------------------------

TEST_F(KernelFixture, WaitQueueWakesAllRegistered) {
  WaitQueue queue;
  int wakes = 0;
  Waiter a([&] { ++wakes; });
  Waiter b([&] { ++wakes; });
  queue.Add(&a);
  queue.Add(&b);
  queue.WakeAll();
  EXPECT_EQ(wakes, 2);
}

TEST_F(KernelFixture, WaiterUnregistersOnDestruction) {
  WaitQueue queue;
  int wakes = 0;
  {
    Waiter w([&] { ++wakes; });
    queue.Add(&w);
    EXPECT_EQ(queue.size(), 1u);
  }
  EXPECT_EQ(queue.size(), 0u);
  queue.WakeAll();
  EXPECT_EQ(wakes, 0);
}

TEST_F(KernelFixture, WaitQueueRemoveIsIdempotent) {
  WaitQueue queue;
  Waiter w([] {});
  queue.Add(&w);
  queue.Remove(&w);
  queue.Remove(&w);
  EXPECT_EQ(queue.size(), 0u);
}

// --- File notification fan-out -----------------------------------------------

class RecordingListener : public StatusListener {
 public:
  void OnFileStatus(File& file, PollEvents mask) override {
    ++calls;
    last_fd = file.fd_number();
    last_mask = mask;
  }
  int calls = 0;
  int last_fd = -1;
  PollEvents last_mask = 0;
};

TEST_F(KernelFixture, NotifyStatusReachesListeners) {
  FakeFile file(&kernel);
  file.set_fd_number(7);
  RecordingListener listener;
  file.AddStatusListener(&listener);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.last_fd, 7);
  EXPECT_EQ(listener.last_mask, kPollIn);
  file.RemoveStatusListener(&listener);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(listener.calls, 1);
}

// Records each notification as its name, so fan-out order is visible.
class NamedListener : public StatusListener {
 public:
  NamedListener(char name, std::string* log) : name_(name), log_(log) {}
  void OnFileStatus(File& /*file*/, PollEvents /*mask*/) override { log_->push_back(name_); }

 private:
  char name_;
  std::string* log_;
};

TEST_F(KernelFixture, FanOutKeepsRegistrationOrderAcrossRemoval) {
  FakeFile file(&kernel);
  std::string log;
  NamedListener a('A', &log);
  NamedListener b('B', &log);
  NamedListener c('C', &log);
  EXPECT_EQ(file.status_listener_count(), 0u);
  file.AddStatusListener(&a);
  EXPECT_EQ(file.status_listener_count(), 1u);
  EXPECT_FALSE(file.has_fan_out()) << "the first listener sits inline";
  file.AddStatusListener(&b);
  EXPECT_EQ(file.status_listener_count(), 2u);
  file.AddStatusListener(&c);
  EXPECT_EQ(file.status_listener_count(), 3u);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(log, "ABC");

  // Removing the inline listener promotes the next registration.
  file.RemoveStatusListener(&a);
  EXPECT_EQ(file.status_listener_count(), 2u);
  log.clear();
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(log, "BC");

  file.RemoveStatusListener(&c);
  EXPECT_EQ(file.status_listener_count(), 1u);
  EXPECT_FALSE(file.has_fan_out()) << "an emptied side block is freed";
  log.clear();
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(log, "B");

  file.RemoveStatusListener(&b);
  EXPECT_EQ(file.status_listener_count(), 0u);
  log.clear();
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(log, "");
}

TEST_F(KernelFixture, RtSignalFanOutAndRoundRobinOverThreeSubscribers) {
  FakeFile file(&kernel);
  file.set_fd_number(5);
  EXPECT_EQ(file.async_delivery_mode(), AsyncDeliveryMode::kAll);
  file.SetAsyncDeliveryMode(AsyncDeliveryMode::kAll);
  EXPECT_FALSE(file.has_fan_out()) << "the default mode needs no side block";

  std::vector<Process*> subs = {&kernel.CreateProcess("w0"), &kernel.CreateProcess("w1"),
                                &kernel.CreateProcess("w2")};
  for (Process* p : subs) {
    file.SetAsyncSignal(p, kSigRtMin);
  }
  EXPECT_EQ(file.async_sub_count(), 3u);
  EXPECT_EQ(file.async_owner(), subs[0]);

  // Which subscriber(s) received the last notification, draining each queue.
  auto receivers = [&] {
    std::string got;
    for (size_t i = 0; i < subs.size(); ++i) {
      while (auto si = subs[i]->DequeueSignal()) {
        EXPECT_EQ(si->fd, 5);
        got.push_back(static_cast<char>('0' + i));
      }
    }
    return got;
  };

  // kAll: the herd — every subscriber gets every event.
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(receivers(), "012");

  // kRoundRobin: one subscriber per event, rotating in registration order.
  file.SetAsyncDeliveryMode(AsyncDeliveryMode::kRoundRobin);
  EXPECT_EQ(file.async_delivery_mode(), AsyncDeliveryMode::kRoundRobin);
  std::string order;
  for (int i = 0; i < 6; ++i) {
    file.NotifyStatus(kPollIn);
    order += receivers();
  }
  EXPECT_EQ(order, "012012");

  // Unsubscribing one process restarts the rotation over the survivors.
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(receivers(), "0");
  file.SetAsyncSignal(subs[1], 0);
  EXPECT_EQ(file.async_sub_count(), 2u);
  order.clear();
  for (int i = 0; i < 3; ++i) {
    file.NotifyStatus(kPollIn);
    order += receivers();
  }
  EXPECT_EQ(order, "020");

  // Disarming everything keeps the chosen mode; returning to kAll frees the
  // side block.
  file.SetAsyncSignal(nullptr, 0);
  EXPECT_EQ(file.async_sub_count(), 0u);
  EXPECT_EQ(file.async_owner(), nullptr);
  EXPECT_EQ(file.async_delivery_mode(), AsyncDeliveryMode::kRoundRobin);
  file.SetAsyncDeliveryMode(AsyncDeliveryMode::kAll);
  EXPECT_FALSE(file.has_fan_out());
}

TEST_F(KernelFixture, NotifyStatusQueuesArmedSignal) {
  Process& proc = kernel.CreateProcess("p");
  FakeFile file(&kernel);
  file.set_fd_number(9);
  file.SetAsyncSignal(&proc, kSigRtMin + 2);
  file.NotifyStatus(kPollIn);
  auto si = proc.DequeueSignal();
  ASSERT_TRUE(si.has_value());
  EXPECT_EQ(si->signo, kSigRtMin + 2);
  EXPECT_EQ(si->fd, 9);
  EXPECT_EQ(si->band, kPollIn);
}

TEST_F(KernelFixture, NotifyStatusWakesPollSleepers) {
  Process& proc = kernel.CreateProcess("p");
  FakeFile file(&kernel);
  Waiter w([&] { proc.Wake(); });
  file.poll_wait().Add(&w);
  EXPECT_FALSE(proc.woken());
  file.NotifyStatus(kPollOut);
  EXPECT_TRUE(proc.woken());
}

// --- Process RT signal queue ----------------------------------------------------

TEST_F(KernelFixture, SignalsDequeueLowestSignoFirstFifoWithin) {
  Process& proc = kernel.CreateProcess("p");
  proc.QueueSignal({40, 1, kPollIn});
  proc.QueueSignal({35, 2, kPollIn});
  proc.QueueSignal({40, 3, kPollIn});
  proc.QueueSignal({35, 4, kPollIn});
  std::vector<int> fds;
  while (auto si = proc.DequeueSignal()) {
    fds.push_back(si->fd);
  }
  // All signo-35 first (in order), then all signo-40 (in order): the paper's
  // "activity on lower-numbered connections can cause longer delays for
  // higher-numbered connections".
  EXPECT_EQ(fds, (std::vector<int>{2, 4, 1, 3}));
}

TEST_F(KernelFixture, QueueOverflowRaisesSigIo) {
  Process& proc = kernel.CreateProcess("p");
  proc.set_rt_queue_max(3);
  EXPECT_TRUE(proc.QueueSignal({35, 1, kPollIn}));
  EXPECT_TRUE(proc.QueueSignal({35, 2, kPollIn}));
  EXPECT_TRUE(proc.QueueSignal({35, 3, kPollIn}));
  EXPECT_FALSE(proc.QueueSignal({35, 4, kPollIn})) << "dropped on overflow";
  EXPECT_TRUE(proc.sigio_pending());
  EXPECT_EQ(proc.rt_queue_length(), 3u);
  // SIGIO delivers before any queued RT signal (lower signal number).
  auto si = proc.DequeueSignal();
  ASSERT_TRUE(si.has_value());
  EXPECT_EQ(si->signo, kSigIo);
  EXPECT_FALSE(proc.sigio_pending());
}

TEST_F(KernelFixture, FlushClearsQueueAndSigIo) {
  Process& proc = kernel.CreateProcess("p");
  proc.set_rt_queue_max(2);
  proc.QueueSignal({35, 1, kPollIn});
  proc.QueueSignal({35, 2, kPollIn});
  proc.QueueSignal({35, 3, kPollIn});  // overflow
  EXPECT_EQ(proc.FlushRtSignals(), 2u);
  EXPECT_FALSE(proc.sigio_pending());
  EXPECT_FALSE(proc.HasPendingSignals());
}

TEST_F(KernelFixture, QueuePeakTracksHighWater) {
  Process& proc = kernel.CreateProcess("p");
  proc.QueueSignal({35, 1, kPollIn});
  proc.QueueSignal({35, 2, kPollIn});
  proc.DequeueSignal();
  proc.QueueSignal({35, 3, kPollIn});
  EXPECT_EQ(proc.rt_queue_peak(), 2u);
}

TEST_F(KernelFixture, PeekDoesNotConsume) {
  Process& proc = kernel.CreateProcess("p");
  proc.QueueSignal({35, 1, kPollIn});
  EXPECT_TRUE(proc.PeekSignal().has_value());
  EXPECT_EQ(proc.rt_queue_length(), 1u);
}

// --- time accounting -------------------------------------------------------------

TEST_F(KernelFixture, ChargeAdvancesClockAndBusyTime) {
  kernel.Charge(Micros(100), ChargeCat::kOther);
  EXPECT_EQ(kernel.now(), Micros(100));
  EXPECT_EQ(kernel.busy_time(), Micros(100));
}

TEST_F(KernelFixture, ChargeRunsEventsInsideBusyWindow) {
  bool delivered = false;
  sim.ScheduleAt(Micros(50), [&] { delivered = true; });
  kernel.Charge(Micros(100), ChargeCat::kOther);
  EXPECT_TRUE(delivered) << "packets arrive while the server computes";
}

TEST_F(KernelFixture, DebtFoldsIntoNextCharge) {
  kernel.ChargeDebt(Micros(30), ChargeCat::kOther);
  EXPECT_EQ(kernel.pending_interrupt_debt(), Micros(30));
  kernel.Charge(Micros(10), ChargeCat::kOther);
  EXPECT_EQ(kernel.now(), Micros(40));
  EXPECT_EQ(kernel.pending_interrupt_debt(), 0);
}

TEST_F(KernelFixture, CpuScaleMultipliesCharges) {
  CostModel cost;
  cost.cpu_scale = 2.0;
  SimKernel scaled(&sim, cost);
  scaled.Charge(Micros(10), ChargeCat::kOther);
  EXPECT_EQ(scaled.now(), sim.now());
  EXPECT_EQ(scaled.busy_time(), Micros(20));
}

TEST_F(KernelFixture, BlockProcessWokenByEvent) {
  Process& proc = kernel.CreateProcess("p");
  sim.ScheduleAt(Micros(40), [&] { proc.Wake(); });
  EXPECT_TRUE(kernel.BlockProcess(proc, Seconds(1)));
  EXPECT_EQ(kernel.now(), Micros(40));
  EXPECT_FALSE(proc.woken()) << "wake flag consumed";
}

TEST_F(KernelFixture, BlockProcessTimesOut) {
  Process& proc = kernel.CreateProcess("p");
  EXPECT_FALSE(kernel.BlockProcess(proc, Micros(25)));
  EXPECT_EQ(kernel.now(), Micros(25));
}

TEST_F(KernelFixture, BlockProcessAbsorbsIdleDebt) {
  Process& proc = kernel.CreateProcess("p");
  sim.ScheduleAt(Micros(10), [&] { kernel.ChargeDebt(Micros(500), ChargeCat::kOther); });
  EXPECT_FALSE(kernel.BlockProcess(proc, Micros(100))) << "nothing wakes it";
  EXPECT_EQ(kernel.pending_interrupt_debt(), 0) << "idle CPU absorbed the interrupt";
}

TEST_F(KernelFixture, StopRequestUnblocks) {
  Process& proc = kernel.CreateProcess("p");
  sim.ScheduleAt(Micros(5), [&] { kernel.RequestStop(); });
  EXPECT_FALSE(kernel.BlockProcess(proc, kSimTimeNever));
  EXPECT_TRUE(kernel.stopped());
}

TEST_F(KernelFixture, QueueRtSignalCountsOverflows) {
  Process& proc = kernel.CreateProcess("p");
  proc.set_rt_queue_max(1);
  kernel.QueueRtSignal(proc, {35, 1, kPollIn});
  kernel.QueueRtSignal(proc, {35, 2, kPollIn});
  EXPECT_EQ(kernel.stats().rt_signals_queued, 1u);
  EXPECT_EQ(kernel.stats().rt_signals_dropped, 1u);
  EXPECT_EQ(kernel.stats().rt_queue_overflows, 1u);
}

}  // namespace
}  // namespace scio
