#include "span_trace.h"

#include <time.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <atomic>
#include <mutex>

namespace perfbench {
namespace {

// Hot boundaries (tens of millions of crossings per run) are timed 1-in-64.
constexpr uint32_t kHot = 64;

constexpr Boundary kBoundaries[kBoundaryCount] = {
    {"bench.server_run", kServers, 1},
    {"bench.load_start", kLoad, 1},
    {"bench.fleet", kLoad, 1},
    {"bench.teardown_load", kLoad, 1},
    {"bench.teardown_servers", kServers, 1},
    {"bench.teardown_net", kNet, 1},
    {"bench.teardown_kernel", kKernel, 1},
    {"bench.teardown_sim", kSim, 1},
    {"Simulator::StepUntil", kSim, 1},
    {"Simulator::AdvanceTo", kSim, kHot},
    {"SimKernel::Charge", kKernel, kHot},
    {"FdTable::Get", kKernel, kHot},
    {"SimKernel::BlockProcess", kKernel, 1},
    {"Sys::Accept", kCore, 1},
    {"Sys::Read", kCore, 1},
    {"Sys::Write", kCore, 1},
    {"Sys::Close", kCore, 1},
    {"Sys::DevPollPoll", kCore, 1},
    {"Sys::DevPollWrite", kCore, 1},
    {"Sys::EpollCtl", kCore, 1},
    {"Sys::EpollWait", kCore, 1},
    {"DevPollDevice::IoctlDpPoll", kCore, 1},
    {"EpollDevice::Wait", kCore, 1},
    {"NetStack::Connect", kNet, 1},
    {"SimSocket::Read", kNet, 1},
    {"SimSocket::Write", kNet, 1},
    {"SimSocket::DeliverChunk", kNet, 1},
    {"SimSocket::DeliverEof", kNet, 1},
    {"SimListener::Accept", kNet, 1},
    {"SimListener::HandleSyn", kNet, 1},
    {"RequestParser::Feed", kHttp, 1},
    {"ResponseReader::Feed", kHttp, 1},
    {"BuildHttpOkResponse", kHttp, 1},
    {"BuildHttpRequest", kHttp, 1},
    {"HttpServerBase::DispatchEvent", kServers, 1},
    {"HttpServerBase::HandleReadable", kServers, 1},
    {"HttpServerBase::HandleWritable", kServers, 1},
    {"HttpServerBase::DrainAccepts", kServers, 1},
    {"HttpServerBase::MaybeSweep", kServers, 1},
    {"HttpServerBase::CloseConn", kServers, 1},
    {"ActiveClient::Start", kLoad, 1},
    {"SmpScheduler::Run", kSmp, 1},
    {"condition_variable::notify_all", kSmp, 1},
    {"condition_variable::wait", kSmp, 1},
    {"calibration.every_call", kBench, 1},
    {"calibration.hot0", kBench, kHot},
    {"calibration.hot1", kBench, kHot},
    {"calibration.hot2", kBench, kHot},
    {"calibration.hot3", kBench, kHot},
};

constexpr const char* kLayerNames[kLayerCount] = {
    "bench", "sim", "kernel", "core", "net", "http", "servers", "load", "smp"};

constexpr int kMaxDepth = 256;

// Sampling classes: boundaries timed on every call, and hot ones (1-in-kHot).
// Each class has its own calibrated costs, because a sampled span also pays
// for the mispredicted timed-or-not branch.
constexpr int kClassCount = 2;

struct Frame {
  uint64_t t0;
  uint64_t blocked0;
  double overhead0;
  uint32_t weight;  // 0 = not timed
  uint8_t layer;
  uint8_t cls;
  bool exact;  // a hot span holding an every-call span: timed at weight 1
};

// Trivially constructible so the hot path reaches it without a TLS init
// guard.
struct ThreadState {
  Frame stack[kMaxDepth];
  int depth;
  uint64_t calls[kBoundaryCount];
  double self_ticks[kLayerCount];
  uint64_t blocked_ticks;
  double overhead_ticks;  // calibrated cost of the spans opened on this thread
  // Uncorrected readings of timed spans, per class (calibration only).
  double raw_ticks[kClassCount];
  uint64_t raw_count[kClassCount];
  uint64_t pending_gap;  // handoff gap of the last wakeup, not yet committed
  uint64_t first_ts;
  uint64_t last_ts;
  uint64_t dropped;
  bool is_main;
  bool registered;
};

constinit thread_local ThreadState tls{};

std::atomic<bool> g_window{false};
std::atomic<uint64_t> g_last_notify{0};
std::mutex g_mu;
TraceTotals g_totals;  // in ticks until EndWindow converts it
uint64_t g_window_begin = 0;
uint64_t g_window_begin_ns = 0;
// Calibrated per class: what one timed or untimed span costs the span around
// it, and the instrumentation inside a timed span's own reading. Parents are
// charged the cost of what actually happened: a hot child is often timed
// exactly when its parent is (SimKernel::Charge and Simulator::AdvanceTo are
// crossed in lockstep), so an average cost would bias every sampled parent.
double g_cost_timed[kClassCount] = {};
double g_cost_untimed[kClassCount] = {};
double g_cost_self[kClassCount] = {};

uint64_t MonotonicNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Span clock. On x86-64 the time-stamp counter: one instruction, no memory
// access, so a sampled read costs the same whether or not the clock's data
// is in cache (clock_gettime's is not, 1-in-64 calls apart, and that skew
// dwarfed the spans it timed). Ticks are converted to nanoseconds against
// CLOCK_MONOTONIC over the window; every thread-side figure is in ticks.
inline uint64_t Now() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return MonotonicNs();
#endif
}

// Caller holds g_mu.
void MergeLocked(ThreadState& st) {
  for (int i = 0; i < kBoundaryCount; ++i) {
    g_totals.calls[i] += st.calls[i];
    st.calls[i] = 0;
  }
  for (int i = 0; i < kLayerCount; ++i) {
    g_totals.self_ns[i] += st.self_ticks[i];
    st.self_ticks[i] = 0;
  }
  g_totals.blocked_ns += st.blocked_ticks;
  g_totals.dropped += st.dropped;
  g_totals.overhead_ns += st.overhead_ticks;
  st.blocked_ticks = 0;
  st.dropped = 0;
  st.overhead_ticks = 0;
  st.registered = false;
}

// A worker thread's bottom frame is its server body: everything the thread
// did while holding the baton and outside every span is servers time. Merged
// when the thread exits (join() returns only after this ran).
struct WorkerExit {
  bool armed = false;
  ~WorkerExit() {
    ThreadState& st = tls;
    if (!armed || !st.registered || st.is_main) {
      return;
    }
    st.self_ticks[kSmp] += static_cast<double>(st.pending_gap);
    st.self_ticks[kServers] += static_cast<double>(st.last_ts - st.first_ts) -
                               static_cast<double>(st.blocked_ticks) - st.overhead_ticks;
    std::lock_guard<std::mutex> lock(g_mu);
    MergeLocked(st);
  }
};

thread_local WorkerExit tls_exit;

void Touch(ThreadState& st, uint64_t t) {
  if (!st.registered) {
    st.registered = true;
    st.first_ts = t;
    if (!st.is_main) {
      tls_exit.armed = true;
    }
  }
  st.last_ts = t;
}

// A thread that woke from the baton wait and then did anything but park again
// is the one that took the baton: its wakeup gap is smp time.
inline void CommitGap(ThreadState& st) {
  if (st.pending_gap != 0) {
    st.self_ticks[kSmp] += static_cast<double>(st.pending_gap);
    st.pending_gap = 0;
  }
}

// An every-call span opening inside hot spans (events run by a sampled
// AdvanceTo, say) would give the 1-in-64 estimate of those hot spans a heavy
// tail. Instead, every hot span that holds an every-call span is timed
// exactly, at weight 1: a sampled one keeps its start, an unsampled one starts
// now (the few instructions before are left to its parent). The 1-in-64
// samples then estimate only the hot spans that hold none.
void PromoteHotAncestors(ThreadState& st) {
  uint64_t now = 0;
  for (int i = st.depth - 2; i >= 0; --i) {
    Frame& a = st.stack[i];
    if (a.cls == 0 || a.exact) {
      break;
    }
    if (a.weight == 0) {
      if (now == 0) {
        now = Now();
      }
      a.t0 = now;
      a.blocked0 = st.blocked_ticks;
      a.overhead0 = st.overhead_ticks;
    }
    a.weight = 1;
    a.exact = true;
  }
}

}  // namespace

const char* LayerName(int layer) { return kLayerNames[layer]; }

const Boundary& BoundaryInfo(int id) { return kBoundaries[id]; }

bool SpanEnter(int boundary) {
  if (!g_window.load(std::memory_order_relaxed)) {
    return false;
  }
  ThreadState& st = tls;
  CommitGap(st);
  const uint64_t n = ++st.calls[boundary];
  if (st.depth == kMaxDepth) {
    ++st.dropped;
    return false;
  }
  const Boundary& info = kBoundaries[boundary];
  Frame& f = st.stack[st.depth++];
  f.layer = info.layer;
  f.cls = info.period == 1 ? 0 : 1;
  f.exact = false;
  if (f.cls == 0) {
    PromoteHotAncestors(st);
  }
  if (n % info.period == 0) {
    f.weight = info.period;
    f.blocked0 = st.blocked_ticks;
    f.overhead0 = st.overhead_ticks;
    f.t0 = Now();  // last: bookkeeping stays outside the timed interval
  } else {
    f.weight = 0;
  }
  return true;
}

void SpanExit() {
  ThreadState& st = tls;
  const Frame& f = st.stack[--st.depth];
  if (f.weight == 0) {
    CommitGap(st);
    st.overhead_ticks += g_cost_untimed[f.cls];
    return;
  }
  const uint64_t t = Now();  // first: bookkeeping stays outside the interval
  CommitGap(st);
  Touch(st, f.t0);
  st.last_ts = t;
  // Parked time inside the span belongs to whichever thread held the baton;
  // the cost of the spans opened inside it (and of its own clock reads)
  // belongs to no layer.
  const double raw = static_cast<double>(t - f.t0 - (st.blocked_ticks - f.blocked0)) -
                     (st.overhead_ticks - f.overhead0);
  st.raw_ticks[f.cls] += raw;
  ++st.raw_count[f.cls];
  st.overhead_ticks += g_cost_timed[f.cls];
  const double d = (raw - g_cost_self[f.cls]) * f.weight;
  st.self_ticks[f.layer] += d;
  const uint8_t root = st.is_main ? kBench : kServers;
  const uint8_t parent = st.depth > 0 ? st.stack[st.depth - 1].layer : root;
  st.self_ticks[parent] -= d;
}

uint64_t WaitBegin() {
  if (!g_window.load(std::memory_order_relaxed)) {
    return 0;
  }
  ThreadState& st = tls;
  st.pending_gap = 0;  // parking again: this wakeup did not take the baton
  ++st.calls[kSmpWait];
  const uint64_t t0 = Now();
  Touch(st, t0);
  return t0;
}

void WaitEnd(uint64_t t0) {
  if (t0 == 0) {
    return;
  }
  ThreadState& st = tls;
  const uint64_t t1 = Now();
  Touch(st, t1);
  st.blocked_ticks += t1 - t0;
  // The handoff gap runs from the end of notify_all to this wakeup. It is
  // committed only if this thread goes on to run (CommitGap): notify_all also
  // wakes threads that just park again, and their gaps overlap the real one.
  const uint64_t notified = g_last_notify.load(std::memory_order_relaxed);
  st.pending_gap = notified > t0 && t1 > notified ? t1 - notified : 0;
}

void NotifyDone() {
  if (g_window.load(std::memory_order_relaxed)) {
    CommitGap(tls);
    g_last_notify.store(Now(), std::memory_order_relaxed);
  }
}

namespace {

// Median of five batch means, robust to an interrupt landing in one batch.
double MedianOfBatches(double (&batch)[5]) {
  std::sort(batch, batch + 5);
  return batch[2];
}

// Measures, per class and outcome, what an empty span costs the span around
// it, and how much of an empty timed span's own reading is instrumentation.
// Hot spans are calibrated on four boundaries called in a pseudo-random
// order: in a real run the 1-in-64 timed call is unpredictable to the branch
// predictor, and a tight loop over one boundary would teach it the period.
void Calibrate(ThreadState& st) {
  for (int c = 0; c < kClassCount; ++c) {
    g_cost_timed[c] = g_cost_untimed[c] = g_cost_self[c] = 0;
  }
  g_window.store(true, std::memory_order_relaxed);
  constexpr int kIters = 64 * 64;
  constexpr BoundaryId kHotIds[] = {kCalibHot0, kCalibHot1, kCalibHot2, kCalibHot3};
  uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  double every[5], timed[5], untimed[5], clock[5];
  for (int b = 0; b < 5; ++b) {
    uint64_t t0 = Now();
    for (int i = 0; i < kIters; ++i) {
      SpanEnter(kCalibEveryCall);
      SpanExit();
    }
    every[b] = static_cast<double>(Now() - t0) / kIters;

    t0 = Now();
    for (int i = 0; i < kIters; ++i) {
      (void)Now();
    }
    clock[b] = static_cast<double>(Now() - t0) / kIters;

    double sum[2] = {0, 0};
    uint64_t n[2] = {0, 0};
    for (int i = 0; i < kIters; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t before = st.raw_count[1];
      const uint64_t a = Now();
      SpanEnter(kHotIds[lcg >> 62]);
      SpanExit();
      const uint64_t z = Now();
      const int was_timed = st.raw_count[1] != before ? 1 : 0;
      sum[was_timed] += static_cast<double>(z - a);
      ++n[was_timed];
    }
    untimed[b] = sum[0] / static_cast<double>(n[0]) - clock[b];
    timed[b] = sum[1] / static_cast<double>(n[1]) - clock[b];
  }
  g_cost_timed[0] = MedianOfBatches(every);
  g_cost_timed[1] = MedianOfBatches(timed);
  g_cost_untimed[1] = MedianOfBatches(untimed);
  for (int c = 0; c < kClassCount; ++c) {
    g_cost_self[c] = st.raw_ticks[c] / static_cast<double>(st.raw_count[c]);
  }
  g_window.store(false, std::memory_order_relaxed);
}

}  // namespace

void BeginWindow() {
  ThreadState& st = tls;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_totals = TraceTotals{};
  }
  st = ThreadState{};
  st.is_main = true;
  Calibrate(st);
  st = ThreadState{};
  st.is_main = true;
  g_last_notify.store(0, std::memory_order_relaxed);
  g_window_begin_ns = MonotonicNs();
  g_window_begin = Now();
  Touch(st, g_window_begin);
  g_window.store(true, std::memory_order_relaxed);
}

TraceTotals EndWindow() {
  g_window.store(false, std::memory_order_relaxed);
  const uint64_t end = Now();
  const uint64_t end_ns = MonotonicNs();
  ThreadState& st = tls;
  CommitGap(st);
  st.self_ticks[kBench] += static_cast<double>(end - g_window_begin) -
                           static_cast<double>(st.blocked_ticks) - st.overhead_ticks;
  std::lock_guard<std::mutex> lock(g_mu);
  MergeLocked(st);
  const double ns_per_tick = end == g_window_begin
                                 ? 1.0
                                 : static_cast<double>(end_ns - g_window_begin_ns) /
                                       static_cast<double>(end - g_window_begin);
  TraceTotals totals = g_totals;
  for (double& self : totals.self_ns) {
    self *= ns_per_tick;
  }
  totals.window_ns = end_ns - g_window_begin_ns;
  totals.blocked_ns = static_cast<uint64_t>(static_cast<double>(g_totals.blocked_ns) * ns_per_tick);
  totals.overhead_ns = g_totals.overhead_ns * ns_per_tick;
  totals.cost_timed_ns = g_cost_timed[0] * ns_per_tick;
  totals.cost_hot_timed_ns = g_cost_timed[1] * ns_per_tick;
  totals.cost_hot_untimed_ns = g_cost_untimed[1] * ns_per_tick;
  return totals;
}

}  // namespace perfbench
