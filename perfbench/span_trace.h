// Host-time spans for the traced perfbench binary.
//
// The traced binary is linked with `-Wl,--wrap=<symbol>` on the entry points
// each layer exposes to the others (see wrap_boundaries.cc); every wrapped
// call opens a span on a per-thread stack, so a layer's self time is its
// spans' durations minus the spans they caused. The harness also opens spans
// around its own calls into each layer (server Run, generator Start, world
// teardown).
//
// Cost control: every call is counted, but boundaries crossed tens of
// millions of times per run (SimKernel::Charge, FdTable::Get,
// Simulator::AdvanceTo) read the clock on a fixed 1-in-N sample and weight
// the sampled duration by N. The spans' own cost (clock reads, stack
// bookkeeping) is calibrated when the window opens and taken out of every
// enclosing span, so it lands in no layer. Time a thread spends parked in the
// SMP scheduler's condition variable is excluded from every enclosing span:
// at most one thread holds the scheduler's baton, so only the holder's time
// is attributed, plus the handoff gap (notify -> the wakeup that takes the
// baton), which goes to smp.
//
// In the untraced binary (PERFBENCH_TRACE == 0) every hook compiles to
// nothing.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>

#ifndef PERFBENCH_TRACE
#define PERFBENCH_TRACE 0
#endif

namespace perfbench {

// Layers, named after the src/ modules they measure. kBench is the harness
// itself (and whatever runs outside every span); it is reported only as the
// unattributed remainder.
enum Layer : uint8_t {
  kBench,
  kSim,
  kKernel,
  kCore,
  kNet,
  kHttp,
  kServers,
  kLoad,
  kSmp,
  kLayerCount,
};

const char* LayerName(int layer);

// One row per instrumented boundary: wrapped symbols plus the harness's own
// spans. `period` is the sampling period (1 = every call timed).
struct Boundary {
  const char* name;
  Layer layer;
  uint32_t period;
};

// Boundary ids. The table in span_trace.cc lists them in the same order.
enum BoundaryId : int {
  // Harness spans.
  kBenchServerRun,
  kBenchLoadStart,
  kBenchFleet,
  kBenchTeardownLoad,
  kBenchTeardownServers,
  kBenchTeardownNet,
  kBenchTeardownKernel,
  kBenchTeardownSim,
  // sim
  kSimStepUntil,
  kSimAdvanceTo,
  // kernel
  kKernelCharge,
  kKernelFdGet,
  kKernelBlockProcess,
  // core
  kCoreSysAccept,
  kCoreSysRead,
  kCoreSysWrite,
  kCoreSysClose,
  kCoreSysDevPollPoll,
  kCoreSysDevPollWrite,
  kCoreSysEpollCtl,
  kCoreSysEpollWait,
  kCoreDevPollIoctl,
  kCoreEpollWait,
  // net
  kNetConnect,
  kNetSocketRead,
  kNetSocketWrite,
  kNetDeliverChunk,
  kNetDeliverEof,
  kNetListenerAccept,
  kNetListenerHandleSyn,
  // http
  kHttpRequestFeed,
  kHttpResponseFeed,
  kHttpBuildOk,
  kHttpBuildRequest,
  // servers
  kServersDispatch,
  kServersReadable,
  kServersWritable,
  kServersDrainAccepts,
  kServersMaybeSweep,
  kServersCloseConn,
  // load
  kLoadClientStart,
  // smp
  kSmpRun,
  kSmpNotify,
  kSmpWait,
  // Calibration spans, run before the window opens.
  kCalibEveryCall,
  kCalibHot0,
  kCalibHot1,
  kCalibHot2,
  kCalibHot3,
  kBoundaryCount,
};

const Boundary& BoundaryInfo(int id);

// Totals over every thread that ran inside the traced window.
struct TraceTotals {
  uint64_t calls[kBoundaryCount] = {};
  double self_ns[kLayerCount] = {};
  uint64_t window_ns = 0;     // traced wall interval
  uint64_t blocked_ns = 0;    // parked in the baton condition variable
  uint64_t dropped = 0;       // spans skipped because a stack overflowed
  double overhead_ns = 0;     // calibrated span cost, attributed to no layer
  // Calibrated cost of one span to its parent: every-call spans, and timed
  // and untimed hot spans.
  double cost_timed_ns = 0;
  double cost_hot_timed_ns = 0;
  double cost_hot_untimed_ns = 0;
};

#if PERFBENCH_TRACE

// Per-thread span stack operations (used by the RAII Span below and by the
// wrapped condition-variable calls).
bool SpanEnter(int boundary);
void SpanExit();
// The baton hooks: a parked wait and the notify that ends one.
uint64_t WaitBegin();
void WaitEnd(uint64_t t0);
void NotifyDone();

class Span {
 public:
  explicit Span(int boundary) : active_(SpanEnter(boundary)) {}
  ~Span() {
    if (active_) {
      SpanExit();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// Open/close the measured window on the calling (main) thread. Spans are
// counted and timed only inside it.
void BeginWindow();
TraceTotals EndWindow();

#define PB_SPAN(id) ::perfbench::Span pb_span_##id(::perfbench::id)

#else

#define PB_SPAN(id) ((void)0)

#endif  // PERFBENCH_TRACE

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
