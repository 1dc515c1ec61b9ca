// Link-time span wrappers for the traced perfbench binary.
//
// Each PB_BOUNDARY line names one mangled entry point. CMakeLists.txt reads
// the quoted symbols from this file and links the traced binary with
// `-Wl,--wrap=<symbol>`, which sends every call made from another object file
// to `__wrap_<symbol>` (defined here) while `__real_<symbol>` reaches the
// original. Calls inside the defining object file are not redirected, so a
// span covers exactly the calls one layer makes into another.
//
// The wrappers mirror the member function's ABI as a free function taking
// `self` first. `__real_` references are weak: if a later change renames or
// re-signs a wrapped function, `--wrap` matches nothing, the wrapper is never
// called, and the boundary simply reports zero calls instead of breaking the
// link.

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "span_trace.h"
#include "src/core/devpoll.h"
#include "src/core/epoll_core.h"
#include "src/core/sys.h"
#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/http/response_reader.h"
#include "src/kernel/fd_table.h"
#include "src/kernel/sim_kernel.h"
#include "src/load/active_client.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/net/socket.h"
#include "src/servers/server_base.h"
#include "src/sim/simulator.h"
#include "src/smp/smp_scheduler.h"

#define PB_BOUNDARY(id, sym, ret, params, args)                        \
  ret pb_real_##id params __asm__("__real_" sym) __attribute__((weak)); \
  ret pb_wrap_##id params __asm__("__wrap_" sym);                      \
  ret pb_wrap_##id params {                                            \
    ::perfbench::Span span(::perfbench::id);                           \
    return pb_real_##id args;                                          \
  }

namespace scio {

// --- sim --------------------------------------------------------------------
PB_BOUNDARY(kSimStepUntil, "_ZN4scio9Simulator9StepUntilENS_7FuncRefIFbvEEEl", bool,
            (Simulator * self, FuncRef<bool()> stop, SimTime deadline),
            (self, stop, deadline))
PB_BOUNDARY(kSimAdvanceTo, "_ZN4scio9Simulator9AdvanceToEl", void,
            (Simulator * self, SimTime target), (self, target))

// --- kernel -----------------------------------------------------------------
PB_BOUNDARY(kKernelCharge, "_ZN4scio9SimKernel6ChargeESt16initializer_listINS_10ChargeItemEE",
            void, (SimKernel * self, std::initializer_list<ChargeItem> items),
            (self, items))
PB_BOUNDARY(kKernelFdGet, "_ZNK4scio7FdTable3GetEi", std::shared_ptr<File>,
            (const FdTable* self, int fd), (self, fd))
PB_BOUNDARY(kKernelBlockProcess, "_ZN4scio9SimKernel12BlockProcessERNS_7ProcessEl", bool,
            (SimKernel * self, Process& proc, SimTime deadline), (self, proc, deadline))

// --- core -------------------------------------------------------------------
PB_BOUNDARY(kCoreSysAccept, "_ZN4scio3Sys6AcceptEi", int, (Sys * self, int fd), (self, fd))
PB_BOUNDARY(kCoreSysRead, "_ZN4scio3Sys4ReadEim", ReadResult,
            (Sys * self, int fd, size_t max_bytes), (self, fd, max_bytes))
PB_BOUNDARY(kCoreSysWrite, "_ZN4scio3Sys5WriteEiNS_5ChunkE", long,
            (Sys * self, int fd, Chunk chunk), (self, fd, std::move(chunk)))
PB_BOUNDARY(kCoreSysClose, "_ZN4scio3Sys5CloseEi", int, (Sys * self, int fd), (self, fd))
PB_BOUNDARY(kCoreSysDevPollPoll, "_ZN4scio3Sys11DevPollPollEiPNS_6DvPollE", int,
            (Sys * self, int dpfd, DvPoll* args), (self, dpfd, args))
PB_BOUNDARY(kCoreSysDevPollWrite,
            "_ZN4scio3Sys12DevPollWriteEiSt4spanIKNS_6PollFdELm18446744073709551615EE", long,
            (Sys * self, int dpfd, std::span<const PollFd> updates), (self, dpfd, updates))
PB_BOUNDARY(kCoreSysEpollCtl, "_ZN4scio3Sys8EpollCtlEiNS_7EpollOpEitt", int,
            (Sys * self, int epfd, EpollOp op, int fd, PollEvents events, PollEvents flags),
            (self, epfd, op, fd, events, flags))
PB_BOUNDARY(kCoreSysEpollWait, "_ZN4scio3Sys9EpollWaitEiPNS_6PollFdEii", int,
            (Sys * self, int epfd, PollFd* out, int max, int timeout_ms),
            (self, epfd, out, max, timeout_ms))
PB_BOUNDARY(kCoreDevPollIoctl, "_ZN4scio13DevPollDevice11IoctlDpPollEPNS_6DvPollE", int,
            (DevPollDevice * self, DvPoll* args), (self, args))
PB_BOUNDARY(kCoreEpollWait, "_ZN4scio11EpollDevice4WaitEPNS_6PollFdEii", int,
            (EpollDevice * self, PollFd* out, int max, int timeout_ms),
            (self, out, max, timeout_ms))

// --- net --------------------------------------------------------------------
PB_BOUNDARY(kNetConnect, "_ZN4scio8NetStack7ConnectERKSt10shared_ptrINS_11SimListenerEE",
            std::shared_ptr<SimSocket>,
            (NetStack * self, const std::shared_ptr<SimListener>& listener),
            (self, listener))
PB_BOUNDARY(kNetSocketRead, "_ZN4scio9SimSocket4ReadEm", ReadResult,
            (SimSocket * self, size_t max_bytes), (self, max_bytes))
PB_BOUNDARY(kNetSocketWrite, "_ZN4scio9SimSocket5WriteENS_5ChunkE", size_t,
            (SimSocket * self, Chunk chunk), (self, std::move(chunk)))
PB_BOUNDARY(kNetDeliverChunk, "_ZN4scio9SimSocket12DeliverChunkENS_5ChunkE", void,
            (SimSocket * self, Chunk chunk), (self, std::move(chunk)))
PB_BOUNDARY(kNetDeliverEof, "_ZN4scio9SimSocket10DeliverEofEv", void, (SimSocket * self),
            (self))
PB_BOUNDARY(kNetListenerAccept, "_ZN4scio11SimListener6AcceptEv", std::shared_ptr<SimSocket>,
            (SimListener * self), (self))
PB_BOUNDARY(kNetListenerHandleSyn,
            "_ZN4scio11SimListener9HandleSynERKSt10shared_ptrINS_9SimSocketEE", void,
            (SimListener * self, const std::shared_ptr<SimSocket>& client), (self, client))

// --- http -------------------------------------------------------------------
PB_BOUNDARY(kHttpRequestFeed,
            "_ZN4scio13RequestParser4FeedESt17basic_string_viewIcSt11char_traitsIcEE",
            RequestParser::State, (RequestParser * self, std::string_view fragment),
            (self, fragment))
PB_BOUNDARY(kHttpResponseFeed,
            "_ZN4scio14ResponseReader4FeedESt17basic_string_viewIcSt11char_traitsIcEEm",
            ResponseReader::State,
            (ResponseReader * self, std::string_view data, size_t synthetic),
            (self, data, synthetic))
PB_BOUNDARY(kHttpBuildOk, "_ZN4scio19BuildHttpOkResponseEm", Chunk, (size_t body_bytes),
            (body_bytes))
PB_BOUNDARY(kHttpBuildRequest,
            "_ZN4scio16BuildHttpRequestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
            std::string, (const std::string& path), (path))

// --- servers ----------------------------------------------------------------
PB_BOUNDARY(kServersDispatch, "_ZN4scio14HttpServerBase13DispatchEventEit", void,
            (HttpServerBase * self, int fd, PollEvents revents), (self, fd, revents))
PB_BOUNDARY(kServersReadable, "_ZN4scio14HttpServerBase14HandleReadableEi", bool,
            (HttpServerBase * self, int fd), (self, fd))
PB_BOUNDARY(kServersWritable, "_ZN4scio14HttpServerBase14HandleWritableEi", bool,
            (HttpServerBase * self, int fd), (self, fd))
PB_BOUNDARY(kServersDrainAccepts, "_ZN4scio14HttpServerBase12DrainAcceptsEv", int,
            (HttpServerBase * self), (self))
PB_BOUNDARY(kServersMaybeSweep, "_ZN4scio14HttpServerBase10MaybeSweepEv", void,
            (HttpServerBase * self), (self))
PB_BOUNDARY(kServersCloseConn, "_ZN4scio14HttpServerBase9CloseConnEi", void,
            (HttpServerBase * self, int fd), (self, fd))

// --- load -------------------------------------------------------------------
PB_BOUNDARY(kLoadClientStart, "_ZN4scio12ActiveClient5StartEv", void, (ActiveClient * self),
            (self))

// --- smp --------------------------------------------------------------------
PB_BOUNDARY(kSmpRun, "_ZN4scio12SmpScheduler3RunEv", void, (SmpScheduler * self), (self))

}  // namespace scio

// The scheduler's baton: a parked wait is excluded from every span, and the
// notify that ends it marks the start of the handoff gap.
void pb_real_cv_wait(std::condition_variable* self, std::unique_lock<std::mutex>& lock)
    __asm__("__real__ZNSt18condition_variable4waitERSt11unique_lockISt5mutexE")
    __attribute__((weak));
void pb_wrap_cv_wait(std::condition_variable* self, std::unique_lock<std::mutex>& lock)
    __asm__("__wrap__ZNSt18condition_variable4waitERSt11unique_lockISt5mutexE");
void pb_wrap_cv_wait(std::condition_variable* self, std::unique_lock<std::mutex>& lock) {
  const uint64_t t0 = perfbench::WaitBegin();
  pb_real_cv_wait(self, lock);
  perfbench::WaitEnd(t0);
}

void pb_real_cv_notify_all(std::condition_variable* self)
    __asm__("__real__ZNSt18condition_variable10notify_allEv") __attribute__((weak));
void pb_wrap_cv_notify_all(std::condition_variable* self)
    __asm__("__wrap__ZNSt18condition_variable10notify_allEv");
void pb_wrap_cv_notify_all(std::condition_variable* self) {
  {
    perfbench::Span span(perfbench::kSmpNotify);
    pb_real_cv_notify_all(self);
  }
  perfbench::NotifyDone();
}
