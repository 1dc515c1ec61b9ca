// Host heap footprint of idle connections — the memory no MemLedger row sees.
//
// The ledger counts what the simulated kernel holds (slab pages, payload
// bytes); the host also pays for the C++ objects behind each connection, and
// before ChunkQueue every SimSocket's empty std::deque receive queue cost
// 576 heap bytes (a 64 B map plus a 512 B node) whether or not a byte ever
// arrived. This binary replaces the global operator new/delete with a
// byte- and call-counting pair, so it lives apart from every other test: the
// counters would otherwise see (and slow) the whole suite. Both operators go
// through malloc/free, which keeps the sanitizer legs' allocator checks
// intact. The SocketCallback tests live here too, because telling its inline
// slot from its heap fallback takes the allocation count.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/net/socket_callback.h"
#include "tests/sim_world.h"

namespace {

// Live bytes requested through the global operator new and not yet deleted.
// Each block carries its size in a max_align_t-sized header, so the count is
// the requested bytes — the same on every allocator, sanitized or not.
constexpr size_t kHeader = alignof(std::max_align_t);
long long g_live_bytes = 0;
// Calls to the global operator new, freed or not.
long long g_new_calls = 0;

}  // namespace

void* operator new(size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<size_t*>(raw) = size;
  g_live_bytes += static_cast<long long>(size);
  ++g_new_calls;
  return static_cast<char*>(raw) + kHeader;
}

void operator delete(void* ptr) noexcept {
  if (ptr == nullptr) {
    return;
  }
  void* raw = static_cast<char*>(ptr) - kHeader;
  g_live_bytes -= static_cast<long long>(*static_cast<size_t*>(raw));
  std::free(raw);
}

void operator delete(void* ptr, size_t /*size*/) noexcept { operator delete(ptr); }

namespace scio {
namespace {

// Every connection holds two sockets; a layout regression fails the build.
static_assert(sizeof(SimSocket) <= 256, "SimSocket outgrew its 256-byte layout");
static_assert(sizeof(File) <= 72, "File outgrew its 72-byte layout");

constexpr int kConnections = 1000;

// Measured at 701 live heap bytes per idle established connection: the
// client and server SimSocket (256 B each) with their make_shared control
// blocks, plus fd-table pages and port-allocator churn. The count is of
// requested bytes, so it is the same with and without sanitizers. The bound
// leaves ~15% headroom. 384-byte sockets carrying four std::function
// callbacks and an inline listener vector measured 957 B/conn and fail it;
// eagerly allocated std::deque receive queues measured 2,141 B/conn.
constexpr long long kMaxHeapBytesPerIdleConn = 810;

TEST_F(SimWorldTest, IdleConnectionsStayUnderHeapBudget) {
  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> pairs;
  pairs.reserve(kConnections);

  const long long before = g_live_bytes;
  for (int i = 0; i < kConnections; ++i) {
    pairs.push_back(EstablishedPair());
    ASSERT_GE(pairs.back().second, 0);
    ASSERT_EQ(pairs.back().first->state(), SimSocket::State::kEstablished);
  }
  const long long per_conn = (g_live_bytes - before) / kConnections;

  // Two socket objects are the floor: a smaller figure means the counting
  // operators are not the ones in use and the budget check below is vacuous.
  EXPECT_GE(per_conn, static_cast<long long>(2 * sizeof(SimSocket)));
  EXPECT_LE(per_conn, kMaxHeapBytesPerIdleConn)
      << "idle connections hold " << per_conn << " heap bytes each";

  for (auto& [client, fd] : pairs) {
    client->Close();
    EXPECT_EQ(sys_.Close(fd), 0);
  }
}

// --- allocations on the notification path -------------------------------------

TEST_F(SimWorldTest, NotifyStatusWithOneEpollInterestDoesNotAllocate) {
  auto [client, fd] = EstablishedPair();
  const int epfd = sys_.OpenEpoll();
  ASSERT_GE(epfd, 0);
  ASSERT_EQ(sys_.EpollCtl(epfd, EpollOp::kAdd, fd, kPollIn), 0);
  std::shared_ptr<SimSocket> server = sys_.socket(fd);
  ASSERT_EQ(server->status_listener_count(), 1u);

  // A lone listener is called in place: no snapshot of the listener list.
  const long long before = g_new_calls;
  server->NotifyStatus(kPollIn);
  EXPECT_EQ(g_new_calls - before, 0);

  client->Close();
  EXPECT_EQ(sys_.Close(fd), 0);
  EXPECT_EQ(sys_.Close(epfd), 0);
}

TEST_F(SimWorldTest, SocketsWithoutRtSignalsNeverAllocateFanOut) {
  auto [client, fd] = EstablishedPair();
  const int epfd = sys_.OpenEpoll();
  ASSERT_GE(epfd, 0);
  ASSERT_EQ(sys_.EpollCtl(epfd, EpollOp::kAdd, fd, kPollIn), 0);
  std::shared_ptr<SimSocket> server = sys_.socket(fd);

  // Traffic both ways, readiness reported and drained.
  client->Write(Chunk{"GET / HTTP/1.0\r\n\r\n", 0});
  RunFor(Millis(10));
  PollFd ready[4];
  EXPECT_EQ(sys_.EpollWait(epfd, ready, 4, 0), 1);
  EXPECT_GT(server->Read(1024).n, 0u);
  server->Write(Chunk{"", 4096});
  RunFor(Millis(10));
  EXPECT_EQ(client->Read(8192).n, 4096u);
  EXPECT_FALSE(server->has_fan_out());
  EXPECT_FALSE(client->has_fan_out());

  // Arming F_SETSIG is what allocates the block; disarming frees it.
  Process& owner = kernel_.CreateProcess("owner");
  server->SetAsyncSignal(&owner, kSigRtMin);
  EXPECT_TRUE(server->has_fan_out());
  server->SetAsyncSignal(nullptr, 0);
  EXPECT_FALSE(server->has_fan_out());

  client->Close();
  EXPECT_EQ(sys_.Close(fd), 0);
  EXPECT_EQ(sys_.Close(epfd), 0);
}

// --- SocketCallback ----------------------------------------------------------------

TEST(SocketCallbackTest, ThisCaptureStaysInline) {
  struct Target {
    int hits = 0;
    void Hit() { ++hits; }
  } target;
  Target* self = &target;

  const long long before = g_new_calls;
  SocketCallback<void()> cb = [self] { self->Hit(); };
  SocketCallback<void()> copy = cb;
  SocketCallback<void()> moved = std::move(copy);
  cb();
  moved();
  EXPECT_EQ(g_new_calls - before, 0);
  EXPECT_EQ(target.hits, 2);
  EXPECT_FALSE(copy);  // NOLINT(bugprone-use-after-move): moved-from is empty
  static_assert(sizeof(SocketCallback<void()>) == 2 * sizeof(void*));
}

TEST(SocketCallbackTest, LargeCaptureFallsBackToHeap) {
  auto total = std::make_shared<size_t>(0);

  long long before = g_new_calls;
  SocketCallback<void(size_t)> cb = [total](size_t n) { *total += n; };
  EXPECT_EQ(g_new_calls - before, 1) << "one heap cell for a shared_ptr capture";
  EXPECT_EQ(total.use_count(), 2);

  // A copy owns its own cell; a move steals the cell without allocating.
  before = g_new_calls;
  SocketCallback<void(size_t)> copy = cb;
  EXPECT_EQ(g_new_calls - before, 1);
  EXPECT_EQ(total.use_count(), 3);
  before = g_new_calls;
  SocketCallback<void(size_t)> moved = std::move(copy);
  EXPECT_EQ(g_new_calls - before, 0);
  EXPECT_EQ(total.use_count(), 3);

  cb(3);
  moved(4);
  EXPECT_EQ(*total, 7u);

  cb = nullptr;
  EXPECT_FALSE(cb);
  EXPECT_EQ(total.use_count(), 2);
  moved = cb;  // assigning an empty callback frees the held cell
  EXPECT_FALSE(moved);
  EXPECT_EQ(total.use_count(), 1);
}

TEST(SocketCallbackTest, AssignmentReplacesAndNullClears) {
  int a = 0;
  int b = 0;
  int* pa = &a;
  int* pb = &b;
  SocketCallback<void()> cb;
  EXPECT_FALSE(cb);
  cb = [pa] { ++*pa; };
  ASSERT_TRUE(cb);
  cb();
  cb = [pb] { ++*pb; };
  cb();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  cb = nullptr;
  EXPECT_FALSE(cb);
}

// The AbusiveFleet reopen pattern: the callback detaches itself, closes its
// socket and drops the last outside reference, all while it is dispatching.
// The capture is a shared_ptr, so the member holds a heap cell that the
// self-clear frees mid-call; the dispatch site's local copy keeps running.
TEST_F(SimWorldTest, CallbackMayClearItselfAndCloseItsSocket) {
  auto [client, fd] = EstablishedPair();
  struct Slot {
    std::shared_ptr<SimSocket> socket;
    int fired = 0;
  };
  auto slot = std::make_shared<Slot>();
  slot->socket = std::move(client);
  slot->socket->on_eof = [slot] {
    ++slot->fired;
    slot->socket->on_connected = nullptr;
    slot->socket->on_eof = nullptr;
    slot->socket->Close();
    slot->socket = nullptr;
  };

  ASSERT_EQ(sys_.Close(fd), 0);  // server FIN reaches the client as EOF
  RunFor(Seconds(1));
  EXPECT_EQ(slot->fired, 1);
  EXPECT_EQ(slot->socket, nullptr);
  EXPECT_EQ(slot.use_count(), 1) << "the self-clear released the captured reference";
}

}  // namespace
}  // namespace scio
