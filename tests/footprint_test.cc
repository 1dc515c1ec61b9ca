// Host heap footprint of idle connections — the memory no MemLedger row sees.
//
// The ledger counts what the simulated kernel holds (slab pages, payload
// bytes); the host also pays for the C++ objects behind each connection, and
// before ChunkQueue every SimSocket's empty std::deque receive queue cost
// 576 heap bytes (a 64 B map plus a 512 B node) whether or not a byte ever
// arrived. This binary replaces the global operator new/delete with a
// byte-counting pair, so it lives apart from every other test: the counters
// would otherwise see (and slow) the whole suite. Both operators go through
// malloc/free, which keeps the sanitizer legs' allocator checks intact.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "tests/sim_world.h"

namespace {

// Live bytes requested through the global operator new and not yet deleted.
// Each block carries its size in a max_align_t-sized header, so the count is
// the requested bytes — the same on every allocator, sanitized or not.
constexpr size_t kHeader = alignof(std::max_align_t);
long long g_live_bytes = 0;

}  // namespace

void* operator new(size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<size_t*>(raw) = size;
  g_live_bytes += static_cast<long long>(size);
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

constexpr int kConnections = 1000;

// Measured at 957 live heap bytes per idle established connection: the
// client and server SimSocket (384 B each) with their make_shared control
// blocks, plus fd-table pages and port-allocator churn. The count is of
// requested bytes, so it is the same with and without sanitizers. The bound
// leaves ~15% headroom. Eagerly allocated std::deque receive queues measured
// 2,141 B/conn and fail it.
constexpr long long kMaxHeapBytesPerIdleConn = 1100;

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

}  // namespace
}  // namespace scio
