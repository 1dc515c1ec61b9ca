// ChunkQueue: FIFO order, the data-then-synthetic byte split that
// SimSocket::Read relies on (checked against the std::deque loop it
// replaced), zero-size chunks, and the no-allocation-until-push /
// capacity-reuse contract that keeps idle connections cheap.

#include "src/net/chunk_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>

namespace scio {
namespace {

Chunk Real(std::string s) { return Chunk{std::move(s), 0}; }
Chunk Mixed(std::string s, size_t synthetic) { return Chunk{std::move(s), synthetic}; }

// The receive-queue loop SimSocket::Read ran over std::deque<Chunk> before
// ChunkQueue: the reference the split must match byte for byte.
size_t ReferenceConsume(std::deque<Chunk>& q, size_t max_bytes, std::string* data) {
  size_t n = 0;
  while (n < max_bytes && !q.empty()) {
    Chunk& front = q.front();
    size_t want = max_bytes - n;
    const size_t from_data = std::min(want, front.data.size());
    data->append(front.data, 0, from_data);
    front.data.erase(0, from_data);
    want -= from_data;
    const size_t from_synth = std::min(want, front.synthetic);
    front.synthetic -= from_synth;
    n += from_data + from_synth;
    if (front.size() == 0) {
      q.pop_front();
    }
  }
  return n;
}

TEST(ChunkQueueTest, DefaultConstructedHoldsNoStorage) {
  ChunkQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  std::string data;
  EXPECT_EQ(q.Consume(100, &data), 0u);
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(ChunkQueueTest, FifoAcrossInterleavedPushAndPop) {
  ChunkQueue q;
  int next_push = 0;
  int next_pop = 0;
  // Pushes outpace pops two to one, then the queue drains: the front is
  // always the oldest chunk still queued.
  for (int round = 0; round < 50; ++round) {
    q.push_back(Real(std::to_string(next_push++)));
    q.push_back(Real(std::to_string(next_push++)));
    ASSERT_EQ(q.front().data, std::to_string(next_pop));
    q.pop_front();
    ++next_pop;
    ASSERT_EQ(q.size(), static_cast<size_t>(next_push - next_pop));
  }
  while (!q.empty()) {
    ASSERT_EQ(q.front().data, std::to_string(next_pop++));
    q.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(ChunkQueueTest, PartialReadsSplitRealThenSynthetic) {
  ChunkQueue q;
  q.push_back(Mixed("GET /", 10));
  q.push_back(Mixed("xy", 3));

  std::string data;
  // Three real bytes of the first chunk; its synthetic tail stays queued.
  EXPECT_EQ(q.Consume(3, &data), 3u);
  EXPECT_EQ(data, "GET");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().data, " /");
  EXPECT_EQ(q.front().synthetic, 10u);

  // The rest of its real bytes plus four synthetic ones.
  data.clear();
  EXPECT_EQ(q.Consume(6, &data), 6u);
  EXPECT_EQ(data, " /");
  EXPECT_EQ(q.front().data, "");
  EXPECT_EQ(q.front().synthetic, 6u);

  // Crossing a chunk boundary pops the emptied chunk and starts the next
  // one with its real bytes.
  data.clear();
  EXPECT_EQ(q.Consume(7, &data), 7u);
  EXPECT_EQ(data, "x");
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front().data, "y");
  EXPECT_EQ(q.front().synthetic, 3u);

  data.clear();
  EXPECT_EQ(q.Consume(100, &data), 4u);
  EXPECT_EQ(data, "y");
  EXPECT_TRUE(q.empty());
}

TEST(ChunkQueueTest, ConsumeMatchesDequeLoopOnSeededTrace) {
  ChunkQueue q;
  std::deque<Chunk> ref;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  for (int step = 0; step < 20000; ++step) {
    if (next(3) != 0) {
      const std::string real(next(6), static_cast<char>('a' + step % 26));
      const Chunk chunk = Mixed(real, next(4) == 0 ? 0 : next(3000));
      q.push_back(chunk);
      ref.push_back(chunk);
    } else {
      const size_t max_bytes = next(4000);
      std::string got;
      std::string want;
      ASSERT_EQ(q.Consume(max_bytes, &got), ReferenceConsume(ref, max_bytes, &want))
          << "step " << step;
      ASSERT_EQ(got, want) << "step " << step;
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(q.front().data, ref.front().data) << "step " << step;
      ASSERT_EQ(q.front().synthetic, ref.front().synthetic) << "step " << step;
    }
  }
}

TEST(ChunkQueueTest, ZeroSizeChunksAndClear) {
  ChunkQueue q;
  q.push_back(Chunk{});
  q.push_back(Real("ab"));
  q.push_back(Chunk{});
  EXPECT_EQ(q.size(), 3u);

  std::string data;
  // A zero-byte read takes nothing, not even an empty chunk.
  EXPECT_EQ(q.Consume(0, &data), 0u);
  EXPECT_EQ(q.size(), 3u);

  // The leading empty chunk is popped on the way to real bytes; the trailing
  // one survives because the read is satisfied before reaching it.
  EXPECT_EQ(q.Consume(2, &data), 2u);
  EXPECT_EQ(data, "ab");
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front().size(), 0u);

  EXPECT_EQ(q.Consume(5, &data), 0u);
  EXPECT_TRUE(q.empty());

  q.push_back(Real("cd"));
  q.push_back(Mixed("", 9));
  const size_t capacity = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), capacity);
}

TEST(ChunkQueueTest, DrainAndRefillReusesStorage) {
  ChunkQueue q;
  for (int i = 0; i < 4; ++i) {
    q.push_back(Real("x"));
  }
  const size_t capacity = q.capacity();
  const Chunk* slot = &q.front();
  std::string data;
  for (int cycle = 0; cycle < 100; ++cycle) {
    ASSERT_EQ(q.Consume(1000, &data), 4u);
    ASSERT_TRUE(q.empty());
    for (int i = 0; i < 4; ++i) {
      q.push_back(Real("x"));
    }
    // Drained to empty, the queue restarts at the front of the same
    // storage: the steady state never reallocates.
    ASSERT_EQ(q.capacity(), capacity);
    ASSERT_EQ(&q.front(), slot);
  }
}

TEST(ChunkQueueTest, QueueThatNeverDrainsStaysBounded) {
  ChunkQueue q;
  q.push_back(Real("0"));
  for (int i = 1; i < 10000; ++i) {
    q.push_back(Real(std::to_string(i)));
    ASSERT_EQ(q.front().data, std::to_string(i - 1));
    q.pop_front();
    ASSERT_EQ(q.size(), 1u);
  }
  // The consumed prefix is compacted away instead of growing with the
  // number of chunks ever pushed.
  EXPECT_LE(q.capacity(), 4u);
}

}  // namespace
}  // namespace scio
