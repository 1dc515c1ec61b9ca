// Chunk and ChunkQueue: the unit of simulated payload and the per-connection
// FIFO that holds it (a socket's receive queue, a transport sender's backlog).
//
// A million mostly idle connections is the paper's whole point, so an empty
// queue must cost nothing but its own bytes. std::deque does not qualify:
// libstdc++ allocates a deque's map and first 512-byte node at construction,
// which put ~1.1 KB of heap behind every silent connection (two sockets)
// that no MemLedger row could see. ChunkQueue is a vector plus a head index:
// it allocates on the first push, resets to the start of its storage when it
// drains to empty (keeping the capacity, so a steady push/drain cycle never
// allocates), and compacts the consumed prefix once it outweighs the live
// tail, so a queue that never quite drains stays bounded.

#ifndef SRC_NET_CHUNK_QUEUE_H_
#define SRC_NET_CHUNK_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace scio {

// A unit of transmitted data. `data` carries real bytes (HTTP requests and
// response headers are real so parsers can run); `synthetic` counts payload
// bytes whose content doesn't matter (response bodies), so we don't shuttle
// megabytes of zeroes through the simulator.
struct Chunk {
  std::string data;
  size_t synthetic = 0;
  size_t size() const { return data.size() + synthetic; }
};

class ChunkQueue {
 public:
  bool empty() const { return head_ == chunks_.size(); }
  size_t size() const { return chunks_.size() - head_; }
  // Slots the backing storage holds; 0 until the first push.
  size_t capacity() const { return chunks_.capacity(); }

  Chunk& front() { return chunks_[head_]; }

  void push_back(Chunk chunk) { chunks_.push_back(std::move(chunk)); }

  void pop_front() {
    ++head_;
    if (head_ == chunks_.size()) {
      clear();
    } else if (head_ * 2 >= chunks_.size()) {
      // Each compaction moves at most head_ live chunks and follows head_
      // pops, so a pop stays amortized O(1).
      chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  // Drops every chunk; the storage keeps its capacity for the next push.
  void clear() {
    chunks_.clear();
    head_ = 0;
  }

  // Consumes up to `max_bytes` from the front: each chunk gives its real
  // bytes first, then its synthetic ones, and is popped only once empty.
  // Appends the consumed real bytes to `*data`; returns bytes consumed.
  size_t Consume(size_t max_bytes, std::string* data) {
    size_t n = 0;
    while (n < max_bytes && !empty()) {
      Chunk& chunk = front();
      size_t want = max_bytes - n;
      const size_t from_data = std::min(want, chunk.data.size());
      data->append(chunk.data, 0, from_data);
      chunk.data.erase(0, from_data);
      want -= from_data;
      const size_t from_synth = std::min(want, chunk.synthetic);
      chunk.synthetic -= from_synth;
      n += from_data + from_synth;
      if (chunk.size() == 0) {
        pop_front();
      }
    }
    return n;
  }

 private:
  std::vector<Chunk> chunks_;
  size_t head_ = 0;  // index of the front chunk; chunks_[0, head_) are consumed
};

}  // namespace scio

#endif  // SRC_NET_CHUNK_QUEUE_H_
