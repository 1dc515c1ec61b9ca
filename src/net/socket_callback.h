// SocketCallback: the copyable callable behind SimSocket's on_* hooks.
//
// Two words: an ops pointer and one pointer-sized slot. A callable that fits
// the slot and is trivially copyable (the load generators' `[this]` captures)
// lives in it; anything larger is copied to one heap cell. std::function
// costs 32 bytes for the same job, and every socket carries four of these,
// server sockets included, whose callbacks stay empty.
//
// It keeps std::function's surface where sockets use it: assign a lambda or
// nullptr, test with `if (cb)`, copy. Dispatch sites invoke a local copy,
// because a callback may clear its own slot or drop the last reference to
// its socket mid-call; for inline callables that copy is two words.

#ifndef SRC_NET_SOCKET_CALLBACK_H_
#define SRC_NET_SOCKET_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace scio {

template <typename Sig>
class SocketCallback;

template <typename... Args>
class SocketCallback<void(Args...)> {
 public:
  SocketCallback() = default;
  SocketCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SocketCallback> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  SocketCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= sizeof(slot_) && alignof(Fn) <= alignof(void*) &&
                  std::is_trivially_copyable_v<Fn>) {
      ::new (static_cast<void*>(slot_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(slot_, &heap, sizeof(heap));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SocketCallback(const SocketCallback& other) : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->copy(slot_, other.slot_);
    }
  }

  // Both representations relocate bytewise: the inline callable is trivially
  // copyable and the heap one is a pointer.
  SocketCallback(SocketCallback&& other) noexcept : ops_(other.ops_) {
    std::memcpy(slot_, other.slot_, sizeof(slot_));
    other.ops_ = nullptr;
  }

  // By value: covers copy, move, lambda and nullptr assignment alike.
  SocketCallback& operator=(SocketCallback other) noexcept {
    Reset();
    ops_ = other.ops_;
    std::memcpy(slot_, other.slot_, sizeof(slot_));
    other.ops_ = nullptr;
    return *this;
  }

  ~SocketCallback() { Reset(); }

  void operator()(Args... args) { ops_->invoke(slot_, std::forward<Args>(args)...); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* slot, Args... args);
    void (*copy)(void* dst, const void* src);
    void (*destroy)(void* slot);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* slot, Args... args) {
        (*std::launder(static_cast<Fn*>(slot)))(std::forward<Args>(args)...);
      },
      [](void* dst, const void* src) {
        ::new (dst) Fn(*std::launder(static_cast<const Fn*>(src)));
      },
      [](void* /*slot*/) {},  // trivially destructible
  };

  template <typename Fn>
  static Fn* HeapCell(const void* slot) {
    Fn* cell = nullptr;
    std::memcpy(&cell, slot, sizeof(cell));
    return cell;
  }

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* slot, Args... args) { (*HeapCell<Fn>(slot))(std::forward<Args>(args)...); },
      [](void* dst, const void* src) {
        Fn* cell = new Fn(*HeapCell<Fn>(src));
        std::memcpy(dst, &cell, sizeof(cell));
      },
      [](void* slot) { delete HeapCell<Fn>(slot); },
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(slot_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char slot_[sizeof(void*)] = {};
};

}  // namespace scio

#endif  // SRC_NET_SOCKET_CALLBACK_H_
