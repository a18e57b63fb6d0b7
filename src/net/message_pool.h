// Slab pool for simulated messages.
//
// Every Network::send used to cost one make_shared allocation per message
// (control block + message object). At 8k+ nodes the simulator creates and
// destroys millions of short-lived DataMsg / GossipDigestMsg / heartbeat
// objects per run; this arena recycles their (size-classed) blocks through
// free lists so steady-state message traffic performs no global-allocator
// calls for the message objects themselves.
//
// Ownership: allocators embedded in shared_ptr control blocks hold a
// shared_ptr to the arena, so in-flight messages keep the arena alive even
// if the owning Network is destroyed first (e.g. events still queued in an
// engine that outlives the network).
//
// Single-threaded by design, like the rest of the simulator — except when
// set_shared(true) arms a mutex around allocate/deallocate: multi-shard PDES
// runs (DESIGN.md §11) allocate every message on its sender's shard but may
// drop the last reference on the receiver's shard, so cross-thread
// deallocation must be safe. The flag is set once before any worker starts;
// one-shard runs leave it off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace gocast::net {

class MessageArena {
 public:
  /// Size classes are multiples of kGranularity up to kMaxPooled bytes;
  /// larger (or oddly aligned) requests fall through to operator new.
  static constexpr std::size_t kGranularity = 32;
  static constexpr std::size_t kMaxPooled = 512;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  MessageArena() = default;
  MessageArena(const MessageArena&) = delete;
  MessageArena& operator=(const MessageArena&) = delete;

  void* allocate(std::size_t bytes, std::size_t alignment) {
    if (shared_) {
      std::lock_guard<std::mutex> lock(mu_);
      return allocate_impl(bytes, alignment);
    }
    return allocate_impl(bytes, alignment);
  }

  void deallocate(void* p, std::size_t bytes, std::size_t alignment) {
    if (shared_) {
      std::lock_guard<std::mutex> lock(mu_);
      deallocate_impl(p, bytes, alignment);
      return;
    }
    deallocate_impl(p, bytes, alignment);
  }

  /// Arms the mutex for cross-thread use (sharded runs; see file comment).
  /// Must be called before any concurrent access; never disarmed.
  void set_shared(bool shared) { shared_ = shared; }

  /// Blocks served from a free list (steady-state hits).
  [[nodiscard]] std::uint64_t reused() const { return reused_; }
  /// Blocks carved fresh from a slab chunk.
  [[nodiscard]] std::uint64_t fresh() const { return fresh_; }
  /// Requests too large/aligned for the pool (global allocator fallback).
  [[nodiscard]] std::uint64_t oversized() const { return oversized_; }
  [[nodiscard]] std::size_t chunks() const { return chunks_.size(); }

  /// Heap bytes held by the arena: slab chunks plus free-list arrays.
  /// (Oversized blocks belong to the global allocator, not counted.)
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = chunks_.size() * kChunkBytes;
    for (const auto& list : free_) bytes += list.capacity() * sizeof(void*);
    return bytes;
  }

 private:
  [[nodiscard]] static std::size_t size_class(std::size_t bytes) {
    return (bytes - 1) / kGranularity;
  }

  void* allocate_impl(std::size_t bytes, std::size_t alignment) {
    if (bytes == 0) bytes = 1;
    if (bytes > kMaxPooled || alignment > alignof(std::max_align_t)) {
      ++oversized_;
      return ::operator new(bytes, std::align_val_t(alignment));
    }
    std::size_t cls = size_class(bytes);
    auto& list = free_[cls];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      ++reused_;
      return p;
    }
    std::size_t chunk_size = (cls + 1) * kGranularity;
    if (bump_left_ < chunk_size) refill();
    void* p = bump_;
    bump_ += chunk_size;
    bump_left_ -= chunk_size;
    ++fresh_;
    return p;
  }

  void deallocate_impl(void* p, std::size_t bytes, std::size_t alignment) {
    if (bytes == 0) bytes = 1;
    if (bytes > kMaxPooled || alignment > alignof(std::max_align_t)) {
      ::operator delete(p, std::align_val_t(alignment));
      return;
    }
    free_[size_class(bytes)].push_back(p);
  }

  void refill() {
    // max_align_t-aligned chunk; all size classes are kGranularity multiples,
    // so every carved block stays max_align_t-aligned.
    chunks_.emplace_back(
        static_cast<unsigned char*>(::operator new(kChunkBytes)));
    bump_ = chunks_.back().get();
    bump_left_ = kChunkBytes;
  }

  struct OpDelete {
    void operator()(unsigned char* p) const { ::operator delete(p); }
  };

  std::vector<std::unique_ptr<unsigned char, OpDelete>> chunks_;
  unsigned char* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::vector<void*> free_[kMaxPooled / kGranularity];
  std::uint64_t reused_ = 0;
  std::uint64_t fresh_ = 0;
  std::uint64_t oversized_ = 0;
  std::mutex mu_;
  bool shared_ = false;
};

/// std-compatible allocator over a shared MessageArena; used with
/// std::allocate_shared so message object + control block land in one pooled
/// block. Owning (shared_ptr) on purpose: in-flight messages keep the arena
/// alive through their control blocks.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(std::shared_ptr<MessageArena> arena)
      : arena_(std::move(arena)) {}

  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    arena_->deallocate(p, n * sizeof(T), alignof(T));
  }

  [[nodiscard]] const std::shared_ptr<MessageArena>& arena() const {
    return arena_;
  }

  template <class U>
  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator<U>& b) {
    return a.arena_ == b.arena();
  }

 private:
  std::shared_ptr<MessageArena> arena_;
};

/// Non-owning allocator over a MessageArena, for containers embedded INSIDE
/// pooled messages (digest/member payload vectors). Such containers are
/// destroyed with their message, and the message's control block (an owning
/// ArenaAllocator) keeps the arena alive until then — so a raw pointer is
/// safe and avoids a shared_ptr refcount per vector. Null falls back to the
/// global allocator (tests, direct construction).
///
/// Lifetime guard: select_on_container_copy_construction() returns a NULL
/// allocator, so a PoolVec copied out of a message (`auto ids = msg.ids;`)
/// uses the global allocator and may safely outlive the arena. Only copies
/// detach this way — do NOT move a PoolVec out of a message (the moved-to
/// vector would steal arena-backed storage plus this raw pointer); messages
/// are handled as shared_ptr<const Message>, which makes that impossible
/// through the normal MessagePtr path.
template <class T>
class PayloadAllocator {
 public:
  using value_type = T;

  PayloadAllocator() = default;
  explicit PayloadAllocator(const std::shared_ptr<MessageArena>& arena)
      : arena_(arena.get()) {}

  /// Container copies detach from the arena (see class comment).
  [[nodiscard]] PayloadAllocator select_on_container_copy_construction()
      const {
    return PayloadAllocator();
  }

  template <class U>
  PayloadAllocator(const PayloadAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (!arena_) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    }
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    if (!arena_) {
      ::operator delete(p, std::align_val_t(alignof(T)));
      return;
    }
    arena_->deallocate(p, n * sizeof(T), alignof(T));
  }

  [[nodiscard]] MessageArena* arena() const { return arena_; }

  template <class U>
  friend bool operator==(const PayloadAllocator& a, const PayloadAllocator<U>& b) {
    return a.arena_ == b.arena();
  }

 private:
  MessageArena* arena_ = nullptr;
};

/// Vector whose storage comes from the message pool (or the global allocator
/// for arena-less instances). Used for variable-length message payloads.
template <class T>
using PoolVec = std::vector<T, PayloadAllocator<T>>;

/// Constructs a message of type `M` from `pool` (object + control block in
/// one pooled allocation). Message types with an arena-first constructor get
/// the pool passed through, so their variable-length payloads (PoolVec
/// members) are pooled too. Shared by every backend that owns a MessageArena
/// (net::Network, runtime::UdpRuntime).
template <class M, class... Args>
[[nodiscard]] std::shared_ptr<const M> make_pooled(
    const std::shared_ptr<MessageArena>& pool, Args&&... args) {
  if constexpr (std::is_constructible_v<M, const std::shared_ptr<MessageArena>&,
                                        Args&&...>) {
    return std::allocate_shared<M>(ArenaAllocator<M>(pool), pool,
                                   std::forward<Args>(args)...);
  } else {
    return std::allocate_shared<M>(ArenaAllocator<M>(pool),
                                   std::forward<Args>(args)...);
  }
}

}  // namespace gocast::net
