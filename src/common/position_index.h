// Open-addressed index of u32 positions into a caller-owned record array.
//
// The key is not stored: each slot holds the position of the record that
// carries it, and the caller resolves a candidate through a predicate
// `is_key(pos)`. That makes the index 4 bytes per slot whatever the key
// type. Each slot also packs a 1-byte tag taken from the key's hash (slot =
// tag << 24 | position), so a probe only calls `is_key` — and so only
// touches the record array — for candidates whose tag matches: about one
// in 256 of the non-matching slots on the probe path.
//
// Linear probing over a power-of-two table at a load of at most 7/8;
// erase leaves a tombstone, and an insert that would cross the load bound
// rebuilds the table (at double the size when the live keys alone fill
// three quarters of it), re-deriving each stored position's hash
// through `hash_at(pos)`. Lookup results are pure set semantics: the probe
// layout never leaks into what callers observe.
//
// Positions must stay below kMaxPosition (2^24 - 2): the two top values of
// the position field, with tag 0xFF, are the empty and tombstone markers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace gocast::common {

class PositionIndex {
 public:
  /// Returned by find/erase when the key is absent.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Exclusive upper bound on storable positions.
  static constexpr std::uint32_t kMaxPosition = 0x00FFFFFEu;

  PositionIndex() = default;

  /// Empties the index and sizes it for `n` keys without a rebuild on the
  /// way there.
  void reset_for(std::size_t n) {
    std::size_t slots = 8;
    while (slots * 7 < (n + 1) * 8) slots <<= 1;
    slots_.assign(slots, kEmpty);
    mask_ = slots - 1;
    live_ = 0;
    dead_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(std::uint32_t);
  }

  /// Position of the key with hash `hash` (the one for which `is_key`
  /// holds), or kNone.
  template <class IsKey>
  [[nodiscard]] std::uint32_t find(std::uint64_t hash, IsKey&& is_key) const {
    const std::size_t i = slot_of(hash, is_key);
    return i == kNoSlot ? kNone : slots_[i] & kPosMask;
  }

  /// Records `pos` for a key (hash `hash`) that must be absent. `hash_at`
  /// maps any stored position to its key's hash; it is called only when the
  /// insert rebuilds the table.
  template <class HashAt>
  void insert(std::uint64_t hash, std::uint32_t pos, HashAt&& hash_at) {
    GOCAST_ASSERT(pos < kMaxPosition);
    if (slots_.empty()) reset_for(0);
    if ((live_ + dead_ + 1) * 8 > slots_.size() * 7) {
      const std::size_t cap = slots_.size();
      rebuild(live_ + 1 > cap - cap / 4 ? cap * 2 : cap, hash_at);
    }
    std::size_t i = start_of(hash);
    while (slots_[i] != kEmpty && slots_[i] != kDead) i = (i + 1) & mask_;
    if (slots_[i] == kDead) --dead_;
    slots_[i] = (tag_of(hash) << 24) | pos;
    ++live_;
  }

  /// Tombstones the key's slot; returns its position, or kNone when absent.
  template <class IsKey>
  std::uint32_t erase(std::uint64_t hash, IsKey&& is_key) {
    const std::size_t i = slot_of(hash, is_key);
    if (i == kNoSlot) return kNone;
    const std::uint32_t pos = slots_[i] & kPosMask;
    slots_[i] = kDead;
    --live_;
    ++dead_;
    return pos;
  }

  /// Repoints the (present) key's slot at `pos`.
  template <class IsKey>
  void update(std::uint64_t hash, IsKey&& is_key, std::uint32_t pos) {
    GOCAST_ASSERT(pos < kMaxPosition);
    const std::size_t i = slot_of(hash, is_key);
    GOCAST_ASSERT(i != kNoSlot);
    slots_[i] = (slots_[i] & ~kPosMask) | pos;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::uint32_t kDead = 0xFFFFFFFEu;
  static constexpr std::uint32_t kPosMask = 0x00FFFFFFu;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // Low hash bits pick the start slot, the top byte is the tag: the two
  // never overlap below 2^56 slots.
  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 56);
  }
  [[nodiscard]] std::size_t start_of(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash) & mask_;
  }

  /// Rebuilds at `slot_count` slots (a power of two holding every live key
  /// under the load bound), rehashing each position through `hash_at`. A
  /// same-size rebuild reuses the table's own buffer: sharded runs rebuild
  /// on worker threads, and a fresh buffer there would strand the old one in
  /// the constructing thread's allocator arena.
  template <class HashAt>
  void rebuild(std::size_t slot_count, HashAt& hash_at) {
    static thread_local std::vector<std::uint32_t> live;
    live.clear();
    for (std::uint32_t s : slots_) {
      if (s != kEmpty && s != kDead) live.push_back(s);
    }
    slots_.assign(slot_count, kEmpty);
    mask_ = slot_count - 1;
    dead_ = 0;
    for (std::uint32_t s : live) {
      std::size_t i = start_of(hash_at(s & kPosMask));
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  template <class IsKey>
  [[nodiscard]] std::size_t slot_of(std::uint64_t hash, IsKey& is_key) const {
    if (slots_.empty()) return kNoSlot;
    const std::uint32_t tag = tag_of(hash);
    for (std::size_t i = start_of(hash);; i = (i + 1) & mask_) {
      const std::uint32_t s = slots_[i];
      if (s == kEmpty) return kNoSlot;
      if ((s >> 24) == tag && s != kDead && is_key(s & kPosMask)) return i;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
};

}  // namespace gocast::common
