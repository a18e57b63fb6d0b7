// Deployment-wide interning (hash-consing) of landmark-RTT vectors.
//
// Every PartialView entry used to carry its own 32-byte LandmarkVector copy,
// so a node known to v views cost 32·v bytes of identical floats — the
// dominant membership cost at large scale (256-entry views × 8k+ nodes).
// The store keeps one refcounted copy per distinct value and hands out
// 4-byte handles; views store the handle and resolve it on demand.
//
// Interning is by VALUE, not by node id: two vectors that happen to be
// bit-identical share a slot, and a node whose vector evolves (landmark
// measurements completing one by one) simply retires old values as the last
// referencing view entry drops them. Exact bit-patterns round-trip, so a
// materialized MemberEntry is byte-identical to what was inserted —
// interning is invisible to protocol behavior and to the wire.
//
// Hashing and equality are bitwise over the float words (NaN marks
// unmeasured slots, and NaN != NaN under float compare), so partially
// measured vectors intern correctly.
//
// The store is single-threaded, like everything else on one engine shard:
// System keeps one store per shard, and parallel sweeps give each System its
// own stores.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "membership/member_entry.h"

namespace gocast::membership {

class LandmarkStore {
 public:
  using Handle = std::uint32_t;

  /// Handle of the all-unmeasured vector (empty_landmarks()). Permanently
  /// interned at construction; retain/release on it are no-ops, so callers
  /// may use it as a cheap default without refcount bookkeeping.
  static constexpr Handle kEmptyHandle = 0;

  LandmarkStore();

  /// Returns the handle for `value`, allocating a slot on first sight, and
  /// takes one reference on it.
  [[nodiscard]] Handle intern(const LandmarkVector& value);

  /// Adds one reference to an existing handle.
  void retain(Handle h);

  /// Drops one reference; the slot is recycled (and the value forgotten)
  /// when the last reference goes away. No-op for kEmptyHandle.
  void release(Handle h);

  /// The interned value. The reference is valid until the next intern()
  /// (slot storage may grow); copy it out before interning again.
  [[nodiscard]] const LandmarkVector& get(Handle h) const {
    GOCAST_ASSERT(h < slots_.size() && slots_[h].refs > 0);
    return slots_[h].value;
  }

  /// Live reference count of a handle (test visibility).
  [[nodiscard]] std::uint32_t refcount(Handle h) const {
    GOCAST_ASSERT(h < slots_.size());
    return slots_[h].refs;
  }

  /// Number of distinct values currently interned (including the empty one).
  [[nodiscard]] std::size_t unique_count() const { return live_; }

  /// Total heap footprint of slots + index, for --mem-report.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // Bitwise view of a vector: exact float bits, so NaN patterns hash and
  // compare like any other value.
  using Key = std::array<std::uint32_t, kLandmarkSlots>;

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (std::uint32_t w : k) {
        h ^= w;
        h *= 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };

  struct Slot {
    LandmarkVector value{};
    std::uint32_t refs = 0;       // 0 == free
    std::uint32_t next_free = 0;  // free-list link, valid when refs == 0
  };

  static Key key_of(const LandmarkVector& v) { return std::bit_cast<Key>(v); }

  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  std::vector<Slot> slots_;
  common::FlatMap<Key, std::uint32_t, KeyHash> index_;  // value bits -> slot
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
};

}  // namespace gocast::membership
