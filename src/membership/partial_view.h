// Bounded uniform partial membership view (lpbcast-style).
//
// The paper maintains per-node knowledge of a random subset of the system by
// piggybacking random node addresses on gossips; it cites [5, 16] for the
// details and relies only on the view being "uniformly random enough". This
// implementation keeps a bounded set refreshed by piggybacked entries, with
// uniform random eviction when full — the core mechanism of lpbcast.
//
// Storage is compact: each slot is 16 bytes ({id, landmark handle,
// heard_at}) with the 32-byte landmark vector interned in a LandmarkStore
// shared across the deployment, instead of the 48-byte MemberEntry copied
// into every view that knows a node. Entry order, eviction draws, and the
// materialized MemberEntry values are all identical to the uninterned
// representation — the compaction is invisible to protocol behavior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "membership/landmark_store.h"
#include "membership/member_entry.h"

namespace gocast::membership {

/// Join-path candidate diversity (DefenseProfile::kFull): the new-entry
/// budget per advertiser per message passed to PartialView::integrate_from.
inline constexpr std::size_t kMaxNewPerSource = 8;

class PartialView {
 public:
  /// `store` is the deployment-wide landmark interning store; when null the
  /// view creates a private one (convenient for unit tests and standalone
  /// nodes — sharing is what saves memory, not a correctness requirement).
  PartialView(NodeId self, std::size_t capacity, Rng rng,
              std::shared_ptr<LandmarkStore> store = nullptr);

  PartialView(const PartialView&) = delete;
  PartialView& operator=(const PartialView&) = delete;
  // Move-construction transfers the landmark references (the source is left
  // empty); move-assignment would leak the target's references, so it stays
  // deleted along with copying.
  PartialView(PartialView&&) = default;
  PartialView& operator=(PartialView&&) = delete;
  ~PartialView();

  /// Inserts or refreshes an entry. Entries for `self` are ignored. When the
  /// view is full, a uniformly random existing entry is evicted. The policy
  /// is mildly recency-biased: entries that keep being recirculated by
  /// gossip stay present, one-shot entries (e.g. dead nodes) wash out.
  void insert(const MemberEntry& entry);

  /// Merges a batch of piggybacked entries.
  void integrate(std::span<const MemberEntry> entries);

  /// Join-path defended merge (DESIGN.md §9): a batch attributed to a single
  /// advertiser. When `max_new` > 0, at most that many previously-unknown
  /// ids are inserted from this batch (refreshes of known entries are never
  /// limited) — candidate diversity against an eclipse flood. When
  /// corroboration tracking is on (enable_corroboration), each
  /// previously-unknown id is recorded against `from` and stays
  /// uncorroborated until a second *distinct* advertiser vouches for it.
  void integrate_from(NodeId from, std::span<const MemberEntry> entries,
                      std::size_t max_new = 0);

  /// Turns on multi-source corroboration tracking (DefenseProfile::kFull).
  /// Off by default: with tracking off, corroborated() is unconditionally
  /// true and integrate_from keeps no side table.
  void enable_corroboration() { corroborate_ = true; }

  /// True when `id` was vouched for by two distinct advertisers, was seeded
  /// via mark_corroborated, or tracking is disabled.
  [[nodiscard]] bool corroborated(NodeId id) const {
    return !corroborate_ || first_advertiser_.count(id) == 0;
  }

  /// Marks `id` trusted without waiting for a second voucher (bootstrap
  /// seeds and peers we have talked to directly).
  void mark_corroborated(NodeId id) {
    if (corroborate_) first_advertiser_.erase(id);
  }

  /// Drops a member (e.g. observed dead), releasing its landmark reference.
  void remove(NodeId id);

  [[nodiscard]] bool contains(NodeId id) const;
  [[nodiscard]] std::optional<MemberEntry> find(NodeId id) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Materialized entry at a position (order unspecified and unstable
  /// across mutation; positions match the pre-interning entries() vector).
  [[nodiscard]] MemberEntry entry_at(std::size_t pos) const;

  /// Id at a position, without materializing the landmark vector.
  [[nodiscard]] NodeId id_at(std::size_t pos) const {
    return entries_[pos].id;
  }

  /// Landmark vector at a position, resolved from the store. The reference
  /// is valid until the next store mutation.
  [[nodiscard]] const LandmarkVector& landmarks_at(std::size_t pos) const {
    return store_->get(entries_[pos].lm);
  }

  /// Uniformly random member id; kInvalidNode when empty.
  [[nodiscard]] NodeId random_member();

  /// `k` entries sampled without replacement, for piggybacking on a gossip.
  [[nodiscard]] std::vector<MemberEntry> sample(std::size_t k);

  /// Round-robin cursor over the view, used by the nearby-neighbor
  /// maintenance protocol to consider candidates one per cycle. Skips
  /// nothing; wraps around. Returns kInvalidNode when the view is empty.
  [[nodiscard]] NodeId next_round_robin();

  /// The interning store backing this view.
  [[nodiscard]] const std::shared_ptr<LandmarkStore>& landmark_store() const {
    return store_;
  }

  /// Heap footprint of this view's slot vector and index (excludes the
  /// shared store, which --mem-report counts once per deployment).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // One view slot: the full 48-byte MemberEntry minus the landmark vector,
  // which lives (interned, refcounted) in the shared store.
  struct CompactEntry {
    NodeId id = kInvalidNode;
    LandmarkStore::Handle lm = LandmarkStore::kEmptyHandle;
    SimTime heard_at = 0.0;
  };
  static_assert(sizeof(CompactEntry) == 16);

  // The id->position index is a bare open-addressed table of u32 positions
  // into entries_ (4 bytes per slot; the key lives in the entry it points
  // at). The view is capacity-bounded, so the table is sized once in the
  // constructor and never grows; erase leaves tombstones that an in-place
  // O(table) rebuild sweeps out when they crowd the probe chains. Lookup
  // results are pure set semantics — probe layout is invisible to protocol
  // behavior.
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kDeadSlot = 0xFFFFFFFEu;

  [[nodiscard]] std::size_t probe_start(NodeId id) const {
    std::uint64_t x = id;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x) & index_mask_;
  }
  /// Position of `id` in entries_, or kEmptySlot when absent.
  [[nodiscard]] std::uint32_t lookup(NodeId id) const;
  /// insert() with advertiser attribution (corroboration bookkeeping).
  void insert_tracked(const MemberEntry& entry, NodeId from);
  /// Records `id` (which must be absent) at position `pos`.
  void index_insert(NodeId id, std::uint32_t pos);
  /// Tombstones `id`'s slot; no-op when absent.
  void index_erase(NodeId id);
  /// Repoints `id`'s existing slot at a new position (swap-pop moves).
  void index_update(NodeId id, std::uint32_t pos);
  void index_rebuild();

  NodeId self_;
  std::size_t capacity_;
  Rng rng_;
  std::shared_ptr<LandmarkStore> store_;
  bool corroborate_ = false;
  /// id -> first advertiser, for entries still awaiting a second distinct
  /// voucher; absence means corroborated. Bounded by the view: an id's
  /// record is dropped when it leaves the view.
  common::FlatMap<NodeId, NodeId> first_advertiser_;
  std::vector<CompactEntry> entries_;
  std::vector<std::uint32_t> index_;
  std::size_t index_mask_ = 0;
  std::size_t index_dead_ = 0;
  std::size_t cursor_ = 0;
};

}  // namespace gocast::membership
