// Discrete-event simulation engine.
//
// Deterministic: events with equal timestamps fire in scheduling order, so a
// run is a pure function of the seed that fed its callbacks. Cancelation is
// O(1) via generation-checked slots (canceled entries are skipped lazily when
// popped, and the heap compacts itself when more than half its entries are
// dead so cancel-heavy workloads don't accumulate garbage).
//
// Hot-path notes (see DESIGN.md "Performance notes"):
//  - Callbacks are sim::InlineCallback: no heap allocation for captures up to
//    InlineCallback::kInlineCapacity bytes.
//  - Heap entries are one 128-bit integer each: the timestamp as an
//    order-preserving u64 bit pattern (IEEE-754 non-negative doubles compare
//    like unsigned integers) in the high qword, and a tag packing the FIFO
//    sequence number over the slot index in the low qword. Ordering by the
//    single integer compare is exactly (time, seq) order.
//  - The heap is a hand-rolled 4-ary min-heap with a bottom-up sift and a
//    branchless min-of-4 child scan: half the levels of a binary heap, no
//    data-dependent branches, and — thanks to 64-byte-aligned storage with
//    the root at physical index 3 — every sibling group exactly one cache
//    line, so each sift level costs a single line fill.
//  - Slot state is split structure-of-arrays style within each chunk: the
//    16-byte liveness records (tag/generation/free-link) the heap walk reads
//    are packed four per cache line in a region of their own, while the
//    48-byte callbacks — cold until the moment an event fires — live in a
//    separate region of the same chunk. Liveness checks and heap compaction
//    touch 4x fewer lines than the old one-slot-per-line layout. Chunks
//    never relocate, so growth never copies callbacks or faults in a fresh
//    multi-megabyte allocation. Free slots form an intrusive list threaded
//    through the meta records (no side array to grow).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "sim/inline_callback.h"

namespace gocast::sim {

/// Handle to a scheduled event; valid until the event fires or is canceled.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Sentinel handle that never names a live event.
inline constexpr EventId kInvalidEvent{0xFFFFFFFFu, 0xFFFFFFFFu};

class Engine {
 public:
  using Callback = InlineCallback;

  // Scheduler concept (see sim/timer.h and runtime/context.h): any type with
  // TimerId/invalid_timer()/now()/schedule_after()/cancel() can drive a
  // BasicPeriodicTimer. The engine is the canonical implementation.
  using TimerId = EventId;
  [[nodiscard]] static constexpr EventId invalid_timer() {
    return kInvalidEvent;
  }

  Engine() { heap_.assign(kRootPos, HeapEntry{0}); }
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` seconds (must be >= 0).
  EventId schedule_after(SimTime delay, Callback cb) {
    GOCAST_ASSERT_MSG(delay >= 0.0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at absolute time `t` with an explicit ordering key
  /// instead of the engine-local admission sequence. Events pop in
  /// (time, order_key) order regardless of admission order, so callers that
  /// derive keys from run-invariant state (e.g. a per-origin counter in a
  /// sharded run — see sim/sharded_engine.h) get a pop order that does not
  /// depend on how admissions interleave. Mixing ordered and plain
  /// admissions in one engine interleaves their key spaces; a deployment
  /// should pick one discipline. Ordered events are fire-and-forget in
  /// spirit but still return a cancelable handle.
  EventId schedule_at_ordered(SimTime t, std::uint64_t order_key, Callback cb);

  /// Cancels a pending event. Returns false if it already fired or was
  /// canceled (safe to call either way).
  bool cancel(EventId id);

  /// Runs the earliest pending event. Returns false when the queue is empty.
  bool step();

  /// Runs all events with timestamp <= t, then advances now() to t.
  /// Returns the number of events processed.
  std::size_t run_until(SimTime t);

  /// Runs all events with timestamp strictly < t, then advances now() to t.
  /// The conservative-PDES window primitive (sim/sharded_engine.h): events at
  /// exactly the window edge are left for the next window so barrier-time
  /// admissions order ahead of them. Returns the number of events processed.
  std::size_t run_before(SimTime t);

  /// Runs until the queue drains. Returns the number of events processed.
  std::size_t run();

  /// Timestamp of the earliest pending event, or kNever when empty.
  [[nodiscard]] SimTime next_event_time() const;

  [[nodiscard]] std::size_t pending() const { return live_events_; }
  [[nodiscard]] std::size_t processed() const { return processed_; }

  /// Heap-owned bytes: the priority-queue array plus every slot chunk.
  /// (Memory accounting for --mem-report; approximate by design.)
  [[nodiscard]] std::size_t memory_bytes() const {
    return heap_.capacity() * sizeof(HeapEntry) +
           chunks_.size() * kChunkBytes + chunks_.capacity() * sizeof(ChunkPtr);
  }

 private:
  static constexpr std::uint64_t kDeadTag = ~std::uint64_t{0};
  static constexpr unsigned kSlotBits = 24;  // up to 16.7M concurrent events
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;
  /// Slots per chunk: 32768 * (16 B meta + 48 B callback) = 2 MiB, allocated
  /// 2 MiB-aligned and (on Linux) advised MADV_HUGEPAGE. A large run walks
  /// its slot table in a cache-unfriendly stride, so with 4 KiB pages the
  /// table thrashes the dTLB; one huge page per chunk makes slot lookups
  /// TLB-free. Chunks hold raw storage — slots are placement-constructed on
  /// first acquire — so a small engine touches only the pages it uses.
  static constexpr std::uint32_t kChunkShift = 15;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  /// Liveness bookkeeping for one slot — everything the heap walk ever
  /// reads. 16 bytes packs four records per cache line; the cold Callback
  /// lives in the chunk's separate callback region (see the layout note on
  /// kChunkBytes) so liveness probes don't drag capture bytes through cache.
  struct SlotMeta {
    std::uint64_t live_tag = kDeadTag;  // tag of the pending event, else dead
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFreeSlot;  // intrusive free-list link
  };
  static_assert(sizeof(SlotMeta) == 16);
  static_assert(sizeof(Callback) == 48);

  /// Chunk layout: [SlotMeta x kChunkSlots | Callback x kChunkSlots]. The
  /// meta region is 512 KiB (so its tail stays 64-byte aligned for the
  /// callback region) and the whole chunk is exactly one 2 MiB huge page.
  static constexpr std::size_t kMetaRegionBytes =
      std::size_t{kChunkSlots} * sizeof(SlotMeta);
  static constexpr std::size_t kChunkBytes =
      kMetaRegionBytes + std::size_t{kChunkSlots} * sizeof(Callback);

  /// Frees a chunk's raw storage. Slot destruction is the engine's job (only
  /// slots below slot_count_ were ever constructed; see ~Engine).
  struct ChunkFree {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(static_cast<void*>(p), std::align_val_t{kChunkBytes});
    }
  };
  using ChunkPtr = std::unique_ptr<std::byte[], ChunkFree>;

  /// One heap entry packed into a single 128-bit integer: timestamp bits in
  /// the high qword, tag (seq << kSlotBits | slot) in the low qword. Packing
  /// makes the (time, seq) comparison one integer compare — cmp/sbb, no
  /// branches — which keeps the min-child scans in the 4-ary heap branchless.
  using HeapEntry = unsigned __int128;

  /// Allocator keeping the heap array on cache-line boundaries so the
  /// root-offset trick below can align sibling groups.
  template <class T>
  struct CacheAligned {
    using value_type = T;
    CacheAligned() = default;
    template <class U>
    CacheAligned(const CacheAligned<U>&) {}  // NOLINT(google-explicit-constructor)
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t n) {
      ::operator delete(p, n * sizeof(T), std::align_val_t{64});
    }
    friend bool operator==(CacheAligned, CacheAligned) { return true; }
  };

  /// The root lives at physical index kRootPos and children of physical p
  /// are 4p-8 .. 4p-5; with 16-byte entries and 64-byte-aligned storage,
  /// every sibling group then starts on a multiple of four entries — one
  /// cache line. Indices 0..2 are never-read padding.
  static constexpr std::size_t kRootPos = 3;

  static HeapEntry make_entry(std::uint64_t key, std::uint64_t tag) {
    return (static_cast<HeapEntry>(key) << 64) | tag;
  }
  static std::uint64_t entry_key(HeapEntry e) {
    return static_cast<std::uint64_t>(e >> 64);
  }
  static std::uint64_t entry_tag(HeapEntry e) {
    return static_cast<std::uint64_t>(e);
  }

  /// Non-negative finite doubles compare identically to their bit patterns
  /// taken as unsigned integers; -0.0 is normalized so it doesn't read as a
  /// huge key. Times are always >= now() >= 0 here.
  static std::uint64_t time_key(SimTime t) {
    return std::bit_cast<std::uint64_t>(t == 0.0 ? 0.0 : t);
  }
  static SimTime key_time(std::uint64_t key) {
    return std::bit_cast<SimTime>(key);
  }

  static std::uint32_t tag_slot(std::uint64_t tag) {
    return static_cast<std::uint32_t>(tag & ((std::uint64_t{1} << kSlotBits) - 1));
  }

  [[nodiscard]] SlotMeta& meta_ref(std::uint32_t s) {
    return reinterpret_cast<SlotMeta*>(
        chunks_[s >> kChunkShift].get())[s & (kChunkSlots - 1)];
  }
  [[nodiscard]] const SlotMeta& meta_ref(std::uint32_t s) const {
    return reinterpret_cast<const SlotMeta*>(
        chunks_[s >> kChunkShift].get())[s & (kChunkSlots - 1)];
  }
  [[nodiscard]] Callback& callback_ref(std::uint32_t s) {
    return reinterpret_cast<Callback*>(chunks_[s >> kChunkShift].get() +
                                       kMetaRegionBytes)[s & (kChunkSlots - 1)];
  }

  [[nodiscard]] bool entry_live(HeapEntry e) const {
    return meta_ref(tag_slot(entry_tag(e))).live_tag == entry_tag(e);
  }

  /// Pops a slot off the free list, adding a chunk when none is free.
  std::uint32_t acquire_slot();

  [[nodiscard]] bool heap_empty() const { return heap_.size() == kRootPos; }
  [[nodiscard]] HeapEntry heap_top() const { return heap_[kRootPos]; }

  // 4-ary min-heap primitives over physical indices (see kRootPos).
  // sift_down restores the heap below `pos` assuming only h[pos] may violate
  // the invariant; `top` bounds the bubble-up phase so a sift rooted at an
  // interior node (Floyd heapify in compact_heap) never hoists the element
  // above its own subtree.
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos, std::size_t top);
  void heap_push(HeapEntry e);
  void heap_pop();

  /// Pops dead entries off the heap top until a live one (or nothing) is
  /// left. Returns false when no live event remains.
  bool prune_dead_top();

  /// Pops the (live) top entry, advances now(), and runs its callback.
  void fire_top();

  /// Rebuilds the heap without its dead entries. Called when dead entries
  /// outnumber live ones (heap hygiene for cancel-heavy workloads).
  void compact_heap();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t dead_in_heap_ = 0;
  std::size_t processed_ = 0;
  std::vector<HeapEntry, CacheAligned<HeapEntry>> heap_;
  std::vector<ChunkPtr> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace gocast::sim
