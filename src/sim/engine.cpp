#include "sim/engine.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

#include <algorithm>
#include <new>
#include <utility>

namespace gocast::sim {

// Physical index map (root offset kRootPos = 3): children of p are
// 4p-8 .. 4p-5, parent of c is (c + 8) / 4. See engine.h for why.

void Engine::sift_up(std::size_t pos) {
  HeapEntry e = heap_[pos];
  while (pos > kRootPos) {
    const std::size_t parent = (pos + 8) / 4;
    if (!(e < heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void Engine::sift_down(std::size_t pos, std::size_t top) {
  // Bottom-up variant (same trick as libstdc++ __adjust_heap): walk the hole
  // all the way down along min-children, then bubble the displaced element up
  // from the leaf. The displaced element came from the heap's back — almost
  // always a large key — so the up-phase is O(1) expected while the descent
  // skips a per-level comparison against it. The full-fanout min-of-4 scan
  // is unrolled and compiles to conditional moves (128-bit compares), so the
  // descent takes no data-dependent branches.
  //
  // The bubble-up must stop at `top` (the position the sift started from,
  // libstdc++'s __topIndex), NOT at kRootPos: when Floyd heapify sifts an
  // interior node whose ancestors are not yet heapified, stopping only at the
  // root would hoist the element above its own subtree and corrupt the heap.
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[pos];
  HeapEntry* h = heap_.data();
  std::size_t first;
  while ((first = pos * 4 - 8) + 3 < n) {
    // The next level's load address depends on which child wins the scan
    // below, so the descent is a chain of serial cache misses. Prefetching
    // all four grandchild lines (they are contiguous: children groups are
    // one line each) overlaps the next level's fill with this level's scan.
    const std::size_t grand = first * 4 - 8;
    if (grand < n) {
      __builtin_prefetch(h + grand);
      if (grand + 4 < n) __builtin_prefetch(h + grand + 4);
      if (grand + 8 < n) __builtin_prefetch(h + grand + 8);
      if (grand + 12 < n) __builtin_prefetch(h + grand + 12);
    }
    std::size_t best = first;
    best = h[first + 1] < h[best] ? first + 1 : best;
    best = h[first + 2] < h[best] ? first + 2 : best;
    best = h[first + 3] < h[best] ? first + 3 : best;
    h[pos] = h[best];
    pos = best;
  }
  if (first < n) {  // partial last group (1-3 children)
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      best = h[c] < h[best] ? c : best;
    }
    h[pos] = h[best];
    pos = best;
  }
  while (pos > top) {
    const std::size_t parent = (pos + 8) / 4;
    if (!(e < h[parent])) break;
    h[pos] = h[parent];
    pos = parent;
  }
  h[pos] = e;
}

void Engine::heap_push(HeapEntry e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void Engine::heap_pop() {
  heap_[kRootPos] = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n <= kRootPos) return;
  if (n >= 8) {
    // The next top is almost always the min of the root's children (the
    // element moved up from the back rarely wins). That line is cache-hot,
    // so predict the winner now and prefetch its slot a whole sift_down
    // earlier than fire_top's own prefetch can.
    const HeapEntry* h = heap_.data();
    std::size_t best = 4;
    best = h[5] < h[best] ? 5 : best;
    best = h[6] < h[best] ? 6 : best;
    best = h[7] < h[best] ? 7 : best;
    __builtin_prefetch(&meta_ref(tag_slot(entry_tag(h[best]))));
  }
  sift_down(kRootPos, kRootPos);
}

Engine::~Engine() {
  // Chunks hold raw storage; only slots [0, slot_count_) were ever
  // placement-constructed (free-listed slots stay constructed). SlotMeta is
  // trivially destructible; only the callbacks need real destruction.
  for (std::uint32_t s = 0; s < slot_count_; ++s) {
    callback_ref(s).~Callback();
  }
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = meta_ref(slot).next_free;
    return slot;
  }
  if ((slot_count_ >> kChunkShift) == chunks_.size()) {
    void* raw = ::operator new(kChunkBytes, std::align_val_t{kChunkBytes});
#ifdef __linux__
    madvise(raw, kChunkBytes, MADV_HUGEPAGE);
#endif
    chunks_.emplace_back(static_cast<std::byte*>(raw));
  }
  GOCAST_ASSERT(slot_count_ < (std::uint32_t{1} << kSlotBits));
  new (&meta_ref(slot_count_)) SlotMeta;
  new (&callback_ref(slot_count_)) Callback;
  return slot_count_++;
}

EventId Engine::schedule_at(SimTime t, Callback cb) {
  GOCAST_ASSERT_MSG(t >= now_, "scheduling into the past: t=" << t
                                                              << " now=" << now_);
  GOCAST_ASSERT(static_cast<bool>(cb));
  GOCAST_ASSERT(next_seq_ < kMaxSeq);

  const std::uint32_t slot = acquire_slot();
  const std::uint64_t tag = (next_seq_++ << kSlotBits) | slot;
  SlotMeta& m = meta_ref(slot);
  m.live_tag = tag;
  callback_ref(slot) = std::move(cb);

  heap_push(make_entry(time_key(t), tag));
  ++live_events_;
  return EventId{slot, m.generation};
}

EventId Engine::schedule_at_ordered(SimTime t, std::uint64_t order_key,
                                    Callback cb) {
  GOCAST_ASSERT_MSG(t >= now_, "scheduling into the past: t=" << t
                                                              << " now=" << now_);
  GOCAST_ASSERT(static_cast<bool>(cb));
  GOCAST_ASSERT_MSG(order_key < kMaxSeq, "order key " << order_key
                                                      << " overflows seq bits");

  const std::uint32_t slot = acquire_slot();
  const std::uint64_t tag = (order_key << kSlotBits) | slot;
  SlotMeta& m = meta_ref(slot);
  m.live_tag = tag;
  callback_ref(slot) = std::move(cb);

  heap_push(make_entry(time_key(t), tag));
  ++live_events_;
  return EventId{slot, m.generation};
}

bool Engine::cancel(EventId id) {
  if (id.slot >= slot_count_) return false;
  SlotMeta& m = meta_ref(id.slot);
  if (m.live_tag == kDeadTag || m.generation != id.generation) return false;
  m.live_tag = kDeadTag;
  ++m.generation;
  callback_ref(id.slot).reset();
  m.next_free = free_head_;
  free_head_ = id.slot;
  GOCAST_ASSERT(live_events_ > 0);
  --live_events_;
  // The heap entry is now stale; it is skipped lazily when it surfaces, and
  // compacted away wholesale when stale entries dominate the heap.
  ++dead_in_heap_;
  if (dead_in_heap_ > live_events_ && heap_.size() >= 64) compact_heap();
  return true;
}

void Engine::compact_heap() {
  auto dead = [this](HeapEntry e) { return !entry_live(e); };
  heap_.erase(std::remove_if(heap_.begin() + kRootPos, heap_.end(), dead),
              heap_.end());
  const std::size_t n = heap_.size();
  if (n > kRootPos + 1) {
    // Floyd heapify: sift interior nodes bottom-up (last parent first). Each
    // sift is bounded at its own start position `i` — the subtree root —
    // because nodes above i are not heapified yet.
    for (std::size_t i = std::min((n - 1 + 8) / 4, n - 1); i >= kRootPos; --i) {
      sift_down(i, i);
    }
  }
  dead_in_heap_ = 0;
#ifndef NDEBUG
  // Every live event has exactly one heap entry: after dropping the dead
  // ones the heap and the live-event count must agree with pending().
  GOCAST_ASSERT(heap_.size() - kRootPos == live_events_);
  GOCAST_ASSERT(pending() == live_events_);
  // Full heap invariant: no entry sorts below its parent. Fires immediately
  // on a heapify bug instead of surfacing later as an out-of-order event.
  for (std::size_t c = kRootPos + 1; c < heap_.size(); ++c) {
    GOCAST_ASSERT(!(heap_[c] < heap_[(c + 8) / 4]));
  }
#endif
}

bool Engine::prune_dead_top() {
  while (!heap_empty()) {
    if (entry_live(heap_top())) return true;
    heap_pop();
    GOCAST_ASSERT(dead_in_heap_ > 0);
    --dead_in_heap_;
  }
  return false;
}

void Engine::fire_top() {
  const HeapEntry entry = heap_top();
  heap_pop();
  // The next top's meta line will be needed by the upcoming liveness check
  // and its callback line by the likely following fire_top; issuing both
  // prefetches here lets the fills overlap with this event's callback.
  if (!heap_empty()) {
    const std::uint32_t next = tag_slot(entry_tag(heap_top()));
    __builtin_prefetch(&meta_ref(next));
    __builtin_prefetch(&callback_ref(next));
  }

  const SimTime t = key_time(entry_key(entry));
  GOCAST_ASSERT(t >= now_);
  now_ = t;

  const std::uint32_t slot = tag_slot(entry_tag(entry));
  SlotMeta& m = meta_ref(slot);
  // Mark the event dead before invoking (so a re-entrant cancel of this id
  // is a no-op) but keep the slot OFF the free list until the callback
  // returns: slots never move when the table grows, so invoking in place is
  // safe as long as a re-entrant schedule_at cannot recycle this slot and
  // overwrite the executing callback.
  m.live_tag = kDeadTag;
  ++m.generation;
  --live_events_;
  ++processed_;

  Callback& cb = callback_ref(slot);
  cb();
  cb.reset();
  m.next_free = free_head_;
  free_head_ = slot;
}

bool Engine::step() {
  if (!prune_dead_top()) return false;
  fire_top();
  return true;
}

std::size_t Engine::run_until(SimTime t) {
  GOCAST_ASSERT(t >= now_);
  // Batch fast path: one top-of-heap probe per event (step()-based looping
  // would prune and inspect the top twice per event).
  const std::uint64_t key_limit = time_key(t);
  std::size_t n = 0;
  while (prune_dead_top() && entry_key(heap_top()) <= key_limit) {
    fire_top();
    ++n;
  }
  now_ = t;
  return n;
}

std::size_t Engine::run_before(SimTime t) {
  GOCAST_ASSERT(t >= now_);
  const std::uint64_t key_limit = time_key(t);
  std::size_t n = 0;
  while (prune_dead_top() && entry_key(heap_top()) < key_limit) {
    fire_top();
    ++n;
  }
  now_ = t;
  return n;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (prune_dead_top()) {
    fire_top();
    ++n;
  }
  return n;
}

SimTime Engine::next_event_time() const {
  // Pruning dead top entries is observationally const; doing it here keeps
  // the query O(1) amortized instead of scanning past stale entries.
  auto* self = const_cast<Engine*>(this);
  if (!self->prune_dead_top()) return kNever;
  return key_time(entry_key(heap_top()));
}

}  // namespace gocast::sim
