#include "gocast/message_store.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"

namespace gocast::core {

// ---------------------------------------------------------------------------
// MessageTable
// ---------------------------------------------------------------------------

std::uint64_t MessageTable::hash_of(MsgId id, SimTime inject_time,
                                    std::uint32_t payload_bytes) {
  // SplitMix64 finalizer over the three fields folded into one word.
  std::uint64_t z = id.packed() ^
                    std::bit_cast<std::uint64_t>(inject_time) *
                        0x9e3779b97f4a7c15ULL ^
                    (static_cast<std::uint64_t>(payload_bytes) << 17);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

MessageTable::Handle MessageTable::intern(MsgId id, SimTime inject_time,
                                          std::uint32_t payload_bytes) {
  const std::uint64_t hash = hash_of(id, inject_time, payload_bytes);
  const std::uint64_t inject_bits = std::bit_cast<std::uint64_t>(inject_time);
  const Handle found = index_.find(hash, [&](std::uint32_t h) {
    const Entry& e = entries_[h];
    return e.id == id && e.payload_bytes == payload_bytes &&
           std::bit_cast<std::uint64_t>(e.inject_time) == inject_bits;
  });
  if (found != common::PositionIndex::kNone) {
    ++entries_[found].refs;
    return found;
  }
  Handle h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
  } else {
    h = static_cast<Handle>(entries_.size());
    entries_.emplace_back();
  }
  entries_[h] = Entry{id, inject_time, payload_bytes, 1};
  index_.insert(hash, h, [&](std::uint32_t other) {
    const Entry& e = entries_[other];
    return hash_of(e.id, e.inject_time, e.payload_bytes);
  });
  return h;
}

void MessageTable::release(Handle h) {
  GOCAST_ASSERT(h < entries_.size() && entries_[h].refs > 0);
  Entry& e = entries_[h];
  if (--e.refs > 0) return;
  index_.erase(hash_of(e.id, e.inject_time, e.payload_bytes),
               [h](std::uint32_t other) { return other == h; });
  free_.push_back(h);
}

std::size_t MessageTable::memory_bytes() const {
  return entries_.capacity() * sizeof(Entry) +
         free_.capacity() * sizeof(Handle) + index_.memory_bytes();
}

// ---------------------------------------------------------------------------
// MessageStore
// ---------------------------------------------------------------------------

MessageStore::MessageStore(std::shared_ptr<MessageTable> table)
    : private_table_(table == nullptr),
      table_(private_table_ ? std::make_shared<MessageTable>()
                            : std::move(table)) {}

MessageStore::~MessageStore() {
  for (std::size_t k = 0; k < count_; ++k) {
    const std::uint32_t w = word(at(k));
    if ((w & kRetired) == 0) table_->release(w & kHandleMask);
  }
}

void MessageStore::accept(MsgId id, SimTime inject_time,
                          std::uint32_t payload_bytes, SimTime now) {
  const std::uint32_t old = find(id);
  if (old != kNone) {
    // Only a digest liar's plant can precede a real arrival: retire it so
    // the record re-enters the log at the tail, in received_at order.
    index_.erase(hash_of(id), [old](std::uint32_t pos) { return pos == old; });
    table_->release(word(old) & kHandleMask);
    word(old) |= kRetired;
  }
  append(table_->intern(id, inject_time, payload_bytes), 0, now);
}

bool MessageStore::plant(MsgId id, SimTime inject_time, SimTime now) {
  if (contains(id)) return false;
  append(table_->intern(id, inject_time, 0), kPlanted, now);
  return true;
}

void MessageStore::append(MessageTable::Handle handle, std::uint32_t flags,
                          SimTime now) {
  GOCAST_ASSERT(handle <= kHandleMask);
  // The log must stay in received_at order: GC pops it from the front.
  GOCAST_ASSERT(count_ == 0 || now >= received(at(count_ - 1)));
  GOCAST_ASSERT(count_ < kPosMask - kChunkRecords);
  if (count_ == words_.size()) grow_words();
  const std::uint32_t pos = at(count_);
  if ((pos & (kChunkRecords - 1)) == 0) {
    // The tail enters a fresh chunk. A slot still taken holds the head's
    // chunk: the log spans the whole ring, which doubles first.
    if (chunks_.empty()) chunks_.resize(1);
    if (chunks_[(pos >> kChunkBits) & slot_mask_] != nullptr) grow_ring();
    chunks_[(pos >> kChunkBits) & slot_mask_] =
        spare_ != nullptr ? std::move(spare_) : std::make_unique<Chunk>();
  }
  received(pos) = now;
  word(pos) = handle | flags;
  ++count_;
  index_.insert(hash_of(table_->get(handle).id), pos, [&](std::uint32_t p) {
    return hash_of(meta(p).id);
  });
}

void MessageStore::grow_ring() {
  std::vector<std::unique_ptr<Chunk>> grown(chunks_.size() * 2);
  GOCAST_ASSERT(grown.size() <= kChunkNoMask + 1);
  const std::size_t mask = grown.size() - 1;
  const std::uint32_t last = at(count_ - 1) >> kChunkBits;
  for (std::uint32_t c = head_ >> kChunkBits;; c = (c + 1) & kChunkNoMask) {
    grown[c & mask] = std::move(chunks_[c & slot_mask_]);
    if (c == last) break;
  }
  chunks_.swap(grown);
  slot_mask_ = mask;
}

void MessageStore::grow_words() {
  std::vector<std::uint32_t> grown(
      std::max<std::size_t>(kChunkRecords, words_.size() * 2));
  const auto mask = static_cast<std::uint32_t>(grown.size() - 1);
  for (std::size_t k = 0; k < count_; ++k) {
    grown[at(k) & mask] = word(at(k));
  }
  words_.swap(grown);
  word_mask_ = mask;
}

void MessageStore::pop_front() {
  const std::uint32_t pos = head_;
  const std::uint32_t w = word(pos);
  if ((w & kRetired) == 0) {
    index_.erase(hash_of(meta(pos).id),
                 [pos](std::uint32_t p) { return p == pos; });
    table_->release(w & kHandleMask);
  }
  head_ = (head_ + 1) & kPosMask;
  --count_;
  if (dropped_ > 0) --dropped_;
  if ((head_ & (kChunkRecords - 1)) == 0) {
    // The head left its chunk: every record in it is gone.
    std::unique_ptr<Chunk>& slot = chunks_[(pos >> kChunkBits) & slot_mask_];
    if (spare_ == nullptr) spare_ = std::move(slot);
    slot.reset();
  }
}

void MessageStore::gc(SimTime now, SimTime payload_after,
                      SimTime record_after) {
  while (count_ > 0 && now - received(head_) > record_after) pop_front();
  while (dropped_ < count_ && now - received(at(dropped_)) > payload_after) {
    ++dropped_;
  }
}

std::size_t MessageStore::payloads_older_than(SimTime now, SimTime age) const {
  std::size_t n = 0;
  for (std::size_t k = dropped_; k < count_; ++k) {
    const std::uint32_t pos = at(k);
    if (!(now - received(pos) > age)) break;
    if ((word(pos) & (kRetired | kPlanted)) == 0) ++n;
  }
  return n;
}

std::size_t MessageStore::records_older_than(SimTime now, SimTime age) const {
  std::size_t n = 0;
  for (std::size_t k = 0; k < count_; ++k) {
    const std::uint32_t pos = at(k);
    if (!(now - received(pos) > age)) break;
    if ((word(pos) & kRetired) == 0) ++n;
  }
  return n;
}

std::vector<MsgId> MessageStore::held_ids() const {
  std::vector<MsgId> ids;
  ids.reserve(count_ - dropped_);
  for (std::size_t k = dropped_; k < count_; ++k) {
    const std::uint32_t pos = at(k);
    if ((word(pos) & (kRetired | kPlanted)) == 0) ids.push_back(meta(pos).id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t MessageStore::memory_bytes() const {
  std::size_t chunks = spare_ != nullptr ? 1 : 0;
  for (const auto& chunk : chunks_) chunks += chunk != nullptr ? 1 : 0;
  return chunks * sizeof(Chunk) +
         chunks_.capacity() * sizeof(std::unique_ptr<Chunk>) +
         words_.capacity() * sizeof(std::uint32_t) +
         index_.memory_bytes() +
         (private_table_ ? table_->memory_bytes() : 0);
}

}  // namespace gocast::core
