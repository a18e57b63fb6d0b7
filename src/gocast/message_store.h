// The dissemination layer's message store (paper §2.1): every message a
// node has seen, kept as a record until the GC erases it, with the payload
// held for the waiting period b.
//
// Two tables:
//  - MessageTable interns the immutable per-message metadata
//    {id, inject_time, payload_bytes} by value behind refcounted u32
//    handles. Those values are the same on every node that holds the
//    message, so System keeps one table per engine shard (beside the
//    landmark store, in ShardTables) and each node stores a handle.
//  - MessageStore is one node's records, kept in arrival order (the
//    arrival log: received_at in fixed 64-record chunks on a ring, and
//    handle|flags in a ring of 4-byte words), with an id -> log-position
//    index (common::PositionIndex, 4 bytes a slot) for lookups. A lookup
//    hit reads an index slot, a word and the table entry.
//
// Exactness. A record's received_at is the node's clock at insertion, and
// the clock never runs backwards on either runtime (engine time; under UDP
// steady_clock time, its epoch offset read off the realtime clock only at
// construction), so the log is sorted by received_at. GC by age therefore
// pops records from the front and moves a payload cursor forward — the
// records it passes are exactly those a full table scan would have picked.
// The one record that changes after insertion is a digest liar's planted
// one (payload-less, undelivered): when the real payload arrives, the
// record is tombstoned in place and re-appended at the tail with the new
// received_at, which keeps the log sorted.
//
// Both tables are single-threaded, like everything else on one shard;
// records cross shards by value on the wire, never as handles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/position_index.h"
#include "common/types.h"

namespace gocast::core {

class MessageTable {
 public:
  using Handle = std::uint32_t;

  struct Entry {
    MsgId id;
    SimTime inject_time = 0.0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t refs = 0;  // 0 == free
  };
  static_assert(sizeof(Entry) == 24);

  /// Returns the handle for this exact value — id, inject_time bits and
  /// payload_bytes — allocating a slot on first sight, and takes one
  /// reference on it. Interning by value keeps crafted digests (a second
  /// inject_time for a known id) and reused ids exact.
  [[nodiscard]] Handle intern(MsgId id, SimTime inject_time,
                              std::uint32_t payload_bytes);

  /// Drops one reference; the slot is recycled when the last one goes.
  void release(Handle h);

  /// The interned value (valid until the next intern()).
  [[nodiscard]] const Entry& get(Handle h) const { return entries_[h]; }

  /// Live reference count of a handle (test visibility).
  [[nodiscard]] std::uint32_t refcount(Handle h) const {
    return h < entries_.size() ? entries_[h].refs : 0;
  }
  /// Distinct values currently interned.
  [[nodiscard]] std::size_t unique_count() const { return index_.size(); }
  /// Handles ever allocated (slots, live or free).
  [[nodiscard]] std::size_t slot_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  [[nodiscard]] static std::uint64_t hash_of(MsgId id, SimTime inject_time,
                                             std::uint32_t payload_bytes);

  std::vector<Entry> entries_;
  std::vector<Handle> free_;
  common::PositionIndex index_;  // value -> handle
};

class MessageStore {
 public:
  /// Returned by find() for an id with no record.
  static constexpr std::uint32_t kNone = common::PositionIndex::kNone;

  /// `table` is the shard's metadata table; when null the store interns
  /// into a private one (UDP nodes and directly built instances).
  explicit MessageStore(std::shared_ptr<MessageTable> table = nullptr);
  ~MessageStore();
  MessageStore(const MessageStore&) = delete;
  MessageStore& operator=(const MessageStore&) = delete;

  /// Log position of `id`'s record, or kNone. Positions are valid until the
  /// next accept/plant/gc.
  [[nodiscard]] std::uint32_t find(MsgId id) const {
    return index_.find(hash_of(id), [&](std::uint32_t pos) {
      return table_->get(word(pos) & kHandleMask).id == id;
    });
  }
  [[nodiscard]] bool contains(MsgId id) const { return find(id) != kNone; }
  /// False only for a digest liar's planted record.
  [[nodiscard]] bool delivered(std::uint32_t pos) const {
    return (word(pos) & kPlanted) == 0;
  }
  /// The record still holds its payload: delivered, and younger than the
  /// waiting period at the last sweep.
  [[nodiscard]] bool payload_held(std::uint32_t pos) const {
    return delivered(pos) && offset_of(pos) >= dropped_;
  }
  [[nodiscard]] const MessageTable::Entry& meta(std::uint32_t pos) const {
    return table_->get(word(pos) & kHandleMask);
  }

  /// Records a real arrival received at `now`, payload held. A record the
  /// id already has (a liar's plant) is retired and replaced at the tail.
  void accept(MsgId id, SimTime inject_time, std::uint32_t payload_bytes,
              SimTime now);
  /// Records a payload-less, undelivered record (digest liar). Returns
  /// false, changing nothing, when the id already has a record.
  bool plant(MsgId id, SimTime inject_time, SimTime now);

  /// Drops payloads older than `payload_after` and erases records older
  /// than `record_after` (ages strictly greater, as of `now`).
  void gc(SimTime now, SimTime payload_after, SimTime record_after);

  /// Held payloads / records older than `age` seconds as of `now`.
  [[nodiscard]] std::size_t payloads_older_than(SimTime now,
                                                SimTime age) const;
  [[nodiscard]] std::size_t records_older_than(SimTime now, SimTime age) const;

  /// Ids of every record still holding its payload, sorted.
  [[nodiscard]] std::vector<MsgId> held_ids() const;

  /// Live records.
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  /// Log and index bytes, plus the metadata table when it is private (a
  /// shared one is counted once per shard by its owner).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kRetired = 1u << 31;
  static constexpr std::uint32_t kPlanted = 1u << 30;
  static constexpr std::uint32_t kHandleMask = kPlanted - 1;

  // The log is a sequence of positions counted modulo 2^23 (below
  // PositionIndex::kMaxPosition). Position p's word lives at p & word_mask_
  // in words_, a power-of-two ring that doubles when the log fills it; a
  // lookup hit reads it straight after the index slot. received_at, read
  // only by appends, GC and the audit scans, lives in 64-record chunks:
  // chunk number c sits in ring slot c & slot_mask_, and that ring doubles
  // when the log would wrap onto its own head. Doubling either ring re-places
  // entries by position, so positions — and the index — stay valid for a
  // record's lifetime. Chunks are allocated as the tail enters them and
  // freed as the head leaves them: fixed-size blocks, so the 8-byte times,
  // two thirds of the log, never strand the outgrown buffers a doubling
  // array leaves behind.
  static constexpr std::uint32_t kChunkBits = 6;
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkBits;
  static constexpr std::uint32_t kPosMask = (1u << 23) - 1;
  static constexpr std::uint32_t kChunkNoMask = kPosMask >> kChunkBits;

  struct Chunk {
    SimTime received[kChunkRecords];
  };

  [[nodiscard]] static std::uint64_t hash_of(MsgId id) {
    return std::hash<MsgId>{}(id);
  }
  [[nodiscard]] Chunk& chunk(std::uint32_t pos) const {
    return *chunks_[(pos >> kChunkBits) & slot_mask_];
  }
  [[nodiscard]] SimTime& received(std::uint32_t pos) const {
    return chunk(pos).received[pos & (kChunkRecords - 1)];
  }
  [[nodiscard]] std::uint32_t word(std::uint32_t pos) const {
    return words_[pos & word_mask_];
  }
  [[nodiscard]] std::uint32_t& word(std::uint32_t pos) {
    return words_[pos & word_mask_];
  }
  /// Position of the record `offset` places behind the head.
  [[nodiscard]] std::uint32_t at(std::size_t offset) const {
    return static_cast<std::uint32_t>((head_ + offset) & kPosMask);
  }
  [[nodiscard]] std::size_t offset_of(std::uint32_t pos) const {
    return (pos - head_) & kPosMask;
  }
  void append(MessageTable::Handle handle, std::uint32_t flags, SimTime now);
  void pop_front();
  void grow_ring();
  void grow_words();

  bool private_table_;
  std::shared_ptr<MessageTable> table_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< ring of chunk slots
  std::unique_ptr<Chunk> spare_;  ///< one emptied chunk, kept for reuse
  std::size_t slot_mask_ = 0;
  std::vector<std::uint32_t> words_;  ///< handle | kPlanted | kRetired
  std::uint32_t word_mask_ = 0;
  std::uint32_t head_ = 0;   ///< position of the oldest entry
  std::size_t count_ = 0;    ///< log entries, retired ones included
  std::size_t dropped_ = 0;  ///< leading entries whose payload was dropped
  common::PositionIndex index_;  ///< id -> log position (live records)
};

}  // namespace gocast::core
