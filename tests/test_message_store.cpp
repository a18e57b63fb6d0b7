// The dissemination message store (gocast/message_store.h): a differential
// test against a std::map model of the flat id -> record table it replaced
// (accept, plant, promote, GC at random times, older-than queries and the
// sorted held-id enumeration), refcount hygiene of the shared message
// table, the per-record byte budget, and the position index on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/position_index.h"
#include "common/rng.h"
#include "gocast/message_store.h"

namespace gocast {
namespace {

using core::MessageStore;
using core::MessageTable;

/// The store's contract, written the way the old flat table implemented it:
/// every operation touches the one record it names, GC scans everything.
class ReferenceStore {
 public:
  struct Record {
    SimTime inject_time;
    std::uint32_t payload_bytes;
    SimTime received_at;
    bool payload_present;
    bool delivered;
  };

  void accept(MsgId id, SimTime inject, std::uint32_t bytes, SimTime now) {
    records_[id] = Record{inject, bytes, now, true, true};
  }
  bool plant(MsgId id, SimTime inject, SimTime now) {
    return records_.try_emplace(id, Record{inject, 0, now, false, false})
        .second;
  }
  void gc(SimTime now, SimTime payload_after, SimTime record_after) {
    for (auto it = records_.begin(); it != records_.end();) {
      const SimTime age = now - it->second.received_at;
      if (age > record_after) {
        it = records_.erase(it);
        continue;
      }
      if (age > payload_after) it->second.payload_present = false;
      ++it;
    }
  }
  std::size_t payloads_older_than(SimTime now, SimTime age) const {
    std::size_t n = 0;
    for (const auto& [id, r] : records_) {
      if (r.payload_present && now - r.received_at > age) ++n;
    }
    return n;
  }
  std::size_t records_older_than(SimTime now, SimTime age) const {
    std::size_t n = 0;
    for (const auto& [id, r] : records_) {
      if (now - r.received_at > age) ++n;
    }
    return n;
  }
  std::vector<MsgId> held_ids() const {
    std::vector<MsgId> ids;
    for (const auto& [id, r] : records_) {
      if (r.payload_present) ids.push_back(id);
    }
    return ids;  // std::map order is id order
  }
  const Record* find(MsgId id) const {
    auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
  }
  std::size_t size() const { return records_.size(); }

 private:
  std::map<MsgId, Record> records_;
};

void expect_same(const MessageStore& store, const ReferenceStore& ref,
                 MsgId id) {
  const ReferenceStore::Record* want = ref.find(id);
  const std::uint32_t pos = store.find(id);
  ASSERT_EQ(pos != MessageStore::kNone, want != nullptr) << id.to_string();
  if (want == nullptr) return;
  EXPECT_EQ(store.delivered(pos), want->delivered) << id.to_string();
  EXPECT_EQ(store.payload_held(pos), want->payload_present) << id.to_string();
  EXPECT_EQ(store.meta(pos).id, id);
  EXPECT_EQ(store.meta(pos).inject_time, want->inject_time);
  EXPECT_EQ(store.meta(pos).payload_bytes, want->payload_bytes);
}

TEST(MessageStore, MatchesFlatTableModelUnderRandomOperations) {
  // Three stores share one table, as the nodes of one shard do. Ids come
  // from a small universe so accepts, plants and promotions keep colliding;
  // time steps include zero so receive times tie; GC windows are short so
  // records age out (and the log's chunks recycle) many times over.
  auto table = std::make_shared<MessageTable>();
  constexpr int kStores = 3;
  std::vector<std::unique_ptr<MessageStore>> stores;
  std::vector<ReferenceStore> refs(kStores);
  for (int s = 0; s < kStores; ++s) {
    stores.push_back(std::make_unique<MessageStore>(table));
  }
  Rng rng(20240917);
  SimTime now = 0.0;
  const SimTime payload_after = 3.0;
  const SimTime record_after = 7.0;
  auto random_id = [&] {
    return MsgId{static_cast<NodeId>(rng.next_below(6)),
                 static_cast<std::uint32_t>(rng.next_below(400))};
  };
  // Honest inject times are a function of the id; a liar's crafted digest
  // may carry any other.
  auto honest_inject = [](MsgId id) {
    return static_cast<double>(id.origin) * 0.5 +
           static_cast<double>(id.seq) * 0.03125;
  };

  for (int step = 0; step < 60000; ++step) {
    const int s = static_cast<int>(rng.next_below(kStores));
    MessageStore& store = *stores[s];
    ReferenceStore& ref = refs[s];
    if (rng.next_below(4) == 0) now += 0.01 * static_cast<double>(rng.next_below(8));
    const MsgId id = random_id();
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        const std::uint32_t bytes = rng.next_below(2) == 0 ? 512u : 1024u;
        store.accept(id, honest_inject(id), bytes, now);
        ref.accept(id, honest_inject(id), bytes, now);
        break;
      }
      case 4:
      case 5: {
        const SimTime inject = rng.next_below(2) == 0
                                   ? honest_inject(id)
                                   : now - 0.001 * rng.next_below(100);
        ASSERT_EQ(store.plant(id, inject, now), ref.plant(id, inject, now));
        break;
      }
      case 6:
        store.gc(now, payload_after, record_after);
        ref.gc(now, payload_after, record_after);
        break;
      case 7: {
        const SimTime age = 0.5 * static_cast<double>(rng.next_below(16));
        ASSERT_EQ(store.payloads_older_than(now, age),
                  ref.payloads_older_than(now, age));
        ASSERT_EQ(store.records_older_than(now, age),
                  ref.records_older_than(now, age));
        break;
      }
      case 8:
        ASSERT_EQ(store.held_ids(), ref.held_ids());
        break;
      default:
        break;
    }
    ASSERT_EQ(store.size(), ref.size()) << "step " << step;
    expect_same(store, ref, id);
    expect_same(store, ref, random_id());
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(table->unique_count(), 0u);

  // Everything ages out: every handle's refcount returns to zero, so the
  // shard table holds nothing once its nodes hold nothing.
  now += record_after + 1.0;
  for (int s = 0; s < kStores; ++s) {
    stores[s]->gc(now, payload_after, record_after);
    refs[s].gc(now, payload_after, record_after);
    EXPECT_EQ(stores[s]->size(), 0u);
    EXPECT_TRUE(stores[s]->held_ids().empty());
  }
  EXPECT_EQ(table->unique_count(), 0u);
  for (MessageTable::Handle h = 0; h < table->slot_count(); ++h) {
    EXPECT_EQ(table->refcount(h), 0u) << "handle " << h;
  }
}

TEST(MessageStore, LogGrowsWhileItsHeadMoves) {
  // Doubling the log's rings re-places live entries by position. The
  // record window here widens as time passes, so the log keeps growing
  // while GC keeps moving its head: every doubling happens with the oldest
  // live record far from position 0.
  MessageStore store;
  ReferenceStore ref;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const SimTime now = static_cast<double>(i);
    const MsgId id{1, i};
    store.accept(id, 0.5, 256, now);
    ref.accept(id, 0.5, 256, now);
    store.gc(now, 0.25 * now, 0.5 * now);
    ref.gc(now, 0.25 * now, 0.5 * now);
    ASSERT_EQ(store.size(), ref.size()) << "step " << i;
    for (std::uint32_t j = i / 2 - std::min(i / 2, 2u); j <= i; ++j) {
      expect_same(store, ref, MsgId{1, j});
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(store.held_ids(), ref.held_ids());
}

TEST(MessageStore, PromotedPlantMovesToTheTail) {
  // A liar's plant older than the payload window is promoted by the real
  // arrival: the record now counts from its new receive time, so a sweep
  // that drops older payloads keeps this one.
  auto table = std::make_shared<MessageTable>();
  MessageStore store(table);
  const MsgId a{1, 1};
  const MsgId b{2, 7};
  ASSERT_TRUE(store.plant(a, 0.5, 1.0));
  store.accept(b, 1.5, 256, 2.0);
  store.gc(10.0, 5.0, 20.0);  // both older than 5 s: payload dropped
  EXPECT_FALSE(store.payload_held(store.find(b)));
  store.accept(a, 0.5, 512, 11.0);
  EXPECT_TRUE(store.delivered(store.find(a)));
  EXPECT_TRUE(store.payload_held(store.find(a)));
  EXPECT_EQ(store.meta(store.find(a)).payload_bytes, 512u);
  EXPECT_EQ(store.held_ids(), std::vector<MsgId>{a});
  store.gc(25.0, 5.0, 20.0);  // b (received at 2) goes; a (at 11) stays
  EXPECT_FALSE(store.contains(b));
  EXPECT_TRUE(store.contains(a));
  EXPECT_EQ(store.records_older_than(25.0, 0.0), 1u);
  EXPECT_EQ(table->unique_count(), 1u);  // the plant's value was released
}

TEST(MessageStore, InterningIsByValue) {
  // Two records for one id with different inject times (a crafted digest)
  // are different values and get different handles; equal values share.
  auto table = std::make_shared<MessageTable>();
  MessageStore honest(table);
  MessageStore liar(table);
  MessageStore other(table);
  const MsgId id{4, 2};
  honest.accept(id, 3.0, 1024, 3.5);
  other.accept(id, 3.0, 1024, 3.6);
  ASSERT_TRUE(liar.plant(id, 2.0, 3.7));
  EXPECT_EQ(table->unique_count(), 2u);
  EXPECT_EQ(liar.meta(liar.find(id)).inject_time, 2.0);
  EXPECT_EQ(honest.meta(honest.find(id)).inject_time, 3.0);
}

TEST(MessageStore, DestroyedStoreReleasesItsHandles) {
  auto table = std::make_shared<MessageTable>();
  {
    MessageStore store(table);
    for (std::uint32_t seq = 0; seq < 1000; ++seq) {
      store.accept(MsgId{1, seq}, 0.0, 64, 1.0);
    }
    EXPECT_EQ(table->unique_count(), 1000u);
  }
  EXPECT_EQ(table->unique_count(), 0u);
}

TEST(MessageStore, RecordFootprintWithinBudget) {
  // 1,500 records — a node's store at the multicast SLO workload's knee —
  // fit in at most 22 bytes each, log and index included (the shared table
  // is counted per shard, not per node).
  auto table = std::make_shared<MessageTable>();
  MessageStore store(table);
  for (std::uint32_t seq = 0; seq < 1500; ++seq) {
    store.accept(MsgId{seq % 97, seq}, 0.0, 1024,
                 0.001 * static_cast<double>(seq));
  }
  EXPECT_LE(store.memory_bytes(), 1500u * 22u);
}

TEST(PositionIndex, TracksAShadowSetThroughGrowthAndTombstones) {
  // Keys live in a caller-owned array; the index holds positions. Churn
  // drives it through growth and tombstone rebuilds.
  std::vector<std::uint64_t> keys;
  std::vector<bool> live;
  common::PositionIndex index;
  std::set<std::uint64_t> shadow;
  auto hash = [](std::uint64_t k) { return k * 0x9E3779B97F4A7C15ULL; };
  auto find = [&](std::uint64_t k) {
    return index.find(hash(k), [&](std::uint32_t p) { return keys[p] == k; });
  };
  Rng rng(77);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t k = rng.next_below(3000);
    if (shadow.count(k) == 0) {
      keys.push_back(k);
      live.push_back(true);
      index.insert(hash(k), static_cast<std::uint32_t>(keys.size() - 1),
                   [&](std::uint32_t p) { return hash(keys[p]); });
      shadow.insert(k);
    } else {
      const std::uint32_t pos = index.erase(
          hash(k), [&](std::uint32_t p) { return keys[p] == k; });
      ASSERT_NE(pos, common::PositionIndex::kNone);
      live[pos] = false;
      shadow.erase(k);
    }
    ASSERT_EQ(index.size(), shadow.size());
    const std::uint64_t probe = rng.next_below(3000);
    const std::uint32_t pos = find(probe);
    ASSERT_EQ(pos != common::PositionIndex::kNone, shadow.count(probe) > 0);
    if (pos != common::PositionIndex::kNone) {
      ASSERT_TRUE(live[pos]);
      ASSERT_EQ(keys[pos], probe);
    }
  }
}

}  // namespace
}  // namespace gocast
