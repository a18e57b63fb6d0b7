// Memory-layout regression tests for the large-run overhaul: landmark-vector
// interning (value aliasing, refcount lifetime, slot recycling), the
// PartialView position-table index under insert/remove churn, the pinned
// 512-node determinism goldens that the layout changes must not move by a
// byte, the node-object bound and promoted-stream accounting of sparse RNG
// streams, and a 32k-node construction smoke proving the startup path stays
// free of O(n^2) work at real scale.
#include <gtest/gtest.h>

#include <cinttypes>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "gocast/system.h"
#include "harness/csv.h"
#include "harness/scenario.h"
#include "membership/landmark_store.h"
#include "membership/partial_view.h"

namespace gocast {
namespace {

using membership::LandmarkStore;
using membership::LandmarkVector;
using membership::MemberEntry;
using membership::PartialView;

LandmarkVector vec(float head) {
  LandmarkVector v = membership::empty_landmarks();
  v[0] = head;
  return v;
}

MemberEntry member(NodeId id, float rtt0, SimTime heard_at = 0.0) {
  MemberEntry e;
  e.id = id;
  e.landmark_rtt = vec(rtt0);
  e.heard_at = heard_at;
  return e;
}

TEST(LandmarkStore, EqualVectorsAliasOneSlot) {
  LandmarkStore store;
  LandmarkStore::Handle a = store.intern(vec(0.25f));
  LandmarkStore::Handle b = store.intern(vec(0.25f));
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.unique_count(), 2u);  // empty vector + one value
  EXPECT_EQ(store.get(a)[0], 0.25f);

  LandmarkStore::Handle c = store.intern(vec(0.5f));
  EXPECT_NE(a, c);
  EXPECT_EQ(store.unique_count(), 3u);
}

TEST(LandmarkStore, PartiallyMeasuredVectorsInternDespiteNaN) {
  // Unmeasured slots are NaN; bitwise hashing must still alias them.
  LandmarkStore store;
  LandmarkStore::Handle a = store.intern(membership::empty_landmarks());
  EXPECT_EQ(a, LandmarkStore::kEmptyHandle);
  LandmarkStore::Handle b = store.intern(vec(1.0f));  // slots 1..7 still NaN
  EXPECT_EQ(b, store.intern(vec(1.0f)));
  store.release(b);
}

TEST(LandmarkStore, LastReleaseRecyclesSlot) {
  LandmarkStore store;
  LandmarkStore::Handle a = store.intern(vec(0.1f));
  store.retain(a);
  store.release(a);
  EXPECT_EQ(store.unique_count(), 2u);  // still held by the intern ref
  store.release(a);
  EXPECT_EQ(store.unique_count(), 1u);  // value forgotten

  // The freed slot is reused for the next new value, and the old value
  // interns as new again rather than resolving to a stale slot.
  LandmarkStore::Handle b = store.intern(vec(0.2f));
  EXPECT_EQ(b, a);
  EXPECT_EQ(store.get(b)[0], 0.2f);
  LandmarkStore::Handle c = store.intern(vec(0.1f));
  EXPECT_NE(c, LandmarkStore::kEmptyHandle);
  EXPECT_EQ(store.get(c)[0], 0.1f);
}

TEST(PartialView, SharedStoreAliasesAcrossViews) {
  auto store = std::make_shared<LandmarkStore>();
  PartialView a(0, 8, Rng(1), store);
  PartialView b(1, 8, Rng(2), store);
  a.insert(member(7, 0.3f));
  b.insert(member(7, 0.3f));
  // One value, known to two views: one slot (plus the pinned empty vector).
  EXPECT_EQ(store->unique_count(), 2u);
  EXPECT_EQ(a.find(7)->landmark_rtt[0], 0.3f);
  EXPECT_EQ(b.find(7)->landmark_rtt[0], 0.3f);
}

TEST(PartialView, RemoveOnNodeDeathReleasesInternedValue) {
  auto store = std::make_shared<LandmarkStore>();
  PartialView a(0, 8, Rng(1), store);
  PartialView b(1, 8, Rng(2), store);
  a.insert(member(7, 0.3f));
  b.insert(member(7, 0.3f));
  a.remove(7);
  EXPECT_EQ(store->unique_count(), 2u);  // b still references it
  b.remove(7);
  EXPECT_EQ(store->unique_count(), 1u);  // last reference gone
}

TEST(PartialView, DestructionReleasesAllReferences) {
  auto store = std::make_shared<LandmarkStore>();
  {
    PartialView view(0, 16, Rng(1), store);
    for (NodeId id = 1; id <= 10; ++id) {
      view.insert(member(id, static_cast<float>(id) * 0.01f));
    }
    EXPECT_EQ(store->unique_count(), 11u);
  }
  EXPECT_EQ(store->unique_count(), 1u);
}

TEST(PartialView, EvictionReleasesTheVictimsReference) {
  auto store = std::make_shared<LandmarkStore>();
  PartialView view(0, 4, Rng(3), store);
  for (NodeId id = 1; id <= 100; ++id) {
    view.insert(member(id, static_cast<float>(id)));
  }
  EXPECT_EQ(view.size(), 4u);
  // Only the four surviving entries hold references.
  EXPECT_EQ(store->unique_count(), 5u);
}

TEST(PartialView, RefreshSwapsReferenceToNewValue) {
  auto store = std::make_shared<LandmarkStore>();
  PartialView view(0, 8, Rng(1), store);
  view.insert(member(7, 0.3f, 1.0));
  view.insert(member(7, 0.4f, 2.0));  // newer measurement replaces the value
  EXPECT_EQ(store->unique_count(), 2u);  // 0.3f was released
  EXPECT_EQ(view.find(7)->landmark_rtt[0], 0.4f);
}

TEST(PartialView, IndexSurvivesInsertRemoveChurn) {
  // Insert/remove churn drives the position-table index through tombstone
  // accumulation and in-place rebuilds; a shadow std::set checks every
  // membership answer along the way.
  PartialView view(0, 8, Rng(9));
  std::set<NodeId> shadow;
  Rng rng(1234);
  for (int step = 0; step < 4000; ++step) {
    NodeId id = static_cast<NodeId>(1 + rng.next_below(64));
    if (rng.next_below(2) == 0 && view.size() >= 8) {
      view.remove(id);
      shadow.erase(id);
    } else {
      if (!view.contains(id) && view.size() >= 8) {
        // Full view: insertion evicts an unknown victim, so resync the
        // shadow from the view's own enumeration afterwards.
        view.insert(member(id, static_cast<float>(id)));
        shadow.clear();
        for (std::size_t p = 0; p < view.size(); ++p) {
          shadow.insert(view.id_at(p));
        }
      } else {
        view.insert(member(id, static_cast<float>(id)));
        shadow.insert(id);
      }
    }
    ASSERT_EQ(view.size(), shadow.size());
    for (NodeId probe = 1; probe <= 64; ++probe) {
      ASSERT_EQ(view.contains(probe), shadow.count(probe) > 0)
          << "step " << step << " probe " << probe;
    }
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(MemoryLayoutGoldens, Scale512ScenarioIsByteIdentical) {
  // Pinned pre-overhaul goldens for the 512-node determinism scenario. The
  // interning, container right-sizing, and engine SoA work all claim to be
  // behavior-invisible; any drift in these constants means a layout change
  // leaked into protocol behavior and must be treated as a bug, not a
  // baseline refresh.
  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kGoCast;
  config.node_count = 512;
  config.seed = 42;
  config.warmup = 40.0;
  config.message_count = 20;
  config.message_rate = 50.0;
  config.drain = 10.0;

  auto r = harness::run_scenario(config);

  const std::string path = ::testing::TempDir() + "/gocast_golden_curve.csv";
  harness::write_curve_csv(path, r.curve);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();

  EXPECT_EQ(fnv1a(buf.str()), 0xa277e9d1d7ec1010ULL);
  EXPECT_EQ(r.deliveries, 10240u);
  EXPECT_EQ(r.duplicates, 841u);
  EXPECT_EQ(r.traffic.total_sent().messages, 796827u);
  EXPECT_EQ(r.traffic.total_sent().bytes, 76026165u);
  EXPECT_EQ(r.traffic.delivered(), 795819u);
  EXPECT_EQ(r.traffic.lost(), 0u);
  EXPECT_EQ(r.report.delivered_fraction, 1.0);
  EXPECT_EQ(r.report.max_delay, 0.46201276779174805);
  EXPECT_EQ(r.report.delay.mean(), 0.205988102073071);
}

TEST(MemoryLayout, NodeObjectFitsWithSparseStreams) {
  // Only the view and dissemination streams keep an inline mt19937_64
  // (2.5 KB each); another inline generator would break this bound.
  EXPECT_LE(sizeof(core::GoCastNode), 9300u);
}

TEST(MemoryLayout, MemoryReportCountsPromotedSparseStream) {
  // Drawing past the promotion block gives a node's overlay stream its own
  // generator; the overlay layer's accounted bytes must grow by exactly it.
  core::SystemConfig config;
  config.node_count = 16;
  config.seed = 3;
  core::System system(config);
  const auto before = system.memory_report();

  SparseRng& rng = system.node(5).overlay().rng();
  EXPECT_EQ(rng.memory_bytes(), 0u);
  for (int i = 0; i < 100; ++i) (void)rng.next_below(1000);
  EXPECT_GT(rng.memory_bytes(), 0u);

  const auto after = system.memory_report();
  const std::size_t promoted = sizeof(std::mt19937_64);
  EXPECT_EQ(after.overlay_bytes, before.overlay_bytes + promoted);
  EXPECT_EQ(after.total_bytes(), before.total_bytes() + promoted);
}

TEST(MemoryLayoutGoldens, Construct32kNodesAndWarmStart) {
  // Large-deployment smoke: constructing and starting a 32k-node system
  // must not hit any O(n^2) startup path (this test is minutes, not hours,
  // precisely because there no longer is one), and the per-node accounted
  // footprint must stay bounded.
  core::SystemConfig config;
  config.node_count = 32768;
  config.seed = 1;
  config.latency = core::default_latency_model(1);
  core::System system(config);
  system.start();
  system.run_until(0.5);

  EXPECT_EQ(system.alive_nodes().size(), 32768u);
  EXPECT_GT(system.events_processed(), 0u);

  const auto mem = system.memory_report();
  EXPECT_GT(mem.total_bytes(), 0u);
  // ~33 KB/node accounted after the overhaul; fail well before the
  // pre-overhaul ~70 KB/node territory.
  EXPECT_LT(mem.total_bytes() / config.node_count, 49152u);
}

}  // namespace
}  // namespace gocast
