#include "membership/partial_view.h"

#include <algorithm>

#include "common/assert.h"

namespace gocast::membership {

PartialView::PartialView(NodeId self, std::size_t capacity, Rng rng,
                         std::shared_ptr<LandmarkStore> store)
    : self_(self),
      capacity_(capacity),
      rng_(std::move(rng)),
      store_(store != nullptr ? std::move(store)
                              : std::make_shared<LandmarkStore>()) {
  GOCAST_ASSERT(capacity_ >= 1);
  // Exact-fit, once: gossip fills every view to capacity in any warmed
  // deployment, so reserving the final size up front costs the same bytes
  // the view ends at anyway — while the doubling path would leave each
  // node's outgrown buffers (~half the final footprint) stranded in the
  // allocator as fragmentation no large run ever gets back.
  entries_.reserve(capacity_);
  // Index sized for capacity_ entries, fixed for the view's lifetime.
  index_.reset_for(capacity_);
}

void PartialView::index_insert(NodeId id, std::uint32_t pos) {
  index_.insert(hash_of(id), pos,
                [&](std::uint32_t p) { return hash_of(entries_[p].id); });
}

void PartialView::index_erase(NodeId id) {
  index_.erase(hash_of(id),
               [&](std::uint32_t p) { return entries_[p].id == id; });
}

PartialView::~PartialView() {
  if (store_ == nullptr) return;  // moved-from
  for (const CompactEntry& e : entries_) store_->release(e.lm);
}

void PartialView::insert(const MemberEntry& entry) {
  if (entry.id == self_ || entry.id == kInvalidNode) return;

  std::uint32_t pos = lookup(entry.id);
  if (pos != common::PositionIndex::kNone) {
    CompactEntry& existing = entries_[pos];
    if (entry.heard_at >= existing.heard_at) {
      // Intern before releasing: a refresh with the same vector just bumps
      // and drops the refcount instead of recycling the slot.
      LandmarkStore::Handle lm = store_->intern(entry.landmark_rtt);
      store_->release(existing.lm);
      existing.lm = lm;
      existing.heard_at = std::max(existing.heard_at, entry.heard_at);
    }
    return;
  }

  if (entries_.size() >= capacity_) {
    // Uniform random eviction keeps the view an (approximately) uniform
    // sample of the membership stream. The index erase must precede the
    // slot overwrite: probes resolve ids through the entry they point at.
    std::size_t victim = static_cast<std::size_t>(rng_.next_below(entries_.size()));
    if (corroborate_) first_advertiser_.erase(entries_[victim].id);
    index_erase(entries_[victim].id);
    store_->release(entries_[victim].lm);
    entries_[victim] = CompactEntry{entry.id, store_->intern(entry.landmark_rtt),
                                    entry.heard_at};
    index_insert(entry.id, static_cast<std::uint32_t>(victim));
    return;
  }

  index_insert(entry.id, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(CompactEntry{entry.id, store_->intern(entry.landmark_rtt),
                                  entry.heard_at});
}

void PartialView::integrate(std::span<const MemberEntry> entries) {
  for (const MemberEntry& e : entries) insert(e);
}

void PartialView::integrate_from(NodeId from,
                                 std::span<const MemberEntry> entries,
                                 std::size_t max_new) {
  std::size_t budget = max_new == 0 ? entries.size() : max_new;
  for (const MemberEntry& e : entries) {
    if (e.id == self_ || e.id == kInvalidNode) continue;
    if (lookup(e.id) == common::PositionIndex::kNone) {
      if (budget == 0) continue;  // diversity cap: this advertiser is done
      --budget;
    }
    insert_tracked(e, from);
  }
}

void PartialView::insert_tracked(const MemberEntry& entry, NodeId from) {
  if (corroborate_) {
    if (lookup(entry.id) == common::PositionIndex::kNone) {
      // First sighting: remember who vouched. (A node advertising itself
      // counts as its own first voucher — corroboration needs a second,
      // distinct one.)
      first_advertiser_.try_emplace(entry.id, from);
    } else {
      auto it = first_advertiser_.find(entry.id);
      if (it != first_advertiser_.end() && it->second != from) {
        first_advertiser_.erase(it);  // second distinct voucher
      }
    }
  }
  insert(entry);
}

void PartialView::remove(NodeId id) {
  if (corroborate_) first_advertiser_.erase(id);
  std::uint32_t pos = lookup(id);
  if (pos == common::PositionIndex::kNone) return;
  std::uint32_t last = static_cast<std::uint32_t>(entries_.size() - 1);
  store_->release(entries_[pos].lm);
  index_erase(id);
  if (pos != last) {
    NodeId moved = entries_[last].id;
    entries_[pos] = entries_[last];
    index_.update(hash_of(moved),
                  [&](std::uint32_t p) { return entries_[p].id == moved; },
                  pos);
  }
  entries_.pop_back();
  if (cursor_ > entries_.size()) cursor_ = 0;
}

bool PartialView::contains(NodeId id) const {
  return lookup(id) != common::PositionIndex::kNone;
}

std::optional<MemberEntry> PartialView::find(NodeId id) const {
  std::uint32_t pos = lookup(id);
  if (pos == common::PositionIndex::kNone) return std::nullopt;
  return entry_at(pos);
}

MemberEntry PartialView::entry_at(std::size_t pos) const {
  const CompactEntry& e = entries_[pos];
  MemberEntry out;
  out.id = e.id;
  out.landmark_rtt = store_->get(e.lm);
  out.heard_at = e.heard_at;
  return out;
}

NodeId PartialView::random_member() {
  if (entries_.empty()) return kInvalidNode;
  return entries_[static_cast<std::size_t>(rng_.next_below(entries_.size()))].id;
}

std::vector<MemberEntry> PartialView::sample(std::size_t k) {
  // Reservoir-sample positions over the compact slots — the draw sequence
  // depends only on (size, k), so it matches the pre-interning sample()
  // byte for byte — then materialize the winners.
  std::vector<CompactEntry> picked = rng_.sample(entries_, k);
  std::vector<MemberEntry> out;
  out.reserve(picked.size());
  for (const CompactEntry& e : picked) {
    MemberEntry m;
    m.id = e.id;
    m.landmark_rtt = store_->get(e.lm);
    m.heard_at = e.heard_at;
    out.push_back(m);
  }
  return out;
}

NodeId PartialView::next_round_robin() {
  if (entries_.empty()) return kInvalidNode;
  if (cursor_ >= entries_.size()) cursor_ = 0;
  return entries_[cursor_++].id;
}

std::size_t PartialView::memory_bytes() const {
  return entries_.capacity() * sizeof(CompactEntry) +
         index_.memory_bytes() +
         first_advertiser_.memory_bytes();
}

}  // namespace gocast::membership
