#include "gocast/dissemination.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>

#include "common/assert.h"
#include "common/logging.h"
#include "runtime/udp_runtime.h"

namespace gocast::core {

namespace {

/// Membership entries piggybacked per gossip (partial-view refresh).
constexpr std::size_t kPiggybackMembers = 3;

/// Adaptive gossip: multiplier applied to the period after each idle tick.
constexpr double kGossipBackoff = 1.5;

/// An unanswered pull is re-issued after this (a lost pull request or a
/// lost response would otherwise orphan the message: each neighbor
/// advertises an ID only once). Also the deadline of a challenge pull.
constexpr SimTime kPullRetryTimeout = 2.0;
/// Retries per pull before giving up and waiting for a fresh digest
/// (exhaustions are counted — see DisseminationT::pull_retries_exhausted).
constexpr int kPullMaxAttempts = 5;
/// Each retry waits kPullRetryTimeout * kPullRetryBackoff^attempts, so a
/// capped budget of retries covers an exponentially growing window instead
/// of hammering a fixed period.
constexpr double kPullRetryBackoff = 1.5;
/// Uniform multiplicative jitter on every retry timeout (a fraction of the
/// backed-off timeout), de-synchronizing retry storms after a burst loss.
constexpr double kPullRetryJitter = 0.25;

// Defense tunables (DefenseProfile, DESIGN.md §9).

/// Suspicion added per offense.
constexpr double kSuspicionIncrement = 1.0;
/// Seconds for a suspicion score to halve.
constexpr double kSuspicionHalflife = 30.0;
/// Deprioritize / evict at or above this score.
constexpr double kSuspicionThreshold = 2.5;
/// Candidate ban after an eviction.
constexpr SimTime kBlacklistDuration = 600.0;
/// Digest sanity: entries one digest may carry before it is dropped whole.
constexpr std::size_t kMaxDigestEntries = 128;
/// Parent data-silence watch: the parent is "silent" once it has pushed
/// nothing for this long while deliveries kept arriving along other paths.
constexpr SimTime kSilenceWindow = 2.0;
/// Challenge pulls probe a message at least this old (every honest live
/// node must hold it) ...
constexpr SimTime kAuditMinAge = 5.0;
/// ... and at most this old (its payload is still retained, well inside b).
constexpr SimTime kAuditMaxAge = 30.0;
/// Suspicion added by a failed challenge — heavier than a routine offense.
constexpr double kAuditIncrement = 1.25;
/// Cover detection: sweep period per neighbor.
constexpr SimTime kCoverWindow = 10.0;
/// Cover detection: a window must see this many deliveries to give a
/// verdict.
constexpr std::uint32_t kCoverMinDeliveries = 20;
/// Cover detection: strikes before eviction.
constexpr std::uint32_t kCoverStrikeLimit = 3;

}  // namespace

template <runtime::Context RT>
DisseminationT<RT>::DisseminationT(NodeId self, RT rt,
                                   membership::PartialView& view,
                                   overlay::OverlayManagerT<RT>& overlay,
                                   tree::TreeManagerT<RT>* tree,
                                   DisseminationParams params,
                                   DefenseProfile defense, Rng rng,
                                   GroupId group,
                                   SuspicionLedger* shared_suspicion,
                                   std::shared_ptr<MessageTable> messages)
    : self_(self),
      rt_(rt),
      view_(view),
      overlay_(overlay),
      tree_(tree),
      params_(params),
      defense_(defense),
      group_(group),
      suspicion_ledger_(shared_suspicion != nullptr ? shared_suspicion
                                                    : &own_suspicion_),
      rng_(std::move(rng)),
      retry_rng_(rng_.fork_sparse("pull-retry")),
      store_(std::move(messages)),
      gossip_timer_(rt_, params.gossip_period, [this] { on_gossip_timer(); }),
      gc_timer_(rt_, params.gc_sweep_period, [this] { gc_sweep(); }) {
  GOCAST_ASSERT(params_.gossip_period > 0.0);
  GOCAST_ASSERT(params_.pull_delay_threshold >= 0.0);
  GOCAST_ASSERT(params_.gc_record_after >= params_.gc_payload_after);
  GOCAST_ASSERT(params_.gossip_period_max >= params_.gossip_period);
  // pending_ holds one slot per overlay neighbor (degree target ~6); the
  // store and the pull trackers grow with the traffic a run actually
  // sustains, so large idle deployments pay nothing up front.
  pending_.reserve(8);
  piggyback_buf_.reserve(kPiggybackMembers + 1);
}

template <runtime::Context RT>
void DisseminationT<RT>::start(SimTime stagger) {
  if (!external_gossip_) gossip_timer_.start(stagger + params_.gossip_period);
  gc_timer_.start(stagger + params_.gc_sweep_period);
}

template <runtime::Context RT>
void DisseminationT<RT>::stop() {
  gossip_timer_.stop();
  gc_timer_.stop();
}

template <runtime::Context RT>
void DisseminationT<RT>::deactivate() {
  stop();
  active_ = false;
  // Drop transient per-run state; the store keeps already-delivered records
  // so a quick rejoin does not re-deliver old traffic as new.
  pull_pending_.clear();
  pull_advertisers_.clear();
  for (auto& [peer, ids] : pending_) ids.clear();
}

template <runtime::Context RT>
void DisseminationT<RT>::reactivate(SimTime stagger) {
  if (active_) return;
  active_ = true;
  start(stagger);
}

template <runtime::Context RT>
MsgId DisseminationT<RT>::multicast(std::size_t payload_bytes) {
  GOCAST_ASSERT_MSG(active_, "multicast into a deactivated (left) group");
  MsgId id{self_, next_seq_++};
  accept_message(id, rt_.now(), payload_bytes, kInvalidNode,
                 DeliveryPath::kLocal);
  return id;
}

// ---------------------------------------------------------------------------
// Core acceptance path
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void DisseminationT<RT>::accept_message(MsgId id, SimTime inject_time,
                                        std::size_t payload_bytes,
                                        NodeId learned_from, DeliveryPath path) {
  const auto bytes = static_cast<std::uint32_t>(payload_bytes);
  // Only a digest-liar can race its own fake (payload-less) record against a
  // real arrival; the store promotes such a record instead of asserting.
  store_.accept(id, inject_time, bytes, rt_.now());
  ++deliveries_;
  end_pull(id);
  if (suspicion_defenses()) recent_ids_.emplace_back(rt_.now(), id);
  // A clique peer just supplied a payload we relayed a pull for: answer the
  // parked requesters as if we had held it all along (never runs honest —
  // only relay_pull populates the parking lot).
  if (!clique_pending_.empty()) serve_clique_waiters(id, inject_time, bytes);

  if (params_.adaptive_gossip &&
      gossip_timer_.period() > params_.gossip_period && gossip_timer_.running()) {
    // Traffic resumed: gossip at full rate again, starting now.
    gossip_timer_.set_period(params_.gossip_period);
    gossip_timer_.start(params_.gossip_period);
  }

  if (delivery_hook_) {
    delivery_hook_(
        DeliveryEvent{self_, id, inject_time, rt_.now(), path, group_});
  }

  if (suspicion_defenses() && params_.use_tree && tree_ != nullptr) {
    check_parent_silence();
  }

  // A mute forwarder is a free-rider: it consumes other nodes' messages
  // without ever pushing or advertising them (the black-hole behavior of
  // DESIGN.md §9) — but it still disseminates its own multicasts, since the
  // point of muting is to shed relay cost, not to censor itself. A colluding
  // clique member free-rides the same way; the difference that keeps it
  // unevictable under the per-offense defenses is that it still answers
  // pulls (see on_pull_request), so audits pass and keep wiping its slate.
  const bool free_ride =
      behavior_ != nullptr &&
      (behavior_->mute_forwarder || behavior_->clique != 0) &&
      learned_from != kInvalidNode;

  // Push without stop along remaining tree links (also after a pull: a
  // message entering a tree fragment floods the whole fragment, §2.1).
  if (params_.use_tree && tree_ != nullptr && !free_ride) {
    forward_on_tree(id, inject_time, bytes, learned_from);
  }

  // Queue the ID for gossiping to every overlay neighbor except the one we
  // heard the message from.
  if (!free_ride) {
    for (NodeId peer : rotation_) {
      if (peer != learned_from) pending_[peer].push_back(id);
    }
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::forward_on_tree(MsgId id, SimTime inject_time,
                                         std::uint32_t payload_bytes,
                                         NodeId except) {
  auto msg = rt_.template make<DataMsg>(id, inject_time, payload_bytes,
                                        /*via_tree=*/true,
                                        overlay_.my_degrees(), group_);
  const std::vector<NodeId> peers = tree_->tree_neighbors();
  rt_.send_multi(self_, peers.data(), peers.size(), except, std::move(msg));
}

template <runtime::Context RT>
void DisseminationT<RT>::on_data(NodeId from, const DataMsg& msg) {
  if (!active_) return;  // traffic for a group we already left
  if (collusion_defenses() && group_ == kDefaultGroup) {
    // Contribution ledger: a tree push is volunteered work, a pull answer is
    // on-demand service. The clique signature is all service, no volunteering.
    SuspicionLedger::CoverState& cs = cover_state(from);
    if (msg.via_tree) {
      ++cs.volunteered;
    } else {
      ++cs.served;
    }
  }
  if (suspicion_defenses() && from == watched_parent_) {
    // Any push from the watched parent — fresh or redundant — is proof it
    // still forwards.
    last_parent_data_ = rt_.now();
  }
  if (suspicion_defenses()) {
    auto audit_it = audit_pending_.find(msg.id);
    if (audit_it != audit_pending_.end() && audit_it->second.target == from) {
      // Challenge answered: a passed spot-check wipes the slate. Lost
      // messages make honest peers fail the occasional probe, so only
      // CONSECUTIVE failures — the one pattern an adversary cannot avoid —
      // may accumulate toward the eviction threshold.
      audit_pending_.erase(audit_it);
      auto sit = suspicion_ledger_->scores.find(from);
      if (sit != suspicion_ledger_->scores.end()) sit->second.score = 0.0;
    }
  }
  const std::uint32_t pos = store_.find(msg.id);
  if (pos != MessageStore::kNone && store_.delivered(pos)) {
    // Redundant arrival — the paper's §2.1 "2% overhead" path. Optimization
    // (1) of §2.1: a real deployment aborts the transfer mid-stream, so the
    // payload bytes are not actually carried; we track them as savings.
    ++duplicates_;
    aborted_bytes_ += msg.payload_bytes;
    rt_.report_aborted_transfer(from, self_, msg.payload_bytes);
    // Even a redundant arrival can satisfy a relayed clique pull (the record
    // may have outlived its GC'd payload).
    if (!clique_pending_.empty()) {
      serve_clique_waiters(msg.id, msg.inject_time,
                           static_cast<std::uint32_t>(msg.payload_bytes));
    }
    return;
  }
  // First real payload (a record may exist but be a liar's undelivered
  // plant — accept_message promotes it in place).
  accept_message(msg.id, msg.inject_time, msg.payload_bytes, from,
                 msg.via_tree ? DeliveryPath::kTree : DeliveryPath::kPull);
}

// ---------------------------------------------------------------------------
// Gossip
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void DisseminationT<RT>::on_gossip_timer() {
  if (collusion_defenses() && group_ == kDefaultGroup &&
      rt_.now() - cover_sweep_at_ >= kCoverWindow) {
    cover_sweep_at_ = rt_.now();
    cover_sweep();
  }
  if (params_.adaptive_gossip) {
    // Back off while idle (no IDs waiting for any neighbor).
    bool idle = true;
    for (const auto& [peer, ids] : pending_) {
      if (!ids.empty()) {
        idle = false;
        break;
      }
    }
    if (idle) {
      gossip_timer_.set_period(std::min(
          gossip_timer_.period() * kGossipBackoff,
          params_.gossip_period_max));
    } else {
      gossip_timer_.set_period(params_.gossip_period);
    }
  }
  if (rotation_.empty()) return;
  if (rotation_idx_ >= rotation_.size()) rotation_idx_ = 0;
  NodeId target = rotation_[rotation_idx_];
  rotation_idx_ = (rotation_idx_ + 1) % rotation_.size();

  if (suspicion_defenses() && suspicion_score(target) >= kSuspicionThreshold) {
    // Skip past suspects in the rotation while an unsuspected neighbor
    // exists; if every neighbor is suspect, gossip to the original pick
    // anyway (starving the whole rotation would only hurt ourselves).
    for (std::size_t i = 0; i + 1 < rotation_.size(); ++i) {
      NodeId candidate = rotation_[rotation_idx_];
      rotation_idx_ = (rotation_idx_ + 1) % rotation_.size();
      if (suspicion_score(candidate) < kSuspicionThreshold) {
        target = candidate;
        break;
      }
    }
  }

  drain_backlog(target);
  if (digest_buf_.empty() && params_.skip_empty_gossips) return;

  ++gossips_sent_;
  digest_entries_sent_ += digest_buf_.size();
  rt_.send(self_, target,
           rt_.template make<GossipDigestMsg>(
               digest_buf_, piggyback_members(), overlay_.my_degrees(),
               group_));

  if (suspicion_defenses()) maybe_challenge(target);
}

template <runtime::Context RT>
const std::vector<DigestEntry>& DisseminationT<RT>::collect_digest_for(
    NodeId target) {
  // The same backlog drain the private gossip timer performs, minus the
  // send: the node-level multiplexer packs the result into one grouped
  // gossip alongside the other co-subscribed groups' sections. Gossip
  // MESSAGE counts are node-level in mux mode; entry counts stay per-group.
  drain_backlog(target);
  digest_entries_sent_ += digest_buf_.size();
  return digest_buf_;
}

template <runtime::Context RT>
void DisseminationT<RT>::drain_backlog(NodeId target) {
  // A digest-liar advertises every record it knows of, including the fake
  // payload-less ones it planted on hearing other digests.
  const bool advertise_unheld = behavior_ != nullptr && behavior_->digest_liar;
  digest_buf_.clear();
  auto pending_it = pending_.find(target);
  if (pending_it == pending_.end() || pending_it->second.empty()) return;
  digest_buf_.reserve(pending_it->second.size());
  for (MsgId id : pending_it->second) {
    const std::uint32_t pos = store_.find(id);
    if (pos == MessageStore::kNone) continue;
    if (!advertise_unheld && !store_.payload_held(pos)) continue;
    digest_buf_.push_back(DigestEntry{id, store_.meta(pos).inject_time});
  }
  pending_it->second.clear();  // keeps capacity for the next burst
}

template <runtime::Context RT>
const std::vector<membership::MemberEntry>&
DisseminationT<RT>::piggyback_members() {
  std::vector<membership::MemberEntry>& members = piggyback_buf_;
  members.clear();

  // Our own (fresh) entry always rides along; it carries our landmark
  // vector, which keeps proximity estimates flowing through the system.
  membership::MemberEntry self_entry;
  self_entry.id = self_;
  self_entry.landmark_rtt = own_landmarks_;
  self_entry.heard_at = rt_.now();
  members.push_back(self_entry);

  if (behavior_ != nullptr && behavior_->eclipse &&
      behavior_->roster != nullptr && !behavior_->roster->empty()) {
    // Eclipse attack on the join path: the piggyback slots are flooded with
    // fellow ring members carrying OUR landmark vector (a fabricated "they
    // are all right here" claim), so a joiner integrating these gossips
    // fills its candidate set — and then its C_rand slots — with the ring.
    const std::vector<NodeId>& ring = *behavior_->roster;
    for (std::size_t i = 0; i < kPiggybackMembers; ++i) {
      NodeId peer = ring[eclipse_idx_ % ring.size()];
      eclipse_idx_ = (eclipse_idx_ + 1) % ring.size();
      if (peer == self_) {
        peer = ring[eclipse_idx_ % ring.size()];
        eclipse_idx_ = (eclipse_idx_ + 1) % ring.size();
        if (peer == self_) continue;  // degenerate one-member ring
      }
      membership::MemberEntry entry;
      entry.id = peer;
      entry.landmark_rtt = own_landmarks_;
      entry.heard_at = rt_.now();
      members.push_back(entry);
    }
    return members;
  }

  if (view_.empty()) return members;
  for (std::size_t i = 0; i < kPiggybackMembers; ++i) {
    // With-replacement picks: O(1) per gossip; duplicates are harmless.
    members.push_back(view_.entry_at(
        static_cast<std::size_t>(rng_.next_below(view_.size()))));
  }
  return members;
}

template <runtime::Context RT>
void DisseminationT<RT>::on_gossip_digest(NodeId from,
                                          const GossipDigestMsg& msg) {
  if (collusion_defenses()) {
    // Join-path defenses: advertiser-attributed merge, capped per source.
    view_.integrate_from(from, msg.members, membership::kMaxNewPerSource);
  } else {
    view_.integrate(msg.members);
  }
  if (!active_) return;

  if (suspicion_defenses() && msg.entries.size() > kMaxDigestEntries) {
    // No honest backlog produces digests this large at our message rates;
    // treat the flood as hostile and drop it whole.
    raise_suspicion(from, kSuspicionIncrement);
    return;
  }

  process_digest_entries(from, msg.entries.data(), msg.entries.size());
}

template <runtime::Context RT>
void DisseminationT<RT>::on_grouped_digest(NodeId from,
                                           const DigestEntry* entries,
                                           std::size_t count) {
  if (!active_) return;
  if (suspicion_defenses() && count > kMaxDigestEntries) {
    raise_suspicion(from, kSuspicionIncrement);
    return;
  }
  process_digest_entries(from, entries, count);
}

template <runtime::Context RT>
void DisseminationT<RT>::process_digest_entries(NodeId from,
                                                const DigestEntry* entries,
                                                std::size_t count) {
  SimTime now = rt_.now();

  if (collusion_defenses() && group_ == kDefaultGroup && count > 0) {
    // Advertising ids is volunteered work regardless of whether we already
    // hold them — only genuinely silent neighbors accumulate cover evidence.
    cover_state(from).volunteered += static_cast<std::uint32_t>(count);
  }

  if (behavior_ != nullptr && behavior_->digest_liar) {
    // The liar never pulls: it plants a payload-less record for every id it
    // hears and re-queues the id for all other neighbors, so it wins
    // advertisement races while holding nothing it could ever serve.
    for (std::size_t i = 0; i < count; ++i) {
      const DigestEntry& entry = entries[i];
      remove_from_pending(from, entry.id);
      if (!store_.plant(entry.id, entry.inject_time, now)) continue;
      for (NodeId peer : rotation_) {
        if (peer != from) pending_[peer].push_back(entry.id);
      }
    }
    return;
  }

  for (std::size_t i = 0; i < count; ++i) {
    const DigestEntry& entry = entries[i];
    if (suspicion_defenses()) {
      if (entry.inject_time > now + 1e-9) {
        // Injection times are sender-reported; one from the future is a
        // fabrication by construction.
        raise_suspicion(from, kSuspicionIncrement);
        continue;
      }
      if (entry.id.origin == self_ && entry.id.seq >= next_seq_) {
        // An id in our own namespace that we never assigned: forged.
        raise_suspicion(from, kSuspicionIncrement);
        continue;
      }
    }

    // The peer evidently knows this message: never gossip it back.
    remove_from_pending(from, entry.id);

    if (store_.contains(entry.id)) continue;
    if (pull_pending_.count(entry.id) > 0) {
      // Pull already in flight; remember the alternate source so a retry
      // can escalate away from a non-answering target.
      if (suspicion_defenses()) note_advertiser(entry.id, from);
      continue;
    }
    pull_pending_[entry.id] = PullState{now, from, 0};

    // Pull-delay threshold f: give the tree a head start before pulling.
    SimTime age = now - entry.inject_time;
    SimTime delay = std::max(0.0, params_.pull_delay_threshold - age);
    if (delay <= 0.0) {
      issue_pull(from, entry.id);
    } else {
      rt_.schedule_after(delay, [this, from, id = entry.id] {
        if (store_.contains(id)) {
          end_pull(id);  // the tree won the race
          return;
        }
        if (!rt_.alive(self_)) return;
        issue_pull(from, id);
      });
    }
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::issue_pull(NodeId target, MsgId id) {
  if (!active_) return;  // a pull-delay callback outlived a group leave
  ++pulls_sent_;
  rt_.send(self_, target,
           rt_.template make<PullRequestMsg>(id, overlay_.my_degrees(),
                                             group_));
  schedule_pull_retry(id);
}

template <runtime::Context RT>
void DisseminationT<RT>::schedule_pull_retry(MsgId id) {
  // Self-driven retries: a lost pull request or a lost response must not
  // orphan the message (each neighbor advertises an ID only once). Each
  // retry waits exponentially longer, with uniform multiplicative jitter so
  // a burst loss does not re-synchronize every recovering node. The jitter
  // draws come from a dedicated stream: enabling or exhausting retries never
  // perturbs the piggyback-sampling sequence.
  auto it = pull_pending_.find(id);
  if (it == pull_pending_.end()) return;
  SimTime delay = kPullRetryTimeout *
                  std::pow(kPullRetryBackoff, it->second.attempts);
  delay *= 1.0 + kPullRetryJitter * retry_rng_.next_unit();
  rt_.schedule_after(delay, [this, id] { on_pull_retry_timeout(id); });
}

template <runtime::Context RT>
void DisseminationT<RT>::end_pull(MsgId id) {
  pull_pending_.erase(id);
  if (!pull_advertisers_.empty()) pull_advertisers_.erase(id);
}

template <runtime::Context RT>
void DisseminationT<RT>::on_pull_retry_timeout(MsgId id) {
  auto it = pull_pending_.find(id);
  if (it == pull_pending_.end()) return;  // satisfied
  if (store_.contains(id) || !rt_.alive(self_)) {
    end_pull(id);
    return;
  }
  // The target was asked and produced nothing within the timeout — the one
  // observable every pull-serving adversary (digest liar, mute forwarder,
  // crashed peer) has in common.
  if (suspicion_defenses()) {
    raise_suspicion(it->second.target, kSuspicionIncrement);
  }

  if (++it->second.attempts >= kPullMaxAttempts) {
    // Budget burned; a future digest may re-trigger the recovery.
    ++pull_retries_exhausted_;
    end_pull(id);
    return;
  }
  NodeId target = it->second.target;
  if (suspicion_defenses()) {
    target = pick_escalation_target(id, target);
    it->second.target = target;
  }
  issue_pull(target, id);
}

template <runtime::Context RT>
void DisseminationT<RT>::on_pull_request(NodeId from, const PullRequestMsg& msg) {
  if (!active_) return;
  // Mute forwarders relay nothing they did not originate; digest liars
  // advertised payloads they never held. Either way the requester's pull
  // times out — except for the adversary's own multicasts, which the
  // free-rider model still wants delivered.
  const bool adversarial =
      behavior_ != nullptr &&
      (behavior_->mute_forwarder || behavior_->digest_liar);
  const bool colluding = behavior_ != nullptr && behavior_->clique != 0;
  for (MsgId id : msg.ids) {
    if (adversarial && id.origin != self_) continue;
    const std::uint32_t pos = store_.find(id);
    if (pos == MessageStore::kNone || !store_.payload_held(pos)) {
      // A clique member never lets a pull die: what it cannot serve itself
      // it relays to a clique peer and answers once the payload arrives —
      // the "answer challenge audits on each other's behalf" channel.
      if (colluding) relay_pull(from, id);
      continue;
    }
    const MessageTable::Entry& meta = store_.meta(pos);
    rt_.send(self_, from,
             rt_.template make<DataMsg>(id, meta.inject_time,
                                        meta.payload_bytes,
                                        /*via_tree=*/false,
                                        overlay_.my_degrees(), group_));
  }
}

// ---------------------------------------------------------------------------
// Suspicion (DESIGN.md §9)
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void DisseminationT<RT>::raise_suspicion(NodeId peer, double increment) {
  // Collusion: evidence against a fellow clique/ring member is suppressed —
  // a colluder never suspects, deprioritizes, or evicts its own.
  if (behavior_ != nullptr && behavior_->colludes_with(peer)) return;
  SimTime now = rt_.now();
  auto& st = suspicion_ledger_->scores[peer];
  if (st.score > 0.0 && now > st.updated) {
    st.score *= std::exp2(-(now - st.updated) / kSuspicionHalflife);
  }
  st.score += increment;
  st.updated = now;

  if (st.score >= kSuspicionThreshold) {
    // Reset before evicting: the eviction answers the accumulated evidence,
    // and the blacklist keeps the peer away while the slate is clean.
    st.score = 0.0;
    if (overlay_.evict_neighbor(peer, kBlacklistDuration)) {
      suspicion_ledger_->evictions.push_back(Eviction{peer, now});
      GOCAST_DEBUG("node " << self_ << " evicted suspect " << peer << " at "
                           << now);
    }
  }
}

template <runtime::Context RT>
double DisseminationT<RT>::suspicion_score(NodeId peer) const {
  auto it = suspicion_ledger_->scores.find(peer);
  if (it == suspicion_ledger_->scores.end()) return 0.0;
  SimTime now = rt_.now();
  double score = it->second.score;
  if (score > 0.0 && now > it->second.updated) {
    score *= std::exp2(-(now - it->second.updated) / kSuspicionHalflife);
  }
  return score;
}

template <runtime::Context RT>
void DisseminationT<RT>::check_parent_silence() {
  // A tree parent is obligated to push every message down, so a parent that
  // stays data-silent while deliveries keep arriving by other paths is the
  // other observable signature of a mute forwarder (its empty digests look
  // legitimate to us, because tree children also send us empty digests).
  // Changing parents resets the clock: a fresh link gets a full window of
  // grace before silence counts.
  NodeId parent = tree_->parent();
  SimTime now = rt_.now();
  if (parent != watched_parent_) {
    watched_parent_ = parent;
    last_parent_data_ = now;
    return;
  }
  if (parent == kInvalidNode || parent == self_) return;
  if (now - last_parent_data_ > kSilenceWindow) {
    raise_suspicion(parent, kSuspicionIncrement);
    last_parent_data_ = now;  // one offense per silent window
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::maybe_challenge(NodeId target) {
  // Every gossip to a neighbor doubles as a spot-check: pull a message old
  // enough that every honest live node must still hold it (older than
  // kAuditMinAge, younger than the payload-retention bound kAuditMaxAge).
  // An honest neighbor answers and the duplicate transfer aborts after the
  // header; mute forwarders and digest liars refuse pulls for foreign ids,
  // time out, and take a heavier suspicion hit than a routine offense.
  SimTime now = rt_.now();
  while (recent_head_ < recent_ids_.size() &&
         now - recent_ids_[recent_head_].first > kAuditMaxAge) {
    ++recent_head_;
  }
  if (recent_head_ > 1024) {
    // Compact the consumed prefix so the ring does not grow unboundedly.
    recent_ids_.erase(recent_ids_.begin(),
                      recent_ids_.begin() +
                          static_cast<std::ptrdiff_t>(recent_head_));
    recent_head_ = 0;
  }
  if (recent_head_ >= recent_ids_.size()) return;
  const auto& [received_at, id] = recent_ids_[recent_head_];
  if (now - received_at < kAuditMinAge) return;  // nothing old enough

  const std::uint64_t epoch = ++audit_epoch_;
  auto [pending, inserted] = audit_pending_.try_emplace(id, AuditProbe{target, epoch});
  (void)pending;
  if (!inserted) return;  // this id is already probing another neighbor
  ++audits_sent_;
  rt_.send(self_, target,
           rt_.template make<PullRequestMsg>(id, overlay_.my_degrees(),
                                             group_));
  rt_.schedule_after(kPullRetryTimeout, [this, target, id, epoch] {
    auto it = audit_pending_.find(id);
    // The epoch check pins the timeout to ITS challenge: after the original
    // probe was answered, a later probe may reuse the same (id, target) pair
    // and must not be failed by this stale timer.
    if (it == audit_pending_.end() || it->second.target != target ||
        it->second.epoch != epoch) {
      return;
    }
    audit_pending_.erase(it);
    if (!rt_.alive(self_)) return;
    raise_suspicion(target, kAuditIncrement);
  });
}

template <runtime::Context RT>
SuspicionLedger::CoverState& DisseminationT<RT>::cover_state(NodeId peer) {
  auto [it, fresh] = suspicion_ledger_->cover.try_emplace(peer);
  if (fresh) {
    it->second.window_start = rt_.now();
    it->second.deliveries_at_start = deliveries_;
  }
  return it->second;
}

template <runtime::Context RT>
void DisseminationT<RT>::cover_sweep() {
  // Clique-aware eviction (DESIGN.md §9). The per-offense channels above are
  // defeated by collusion: an answered audit wipes the answerer's score, and
  // clique members always answer (relaying to each other when needed). The
  // contribution signature cannot be faked away, though — a free-rider that
  // keeps answering pulls provably holds traffic, yet volunteers none of it.
  // Strikes are deliberately NOT reset by answered audits (an answer proves
  // liveness, not contribution); volunteering anything resets them. Windows
  // with too few deliveries carry forward instead of striking, so idle
  // periods and fresh joins accumulate no false evidence.
  SimTime now = rt_.now();
  std::vector<NodeId> flagged;
  for (NodeId peer : rotation_) {
    // Colluders never turn the detector on their own clique.
    if (behavior_ != nullptr && behavior_->colludes_with(peer)) continue;
    auto it = suspicion_ledger_->cover.find(peer);
    if (it == suspicion_ledger_->cover.end()) continue;  // never active
    SuspicionLedger::CoverState& cs = it->second;
    if (now - cs.window_start < kCoverWindow) {
      // Partial window (state created mid-interval, e.g. by a pull answer
      // from a fresh neighbor): no verdict, and no reset — the window keeps
      // accumulating until it spans a full sweep interval.
      continue;
    }
    if (deliveries_ - cs.deliveries_at_start < kCoverMinDeliveries) {
      continue;  // quiet window: no verdict either way
    }
    // Tree parents/children legitimately send us empty digests (they learn
    // everything from us or push via the tree); parents are covered by the
    // suspect_silent watch instead.
    const bool exempt =
        params_.use_tree && tree_ != nullptr && tree_->is_tree_neighbor(peer);
    if (!exempt && cs.volunteered == 0 && cs.served >= 1) {
      ++cs.strikes;
      flagged.push_back(peer);
    } else if (cs.volunteered > 0 && cs.strikes > 0) {
      // Volunteering clears a strike: an honest neighbor that answered an
      // escalated or audit pull while momentarily having nothing new to
      // advertise must not ratchet toward eviction. Free-riders never
      // volunteer, so their strikes only ever climb.
      --cs.strikes;
    } else if (cs.volunteered > 0) {
      cs.strikes = 0;
    }
    cs.window_start = now;
    cs.deliveries_at_start = deliveries_;
    cs.volunteered = 0;
    cs.served = 0;
  }
  if (flagged.size() >= 3) {
    // Correlated cover: several neighbors showing the same all-service
    // no-contribution signature in the same window is the clique pattern —
    // each gains a bonus strike. Two simultaneous flags are common honest
    // noise (e.g. both briefly deprioritizing us over a decaying suspicion
    // score); three or more is the coordinated signature.
    for (NodeId peer : flagged) ++suspicion_ledger_->cover[peer].strikes;
  }
  for (NodeId peer : flagged) {
    SuspicionLedger::CoverState& cs = suspicion_ledger_->cover[peer];
    if (cs.strikes < kCoverStrikeLimit) continue;
    cs.strikes = 0;
    if (overlay_.evict_neighbor(peer, kBlacklistDuration)) {
      ++cover_evictions_;
      suspicion_ledger_->evictions.push_back(Eviction{peer, now});
      GOCAST_DEBUG("node " << self_ << " cover-evicted " << peer << " at "
                           << now);
    }
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::relay_pull(NodeId requester, MsgId id) {
  if (behavior_ == nullptr || behavior_->roster == nullptr) return;
  const std::vector<NodeId>& ring = *behavior_->roster;
  if (ring.empty()) return;
  // Bounded parking lot: a flood of unanswerable pulls must not grow state.
  if (clique_pending_.count(id) == 0 && clique_pending_.size() >= 64) return;
  std::vector<NodeId>& waiters = clique_pending_[id];
  if (std::find(waiters.begin(), waiters.end(), requester) == waiters.end()) {
    waiters.push_back(requester);
  }
  for (std::size_t i = 0; i < ring.size(); ++i) {
    NodeId peer = ring[clique_relay_idx_ % ring.size()];
    clique_relay_idx_ = (clique_relay_idx_ + 1) % ring.size();
    if (peer == self_ || !rt_.alive(peer)) continue;
    ++pulls_sent_;
    rt_.send(self_, peer,
             rt_.template make<PullRequestMsg>(id, overlay_.my_degrees(),
                                               group_));
    break;
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::serve_clique_waiters(MsgId id, SimTime inject_time,
                                              std::uint32_t payload_bytes) {
  auto it = clique_pending_.find(id);
  if (it == clique_pending_.end()) return;
  for (NodeId requester : it->second) {
    rt_.send(self_, requester,
             rt_.template make<DataMsg>(id, inject_time, payload_bytes,
                                        /*via_tree=*/false,
                                        overlay_.my_degrees(), group_));
  }
  clique_pending_.erase(it);
}

template <runtime::Context RT>
void DisseminationT<RT>::note_advertiser(MsgId id, NodeId peer) {
  auto it = pull_pending_.find(id);
  if (it == pull_pending_.end()) return;
  if (peer == it->second.target) return;
  std::vector<NodeId>& advertisers = pull_advertisers_[id];
  if (std::find(advertisers.begin(), advertisers.end(), peer) ==
      advertisers.end()) {
    advertisers.push_back(peer);
  }
}

template <runtime::Context RT>
NodeId DisseminationT<RT>::pick_escalation_target(MsgId id,
                                                  NodeId current) const {
  // Lowest suspicion wins; strict less-than keeps the earliest-recorded
  // advertiser on ties, so the choice is deterministic.
  auto it = pull_advertisers_.find(id);
  if (it == pull_advertisers_.end()) return current;
  NodeId best = kInvalidNode;
  double best_score = 0.0;
  for (NodeId candidate : it->second) {
    if (candidate == current) continue;
    double score = suspicion_score(candidate);
    if (best == kInvalidNode || score < best_score) {
      best = candidate;
      best_score = score;
    }
  }
  return best == kInvalidNode ? current : best;
}

template <runtime::Context RT>
void DisseminationT<RT>::remove_from_pending(NodeId neighbor, MsgId id) {
  auto it = pending_.find(neighbor);
  if (it == pending_.end()) return;
  auto& vec = it->second;
  auto pos = std::find(vec.begin(), vec.end(), id);
  if (pos != vec.end()) {
    *pos = vec.back();
    vec.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Partition-heal re-advertisement
// ---------------------------------------------------------------------------

template <runtime::Context RT>
std::size_t DisseminationT<RT>::readvertise_recent() {
  // Messages whose payload is still held are exactly those younger than the
  // waiting period b — the ones the other side of a healed partition can
  // still pull. Re-queue each for every current neighbor, in id order; dedup
  // against the slot so a neighbor already waiting for the ID is not
  // advertised twice.
  const std::vector<MsgId> held = store_.held_ids();
  std::size_t requeued = 0;
  for (MsgId id : held) {
    bool queued = false;
    for (NodeId peer : rotation_) {
      std::vector<MsgId>& slot = pending_[peer];
      if (std::find(slot.begin(), slot.end(), id) != slot.end()) continue;
      slot.push_back(id);
      queued = true;
    }
    if (queued) ++requeued;
  }
  readvertised_ids_ += requeued;
  return requeued;
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

template <runtime::Context RT>
std::size_t DisseminationT<RT>::payloads_older_than(SimTime age) const {
  return store_.payloads_older_than(rt_.now(), age);
}

template <runtime::Context RT>
std::size_t DisseminationT<RT>::records_older_than(SimTime age) const {
  return store_.records_older_than(rt_.now(), age);
}

template <runtime::Context RT>
void DisseminationT<RT>::gc_sweep() {
  SimTime now = rt_.now();
  store_.gc(now, params_.gc_payload_after, params_.gc_record_after);
  for (auto it = pull_pending_.begin(); it != pull_pending_.end();) {
    if (now - it->second.started > params_.gc_payload_after) {
      if (!pull_advertisers_.empty()) pull_advertisers_.erase(it->first);
      it = pull_pending_.erase(it);
    } else {
      ++it;
    }
  }
  // A burst leaves each backlog at its peak capacity, and draining keeps
  // it: give back the buffers of the ones that are empty now.
  for (auto& [peer, ids] : pending_) {
    if (ids.empty()) std::vector<MsgId>().swap(ids);
  }
}

template <runtime::Context RT>
std::size_t DisseminationT<RT>::backlog_capacity() const {
  std::size_t ids = 0;
  for (const auto& [peer, backlog] : pending_) ids += backlog.capacity();
  return ids;
}

// ---------------------------------------------------------------------------
// Overlay listener
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void DisseminationT<RT>::set_gossip_peers(const std::vector<NodeId>& peers) {
  // Departed peers first, through the same path an overlay neighbor loss
  // takes (it drops their backlogs).
  for (std::size_t i = rotation_.size(); i-- > 0;) {
    NodeId peer = rotation_[i];
    if (std::find(peers.begin(), peers.end(), peer) == peers.end()) {
      on_neighbor_removed(peer);
    }
  }
  std::vector<MsgId> held;  // filled lazily on the first genuinely new peer
  for (NodeId peer : peers) {
    if (peer == self_) continue;
    if (std::find(rotation_.begin(), rotation_.end(), peer) !=
        rotation_.end()) {
      continue;
    }
    rotation_.push_back(peer);
    // A fresh peer may have missed everything we still hold: queue the held
    // ids, in id order, so the next digest to it advertises them.
    if (held.empty()) held = store_.held_ids();
    std::vector<MsgId>& slot = pending_[peer];
    for (MsgId id : held) {
      if (std::find(slot.begin(), slot.end(), id) == slot.end()) {
        slot.push_back(id);
      }
    }
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::on_neighbor_added(NodeId peer, overlay::LinkKind kind) {
  (void)kind;
  if (std::find(rotation_.begin(), rotation_.end(), peer) == rotation_.end()) {
    rotation_.push_back(peer);
  }
}

template <runtime::Context RT>
void DisseminationT<RT>::on_neighbor_removed(NodeId peer) {
  auto it = std::find(rotation_.begin(), rotation_.end(), peer);
  if (it != rotation_.end()) {
    std::size_t idx = static_cast<std::size_t>(it - rotation_.begin());
    rotation_.erase(it);
    if (rotation_idx_ > idx) --rotation_idx_;
  }
  if (collusion_defenses()) suspicion_ledger_->cover.erase(peer);
  pending_.erase(peer);
}

template <runtime::Context RT>
DisseminationMemory DisseminationT<RT>::memory() const {
  DisseminationMemory m;
  m.store = store_.memory_bytes();

  m.backlog = pending_.memory_bytes() + backlog_capacity() * sizeof(MsgId);

  m.pulls = pull_pending_.memory_bytes() + pull_advertisers_.memory_bytes();
  for (const auto& [id, advertisers] : pull_advertisers_) {
    m.pulls += advertisers.capacity() * sizeof(NodeId);
  }

  // A shared (node-global) suspicion ledger is accounted once by its owner,
  // not once per group.
  m.other = (suspicion_ledger_ == &own_suspicion_
                 ? own_suspicion_.memory_bytes()
                 : 0) +
            audit_pending_.memory_bytes() + clique_pending_.memory_bytes() +
            retry_rng_.memory_bytes() + rotation_.capacity() * sizeof(NodeId) +
            recent_ids_.capacity() * sizeof(std::pair<SimTime, MsgId>) +
            piggyback_buf_.capacity() * sizeof(membership::MemberEntry) +
            digest_buf_.capacity() * sizeof(DigestEntry);
  for (const auto& [id, waiters] : clique_pending_) {
    m.other += waiters.capacity() * sizeof(NodeId);
  }
  return m;
}

template class DisseminationT<runtime::SimRuntime>;
template class DisseminationT<runtime::UdpContext>;

}  // namespace gocast::core
