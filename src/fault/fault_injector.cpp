#include "fault/fault_injector.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "common/logging.h"

namespace gocast::fault {

namespace {

void append_ids(std::string& detail, const std::vector<NodeId>& ids) {
  detail += " [";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) detail += " ";
    detail += std::to_string(ids[i]);
  }
  detail += "]";
}

std::size_t fraction_to_count(double fraction, std::size_t pool) {
  return static_cast<std::size_t>(static_cast<double>(pool) * fraction + 0.5);
}

}  // namespace

FaultInjector::FaultInjector(core::System& system, FaultPlan plan, Rng rng)
    : system_(system),
      plan_(std::move(plan)),
      rng_(std::move(rng)),
      policy_(system.size()) {
  system_.network().set_link_policy(&policy_);
}

FaultInjector::~FaultInjector() { system_.network().set_link_policy(nullptr); }

void FaultInjector::arm() {
  GOCAST_ASSERT_MSG(!armed_, "FaultInjector::arm called twice");
  armed_ = true;
  for (const FaultEvent& event : plan_.events()) {
    GOCAST_ASSERT_MSG(event.at >= system_.now(),
                      "fault event at t=" << event.at << " is in the past");
    // Control events (DESIGN.md §11) fire single-threaded at a window
    // barrier at the exact scripted time, so victim selection and the fault
    // log are shard-count-invariant.
    system_.schedule_control(event.at, [this, event] { apply(event); });
  }
}

std::vector<NodeId> FaultInjector::pick_victims(std::vector<NodeId> pool,
                                                std::size_t count,
                                                const char* what) {
  if (count > pool.size()) {
    GOCAST_WARN("fault '" << what << "' wants " << count << " victims; only "
                          << pool.size() << " eligible — clamped");
    count = pool.size();
  }
  rng_.shuffle(pool);
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

std::vector<NodeId> FaultInjector::dead_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < system_.size(); ++id) {
    if (!system_.network().alive(id)) out.push_back(id);
  }
  return out;
}

void FaultInjector::apply(const FaultEvent& event) {
  std::string detail;
  switch (event.kind) {
    case FaultKind::kCrash:
      apply_crash(event, detail);
      break;
    case FaultKind::kRecover:
      apply_recover(event, detail);
      break;
    case FaultKind::kCrashSite:
      apply_crash_site(event, detail);
      break;
    case FaultKind::kPartition:
      apply_partition(event, detail);
      if (checker_ != nullptr) checker_->set_partition_active(true);
      break;
    case FaultKind::kHeal:
      policy_.heal_partitions();
      detail = "all islands merged";
      if (checker_ != nullptr) checker_->set_partition_active(false);
      break;
    case FaultKind::kDegrade:
      apply_degrade(event, detail);
      break;
    case FaultKind::kRestore:
      policy_.restore();
      detail = "link degradations cleared";
      break;
    case FaultKind::kLoss: {
      system_.network().set_loss_probability(event.loss);
      std::ostringstream s;
      s << "global loss p=" << event.loss;
      detail = s.str();
      break;
    }
    case FaultKind::kMuteForwarder:
    case FaultKind::kDigestLiar:
    case FaultKind::kDegreeLiar:
    case FaultKind::kSlow:
      apply_behavior(event, detail);
      break;
    case FaultKind::kCure:
      apply_cure(event, detail);
      break;
    case FaultKind::kClique:
    case FaultKind::kEclipse:
      apply_collusion(event, detail);
      break;
    case FaultKind::kFlash:
      apply_flash(event, detail);
      break;
    case FaultKind::kSession:
      apply_session(event, detail);
      break;
  }
  if (checker_ != nullptr) checker_->note_disturbance();

  std::ostringstream line;
  line << "t=" << event.at << " " << fault_kind_name(event.kind) << " "
       << detail;
  GOCAST_INFO("fault: " << line.str());
  applied_.push_back(line.str());
}

void FaultInjector::apply_crash(const FaultEvent& event, std::string& detail) {
  std::vector<NodeId> victims;
  if (event.node != kInvalidNode) {
    if (system_.network().alive(event.node)) victims.push_back(event.node);
  } else {
    std::vector<NodeId> alive = system_.alive_nodes();
    std::size_t count = event.count != 0
                            ? event.count
                            : fraction_to_count(event.fraction, alive.size());
    // Never crash the whole system: a fault plan models failures, not
    // shutdown, and downstream phases need at least one live node.
    std::size_t limit = alive.size() > 0 ? alive.size() - 1 : 0;
    if (count > limit) {
      GOCAST_WARN("fault 'crash' wants " << count << " victims; only " << limit
                                         << " can die (one node must survive) "
                                            "— clamped");
      count = limit;
    }
    victims = pick_victims(std::move(alive), count, "crash");
  }
  for (NodeId id : victims) system_.node(id).kill();
  detail = "killed " + std::to_string(victims.size());
  append_ids(detail, victims);
}

void FaultInjector::apply_recover(const FaultEvent& event, std::string& detail) {
  std::vector<NodeId> victims;
  if (event.node != kInvalidNode) {
    if (!system_.network().alive(event.node)) victims.push_back(event.node);
  } else {
    victims = pick_victims(dead_nodes(), event.count, "recover");
  }
  for (NodeId id : victims) system_.revive_node(id);
  detail = "revived " + std::to_string(victims.size());
  append_ids(detail, victims);
}

void FaultInjector::apply_crash_site(const FaultEvent& event,
                                     std::string& detail) {
  std::vector<NodeId> victims;
  for (NodeId id : system_.alive_nodes()) {
    if (system_.network().site_of(id) == event.site) victims.push_back(id);
  }
  // Same guard as apply_crash: leave at least one node alive.
  if (victims.size() >= system_.network().alive_count()) victims.pop_back();
  for (NodeId id : victims) system_.node(id).kill();
  detail = "site " + std::to_string(event.site) + " killed " +
           std::to_string(victims.size());
  append_ids(detail, victims);
}

void FaultInjector::apply_partition(const FaultEvent& event,
                                    std::string& detail) {
  std::vector<NodeId> alive = system_.alive_nodes();
  std::size_t count = event.count != 0
                          ? event.count
                          : fraction_to_count(event.fraction, alive.size());
  std::size_t limit = alive.size() > 0 ? alive.size() - 1 : 0;
  if (count > limit) {
    GOCAST_WARN("fault 'partition' wants " << count << " victims; only "
                                           << limit
                                           << " can leave the main island — "
                                              "clamped");
    count = limit;
  }
  std::vector<NodeId> island = pick_victims(std::move(alive), count, "partition");
  std::uint32_t group = next_group_++;
  for (NodeId id : island) policy_.set_group(id, group);
  detail = "island " + std::to_string(group) + " holds " +
           std::to_string(island.size());
  append_ids(detail, island);
}

void FaultInjector::apply_behavior(const FaultEvent& event,
                                   std::string& detail) {
  std::vector<NodeId> victims;
  if (event.node != kInvalidNode) {
    // Explicit victims stack behaviors (a node can both mute and lie).
    if (system_.network().alive(event.node)) victims.push_back(event.node);
  } else {
    // Random selection draws from alive, currently-honest nodes, so
    // fractions of different behavior kinds afflict disjoint sets.
    std::vector<NodeId> pool;
    for (NodeId id : system_.alive_nodes()) {
      if (system_.node(id).fault_behavior().honest()) pool.push_back(id);
    }
    std::size_t count = event.count != 0
                            ? event.count
                            : fraction_to_count(event.fraction, pool.size());
    victims = pick_victims(std::move(pool), count, fault_kind_name(event.kind));
  }

  for (NodeId id : victims) {
    FaultBehavior behavior = system_.node(id).fault_behavior();
    switch (event.kind) {
      case FaultKind::kMuteForwarder:
        behavior.mute_forwarder = true;
        break;
      case FaultKind::kDigestLiar:
        behavior.digest_liar = true;
        break;
      case FaultKind::kDegreeLiar:
        behavior.degree_liar = true;
        behavior.fake_rand_degree = event.fake_rand_degree;
        behavior.fake_near_degree = event.fake_near_degree;
        break;
      case FaultKind::kSlow:
        behavior.processing_delay = event.delay;
        break;
      default:
        GOCAST_ASSERT_MSG(false, "apply_behavior on non-behavior kind");
    }
    system_.node(id).set_fault_behavior(behavior);
    if (checker_ != nullptr) checker_->mark_adversary(id, true);
    auto pos = std::lower_bound(adversaries_.begin(), adversaries_.end(), id);
    if (pos == adversaries_.end() || *pos != id) adversaries_.insert(pos, id);
  }

  std::ostringstream s;
  s << "afflicted " << victims.size();
  if (event.kind == FaultKind::kSlow) s << " delay=" << event.delay;
  if (event.kind == FaultKind::kDegreeLiar) {
    s << " rand=" << event.fake_rand_degree
      << " near=" << event.fake_near_degree;
  }
  detail = s.str();
  append_ids(detail, victims);
}

void FaultInjector::apply_cure(const FaultEvent& event, std::string& detail) {
  std::vector<NodeId> cured;
  if (event.node != kInvalidNode) {
    if (!system_.node(event.node).fault_behavior().honest()) {
      cured.push_back(event.node);
    }
  } else {
    cured = adversaries_;  // every current victim, already sorted
  }
  for (NodeId id : cured) {
    system_.node(id).set_fault_behavior(FaultBehavior{});
    if (checker_ != nullptr) checker_->mark_adversary(id, false);
    auto pos = std::lower_bound(adversaries_.begin(), adversaries_.end(), id);
    if (pos != adversaries_.end() && *pos == id) adversaries_.erase(pos);
    auto cpos = std::lower_bound(colluders_.begin(), colluders_.end(), id);
    if (cpos != colluders_.end() && *cpos == id) colluders_.erase(cpos);
  }
  detail = "cured " + std::to_string(cured.size());
  append_ids(detail, cured);
}

void FaultInjector::apply_collusion(const FaultEvent& event,
                                    std::string& detail) {
  // Coordinated adversaries draw from alive, currently-honest nodes, like
  // independent behaviors — clique and eclipse groups afflict disjoint sets.
  std::vector<NodeId> pool;
  for (NodeId id : system_.alive_nodes()) {
    if (system_.node(id).fault_behavior().honest()) pool.push_back(id);
  }
  std::size_t count = event.count != 0
                          ? event.count
                          : fraction_to_count(event.fraction, pool.size());
  std::vector<NodeId> victims =
      pick_victims(std::move(pool), count, fault_kind_name(event.kind));

  rosters_.push_back(std::make_unique<std::vector<NodeId>>(victims));
  const std::vector<NodeId>* roster = rosters_.back().get();
  std::uint32_t clique_id = next_clique_++;
  for (NodeId id : victims) {
    FaultBehavior behavior = system_.node(id).fault_behavior();
    if (event.kind == FaultKind::kClique) {
      behavior.clique = clique_id;
    } else {
      behavior.eclipse = true;
    }
    behavior.roster = roster;
    system_.node(id).set_fault_behavior(behavior);
    if (checker_ != nullptr) checker_->mark_adversary(id, true);
    auto pos = std::lower_bound(adversaries_.begin(), adversaries_.end(), id);
    if (pos == adversaries_.end() || *pos != id) adversaries_.insert(pos, id);
    auto cpos = std::lower_bound(colluders_.begin(), colluders_.end(), id);
    if (cpos == colluders_.end() || *cpos != id) colluders_.insert(cpos, id);
  }

  detail = std::string(event.kind == FaultKind::kClique ? "clique " : "ring ") +
           std::to_string(clique_id) + " holds " +
           std::to_string(victims.size());
  append_ids(detail, victims);
}

NodeId FaultInjector::join_one() {
  NodeId id = system_.spawn_next();
  if (id == kInvalidNode) {
    // Deferred pool exhausted: rejoin a random previously-crashed node.
    std::vector<NodeId> dead = dead_nodes();
    if (dead.empty()) return kInvalidNode;
    id = dead[rng_.next_below(dead.size())];
    system_.revive_node(id);
  }
  ++joins_;
  if (checker_ != nullptr) checker_->note_disturbance();
  if (join_hook_) join_hook_(id, system_.now());
  return id;
}

void FaultInjector::apply_flash(const FaultEvent& event, std::string& detail) {
  std::size_t joined_now = 0;
  for (std::size_t i = 0; i < event.count; ++i) {
    SimTime when =
        event.ramp > 0.0 && event.count > 1
            ? event.at + event.ramp * static_cast<double>(i) /
                             static_cast<double>(event.count - 1)
            : event.at;
    if (when <= system_.now()) {
      if (join_one() != kInvalidNode) ++joined_now;
    } else {
      system_.schedule_control(when, [this] { (void)join_one(); });
    }
  }
  std::ostringstream s;
  s << "n=" << event.count << " ramp=" << event.ramp << " immediate="
    << joined_now;
  detail = s.str();
}

void FaultInjector::apply_session(const FaultEvent& event,
                                  std::string& detail) {
  SessionModel::Params params =
      SessionModel::from_spec(event.dist, event.shape, event.scale);
  // Each session event gets its own named child stream, so adding one never
  // perturbs the victim draws of other events.
  sessions_.push_back(std::make_unique<SessionModel>(
      std::move(params),
      rng_.fork("session").fork(static_cast<std::uint64_t>(sessions_.size()))));
  SessionModel* model = sessions_.back().get();

  std::size_t arrivals = 0;
  const double step = 1.0 / event.rate;
  auto arrive = [this, model] {
    NodeId id = join_one();
    if (id == kInvalidNode) return;
    // The node leaves when its sampled session expires. Keep a small
    // population floor alive so downstream phases always have a system.
    const double session = model->sample();
    system_.schedule_control(system_.now() + session, [this, id] {
      if (!system_.network().alive(id)) return;
      if (system_.network().alive_count() <= 4) return;
      system_.node(id).kill();
      if (checker_ != nullptr) checker_->note_disturbance();
    });
  };
  for (SimTime when = event.at; when < event.until; when += step) {
    ++arrivals;
    if (when <= system_.now()) {
      arrive();
    } else {
      system_.schedule_control(when, arrive);
    }
  }

  std::ostringstream s;
  s << "dist=" << event.dist << " rate=" << event.rate
    << " until=" << event.until << " arrivals=" << arrivals;
  detail = s.str();
}

void FaultInjector::apply_degrade(const FaultEvent& event,
                                  std::string& detail) {
  Degradation degradation;
  degradation.latency_multiplier = event.latency_multiplier;
  degradation.jitter = event.jitter;
  degradation.loss = event.loss;
  std::ostringstream s;
  s << "mult=" << event.latency_multiplier << " jitter=" << event.jitter
    << " loss=" << event.loss;
  if (event.fraction > 0.0) {
    std::vector<NodeId> alive = system_.alive_nodes();
    std::size_t count = fraction_to_count(event.fraction, alive.size());
    std::vector<NodeId> victims = pick_victims(std::move(alive), count, "degrade");
    for (NodeId id : victims) policy_.degrade_node(id, degradation);
    s << " on links of " << victims.size() << " nodes";
    detail = s.str();
    append_ids(detail, victims);
  } else {
    policy_.degrade_all(degradation);
    s << " on all links";
    detail = s.str();
  }
}

}  // namespace gocast::fault
