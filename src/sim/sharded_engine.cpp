#include "sim/sharded_engine.h"

#include <algorithm>
#include <utility>

namespace gocast::sim {

ShardedEngine::ShardedEngine(Config config)
    : lookahead_(config.lookahead), serial_(config.serial) {
  GOCAST_ASSERT_MSG(config.shards >= 1, "shard count must be >= 1");
  GOCAST_ASSERT_MSG(lookahead_ > 0.0,
                    "non-positive lookahead " << lookahead_
                                              << " (degenerate topology; the "
                                                 "caller must fall back)");
  engines_.reserve(config.shards);
  for (std::size_t k = 0; k < config.shards; ++k) {
    engines_.push_back(std::make_unique<Engine>());
  }
  // resize, not assign: Mail holds a move-only callback, so the vectors are
  // not copy-fillable.
  outbox_.resize(config.shards);
  for (std::vector<std::vector<Mail>>& row : outbox_) row.resize(config.shards);
  if (!serial_ && config.shards > 1) {
    workers_.reserve(config.shards - 1);
    for (std::size_t k = 1; k < config.shards; ++k) {
      workers_.emplace_back([this, k] { worker_loop(k); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& w : workers_) w.join();
  }
}

void ShardedEngine::schedule_control(SimTime t, InlineCallback cb) {
  GOCAST_ASSERT_MSG(t >= now_, "control scheduled into the past: t="
                                   << t << " now=" << now_);
  controls_.push_back(Control{t, control_seq_++, std::move(cb)});
  auto later = [](const Control& a, const Control& b) {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  };
  std::push_heap(controls_.begin(), controls_.end(), later);
}

void ShardedEngine::post(std::size_t src, std::size_t dst, SimTime at,
                         std::uint64_t key, InlineCallback cb) {
  GOCAST_ASSERT(src < outbox_.size() && dst < outbox_.size());
  outbox_[src][dst].push_back(Mail{at, key, std::move(cb)});
}

void ShardedEngine::drain_mail() {
  for (std::vector<std::vector<Mail>>& row : outbox_) {
    for (std::size_t dst = 0; dst < row.size(); ++dst) {
      std::vector<Mail>& box = row[dst];
      if (box.empty()) continue;
      Engine& engine = *engines_[dst];
      for (Mail& m : box) {
        engine.schedule_at_ordered(m.at, m.key, std::move(m.cb));
      }
      box.clear();
    }
  }
}

SimTime ShardedEngine::min_next_event() const {
  SimTime t = kNever;
  for (const std::unique_ptr<Engine>& e : engines_) {
    t = std::min(t, e->next_event_time());
  }
  return t;
}

void ShardedEngine::run_shard(std::size_t k, SimTime t, bool inclusive) {
  if (inclusive) {
    engines_[k]->run_until(t);
  } else {
    engines_[k]->run_before(t);
  }
}

void ShardedEngine::worker_loop(std::size_t k) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime t;
    bool inclusive;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || job_gen_ != seen; });
      if (shutdown_) return;
      seen = job_gen_;
      t = job_time_;
      inclusive = job_inclusive_;
    }
    run_shard(k, t, inclusive);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++done_count_;
    }
    cv_done_.notify_one();
  }
}

void ShardedEngine::parallel_run(SimTime t, bool inclusive) {
  if (workers_.empty()) {
    for (std::size_t k = 0; k < engines_.size(); ++k) {
      run_shard(k, t, inclusive);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_time_ = t;
    job_inclusive_ = inclusive;
    done_count_ = 0;
    ++job_gen_;
  }
  cv_work_.notify_all();
  run_shard(0, t, inclusive);
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return done_count_ == workers_.size(); });
  }
}

void ShardedEngine::run_until(SimTime t) {
  GOCAST_ASSERT_MSG(t >= now_, "run_until into the past: t=" << t
                                                             << " now=" << now_);
  auto later = [](const Control& a, const Control& b) {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  };
  for (;;) {
    drain_mail();
    const SimTime t_next = min_next_event();
    const SimTime t_ctrl = controls_.empty() ? kNever : controls_.front().at;
    if (t_ctrl <= t_next) {
      // No shard event strictly earlier than the control. Advance every
      // shard to the control time with run_before — same-time shard events
      // stay pending, so the control fires ahead of them.
      if (t_ctrl > t) break;
      parallel_run(t_ctrl, /*inclusive=*/false);
      now_ = t_ctrl;
      while (!controls_.empty() && controls_.front().at == t_ctrl) {
        std::pop_heap(controls_.begin(), controls_.end(), later);
        Control c = std::move(controls_.back());
        controls_.pop_back();
        c.cb();
      }
      continue;
    }
    // Conservative window: everything strictly before t_next + lookahead is
    // safe to run concurrently — a cross-shard admission caused by an event
    // at ts lands at >= ts + lookahead >= t_next + lookahead, i.e. beyond
    // the window edge, and waits in the mailbox for the next barrier.
    const SimTime edge = std::min(t_next + lookahead_, t_ctrl);
    if (edge > t) break;
    parallel_run(edge, /*inclusive=*/false);
    now_ = edge;
    ++windows_;
  }
  // Tail: no control remains at <= t, and either no events remain at <= t or
  // every remaining one lies within a single lookahead of the horizon
  // (t_next + lookahead > t), so cross-shard admissions land strictly after
  // t and wait in the mailboxes for the next run_until call. Running every
  // shard inclusively to t is therefore safe and also advances idle shard
  // clocks to the horizon.
  parallel_run(t, /*inclusive=*/true);
  now_ = t;
}

std::size_t ShardedEngine::processed() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Engine>& e : engines_) n += e->processed();
  return n;
}

std::size_t ShardedEngine::pending() const {
  std::size_t n = controls_.size();
  for (const std::unique_ptr<Engine>& e : engines_) n += e->pending();
  for (const std::vector<std::vector<Mail>>& row : outbox_) {
    for (const std::vector<Mail>& box : row) n += box.size();
  }
  return n;
}

std::size_t ShardedEngine::memory_bytes() const {
  std::size_t bytes = controls_.capacity() * sizeof(Control);
  for (const std::unique_ptr<Engine>& e : engines_) {
    bytes += sizeof(Engine) + e->memory_bytes();
  }
  for (const std::vector<std::vector<Mail>>& row : outbox_) {
    for (const std::vector<Mail>& box : row) {
      bytes += box.capacity() * sizeof(Mail);
    }
  }
  return bytes;
}

}  // namespace gocast::sim
