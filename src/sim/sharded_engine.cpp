#include "sim/sharded_engine.h"

#include <algorithm>
#include <utility>

namespace gocast::sim {

namespace {

/// A barrier wait first spins on the CPU for up to kSpinFor, then keeps
/// polling but yields the CPU between polls, and parks once kYieldFor has
/// passed. The spin covers the per-window imbalance of a busy run (a window
/// is tens to hundreds of microseconds of work, and a yield or a park and
/// wake costs microseconds on every crossing); the yields keep a waiting
/// thread from starving the one it waits for when the machine has more
/// runnable threads than cores; parking covers the stretches the calling
/// thread spends alone between run_until calls.
constexpr auto kSpinFor = std::chrono::microseconds(50);
constexpr auto kYieldFor = std::chrono::microseconds(500);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Heap order for controls: a min-heap on (at, seq).
constexpr auto later = [](const auto& a, const auto& b) {
  return a.at > b.at || (a.at == b.at && a.seq > b.seq);
};

}  // namespace

bool ShardedEngine::Barrier::arrive_and_wait(bool failed) {
  // Relaxed is enough: this thread saw the current generation begin (it
  // either completed the previous one or acquired it).
  const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
  if (failed) failed_.store(true, std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arrival: reset for the next generation, then release everyone.
    arrived_.store(0, std::memory_order_relaxed);
    outcome_ = failed_.exchange(false, std::memory_order_relaxed);
    // seq_cst, not just release: the store must be visible before notify
    // reads whether anyone is parked.
    generation_.store(gen + 1, std::memory_order_seq_cst);
    generation_.notify_all();
    return outcome_;
  }
  const auto released = [&] {
    return generation_.load(std::memory_order_acquire) != gen;
  };
  // The clock is read every 64 polls: a read costs about two pauses.
  const Clock::time_point start = Clock::now();
  for (std::uint32_t spin = 1; !released(); ++spin) {
    if (spin % 64 == 0 && Clock::now() - start >= kSpinFor) break;
    cpu_relax();
  }
  while (!released()) {
    if (Clock::now() - start >= kYieldFor) {
      // Park. wait() returns once the value differs from gen (it re-checks
      // under the futex, so a release racing this call is not missed).
      while (!released()) generation_.wait(gen, std::memory_order_acquire);
      break;
    }
    std::this_thread::yield();
  }
  return outcome_;
}

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
    lanes_.resize(config.shards);
    barrier_ =
        std::make_unique<Barrier>(static_cast<std::uint32_t>(config.shards));
    workers_.reserve(config.shards - 1);
    for (std::size_t k = 1; k < config.shards; ++k) {
      workers_.emplace_back([this, k] { worker_loop(k); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    shutdown_ = true;
    barrier_->arrive_and_wait(false);
    for (std::thread& w : workers_) w.join();
  }
}

void ShardedEngine::schedule_control(SimTime t, InlineCallback cb) {
  GOCAST_ASSERT_MSG(t >= now_, "control scheduled into the past: t="
                                   << t << " now=" << now_);
  controls_.push_back(Control{t, control_seq_++, std::move(cb)});
  std::push_heap(controls_.begin(), controls_.end(), later);
}

void ShardedEngine::post(std::size_t src, std::size_t dst, SimTime at,
                         std::uint64_t key, InlineCallback cb) {
  GOCAST_ASSERT(src < outbox_.size() && dst < outbox_.size());
  outbox_[src][dst].push_back(Mail{at, key, std::move(cb)});
}

void ShardedEngine::drain_column(std::size_t k) {
  Engine& engine = *engines_[k];
  for (std::vector<std::vector<Mail>>& row : outbox_) {
    std::vector<Mail>& box = row[k];
    for (Mail& m : box) {
      engine.schedule_at_ordered(m.at, m.key, std::move(m.cb));
    }
    box.clear();
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

void ShardedEngine::fire_controls(SimTime t) {
  while (!controls_.empty() && controls_.front().at == t) {
    std::pop_heap(controls_.begin(), controls_.end(), later);
    Control c = std::move(controls_.back());
    controls_.pop_back();
    c.cb();
  }
}

ShardedEngine::Step ShardedEngine::next_step(SimTime t_next,
                                             SimTime horizon) const {
  const SimTime t_ctrl = controls_.empty() ? kNever : controls_.front().at;
  if (t_ctrl <= t_next) {
    // No shard event strictly earlier than the control. Every shard advances
    // to the control time with run_before — same-time shard events stay
    // pending, so the control fires ahead of them.
    if (t_ctrl > horizon) return {Step::Kind::kTail, horizon};
    return {Step::Kind::kControl, t_ctrl};
  }
  // Conservative window: everything strictly before t_next + lookahead is
  // safe to run concurrently — a cross-shard admission caused by an event at
  // ts lands at >= ts + lookahead >= t_next + lookahead, i.e. beyond the
  // window edge, and waits in the mailbox for the next barrier.
  const SimTime edge = std::min(t_next + lookahead_, t_ctrl);
  if (edge > horizon) return {Step::Kind::kTail, horizon};
  return {Step::Kind::kWindow, edge};
}

// Tail (Step::Kind::kTail): no control remains at <= the horizon, and either
// no events remain at <= it or every remaining one lies within a single
// lookahead of it (t_next + lookahead > horizon), so cross-shard admissions
// land strictly after the horizon and wait in the mailboxes for the next
// run_until call. Running every shard inclusively to the horizon is
// therefore safe and also advances idle shard clocks to it.

void ShardedEngine::run_serial(SimTime t) {
  for (;;) {
    for (std::size_t k = 0; k < engines_.size(); ++k) drain_column(k);
    const Step step = next_step(min_next_event(), t);
    const bool tail = step.kind == Step::Kind::kTail;
    for (std::size_t k = 0; k < engines_.size(); ++k) {
      run_shard(k, step.at, tail);
    }
    if (tail) return;
    now_ = step.at;
    if (step.kind == Step::Kind::kControl) {
      fire_controls(step.at);
    } else {
      ++windows_;
    }
  }
}

template <typename Work>
bool ShardedEngine::guarded(std::size_t k, Work&& work) {
  try {
    work();
    return false;
  } catch (...) {
    if (!lanes_[k].error) lanes_[k].error = std::current_exception();
    return true;
  }
}

bool ShardedEngine::sync(std::size_t k, bool failed) {
  Lane& lane = lanes_[k];
  const Clock::time_point arrived = Clock::now();
  lane.busy += arrived - lane.mark;
  const bool any_failed = barrier_->arrive_and_wait(failed);
  lane.mark = Clock::now();
  lane.wait += lane.mark - arrived;
  return any_failed;
}

void ShardedEngine::run_windows(std::size_t k) {
  Lane& lane = lanes_[k];
  lane.mark = Clock::now();
  bool failed = false;
  for (;;) {
    // Everything the previous step left for this shard — cross-shard mail,
    // and whatever the calling thread scheduled or posted alone (controls,
    // calls between run_until) — is in its engine or its column now, so the
    // published time is fresh.
    failed = guarded(k, [&] { drain_column(k); });
    lane.next = engines_[k]->next_event_time();
    if (sync(k, failed)) break;
    SimTime t_next = kNever;
    for (const Lane& other : lanes_) t_next = std::min(t_next, other.next);
    const Step step = next_step(t_next, horizon_);
    const bool tail = step.kind == Step::Kind::kTail;
    failed = guarded(k, [&] { run_shard(k, step.at, tail); });
    if (tail) break;
    if (sync(k, failed)) break;
    if (step.kind == Step::Kind::kControl) {
      // The workers wait at the barrier while the calling thread fires.
      if (k == 0) {
        now_ = step.at;
        failed = guarded(k, [&] { fire_controls(step.at); });
      }
      if (sync(k, failed)) break;
    } else if (k == 0) {
      now_ = step.at;
      ++windows_;
    }
  }
  // Run end: the calling thread returns only after every shard's tail.
  sync(k, failed);
}

void ShardedEngine::worker_loop(std::size_t k) {
  for (;;) {
    // Parks here between run_until calls.
    barrier_->arrive_and_wait(false);
    if (shutdown_) return;
    run_windows(k);
  }
}

void ShardedEngine::run_until(SimTime t) {
  GOCAST_ASSERT_MSG(t >= now_, "run_until into the past: t=" << t
                                                             << " now=" << now_);
  if (workers_.empty()) {
    run_serial(t);
    now_ = t;
    return;
  }
  horizon_ = t;
  barrier_->arrive_and_wait(false);  // releases the workers
  run_windows(0);
  std::exception_ptr error;
  for (Lane& lane : lanes_) {
    if (!error) error = lane.error;
    lane.error = nullptr;
  }
  if (error) std::rethrow_exception(error);
  now_ = t;
}

ShardedEngine::ShardTiming ShardedEngine::timing(std::size_t k) const {
  if (lanes_.empty()) return {};
  using Seconds = std::chrono::duration<double>;
  return {Seconds(lanes_[k].busy).count(), Seconds(lanes_[k].wait).count()};
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
