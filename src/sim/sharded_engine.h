// Sharded conservative parallel discrete-event simulation (DESIGN.md §11).
//
// K private Engines execute side by side in lookahead windows: whenever the
// globally earliest pending event is at t_next, every shard may safely run all
// events with timestamp < t_next + lookahead, because any event a shard
// executes in that window can only schedule onto ANOTHER shard at
// >= t_next + lookahead (the lookahead is the minimum cross-shard transit
// latency, guaranteed by the caller). Cross-shard admissions travel through
// per-(src,dst) mailboxes that are drained into the destination engines at the
// window barrier, on the coordinating thread, before the next window begins.
//
// Determinism (the headline contract): mailbox entries carry an explicit
// ordering key supplied by the caller, and land in the destination heap via
// Engine::schedule_at_ordered, so the destination's pop order is a pure
// function of the (time, key) pairs — independent of which window an entry
// arrived in, of worker scheduling, and of K itself. Callers derive keys from
// run-invariant state (per-origin counters; see net::Network::next_order_key)
// so the same seed produces byte-identical event interleavings at any shard
// count.
//
// Controls: simulation-global actions (fault injection, multicast injection,
// probes) run single-threaded at exact global times via schedule_control —
// the window loop advances every shard to the control time (run_before, so
// same-time shard events stay pending), fires the controls in admission
// order, and resumes.
//
// K=1 is the serial run: one shard with an infinite lookahead (kNever), so a
// window spans from one control (or horizon) to the next, with no workers,
// no mailboxes and no barriers. Every simulated run uses this class; there
// is no other event order.
//
// Threading: a persistent pool of K-1 workers plus the calling thread (which
// runs shard 0). All shared state hands over at the barrier mutex, so the
// structure is TSan-clean by construction; `serial` runs every window on the
// calling thread for debugging, with identical results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/inline_callback.h"

namespace gocast::sim {

class ShardedEngine {
 public:
  /// The defaults are the serial run: one shard, infinite lookahead.
  struct Config {
    std::size_t shards = 1;
    /// Minimum cross-shard transit latency (seconds). Every cross-shard
    /// mailbox post must satisfy at >= send_time + lookahead; the window
    /// width is derived from it. Must be > 0 — degenerate topologies are the
    /// caller's job to detect and fall back to one shard on (core::System
    /// does).
    SimTime lookahead = kNever;
    /// Run windows on the calling thread (no worker pool). Identical
    /// results by construction; used by tests to pin threaded == serial.
    bool serial = false;
  };

  ShardedEngine() : ShardedEngine(Config{}) {}
  explicit ShardedEngine(Config config);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return engines_.size(); }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }
  [[nodiscard]] Engine& shard(std::size_t k) { return *engines_[k]; }
  [[nodiscard]] const Engine& shard(std::size_t k) const {
    return *engines_[k];
  }

  /// Global simulated time: the lower edge of the current window. Individual
  /// shard clocks run ahead of this inside a window (never past now() +
  /// lookahead) and all agree with now() at barriers.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules a single-threaded control action at absolute global time `t`
  /// (>= now()). Controls at equal times fire in admission order, before any
  /// shard event with the same timestamp. Barrier context only (never from
  /// inside a shard's event callback).
  void schedule_control(SimTime t, InlineCallback cb);

  /// Posts a cross-shard event: `cb` runs on shard `dst` at time `at` with
  /// ordering key `key` (see Engine::schedule_at_ordered). Safe to call from
  /// shard `src`'s worker during a window, or from barrier context with any
  /// src. `at` must be >= the posting shard's current time + lookahead when
  /// posted from inside a window (the conservative contract; asserted
  /// indirectly by the destination's schedule-into-the-past check).
  void post(std::size_t src, std::size_t dst, SimTime at, std::uint64_t key,
            InlineCallback cb);

  /// Runs every shard up to global time `t` window by window, firing controls
  /// at their exact times. On return all shard clocks and now() equal `t`.
  void run_until(SimTime t);

  /// Sum of events processed across shards.
  [[nodiscard]] std::size_t processed() const;
  /// Sum of pending events across shards plus undrained mailbox entries and
  /// pending controls.
  [[nodiscard]] std::size_t pending() const;
  /// Synchronization windows executed so far (barrier count; perf telemetry).
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

  /// Heap-owned bytes across shard engines and mailboxes (--mem-report).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct Mail {
    SimTime at = 0.0;
    std::uint64_t key = 0;
    InlineCallback cb;
  };
  struct Control {
    SimTime at = 0.0;
    std::uint64_t seq = 0;
    InlineCallback cb;
  };

  /// Moves every outbox entry into its destination engine (barrier context).
  void drain_mail();
  /// Earliest pending event time across shards (after draining mail).
  [[nodiscard]] SimTime min_next_event() const;
  /// Runs every shard to `t` — run_before (exclusive) or run_until
  /// (inclusive) — on the pool, or inline when serial.
  void parallel_run(SimTime t, bool inclusive);
  void run_shard(std::size_t k, SimTime t, bool inclusive);
  void worker_loop(std::size_t k);

  SimTime now_ = 0.0;
  SimTime lookahead_;
  bool serial_;
  std::uint64_t windows_ = 0;
  std::uint64_t control_seq_ = 0;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// outbox_[src][dst]: filled by shard src's thread during a window, drained
  /// by the coordinating thread at the barrier. The barrier mutex orders the
  /// hand-off, so no per-entry synchronization is needed.
  std::vector<std::vector<std::vector<Mail>>> outbox_;
  /// Min-heap on (at, seq); std::push_heap/pop_heap over a vector because
  /// InlineCallback is move-only and priority_queue::top() is const.
  std::vector<Control> controls_;

  // -- worker pool (unused when serial_ or shards == 1) --
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t job_gen_ = 0;
  SimTime job_time_ = 0.0;
  bool job_inclusive_ = false;
  bool shutdown_ = false;
  std::size_t done_count_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace gocast::sim
