// Sharded conservative parallel discrete-event simulation (DESIGN.md §11).
//
// K private Engines execute side by side in lookahead windows: whenever the
// globally earliest pending event is at t_next, every shard may safely run all
// events with timestamp < t_next + lookahead, because any event a shard
// executes in that window can only schedule onto ANOTHER shard at
// >= t_next + lookahead (the lookahead is the minimum cross-shard transit
// latency, guaranteed by the caller). Cross-shard admissions travel through
// per-(src,dst) mailboxes; after each window every destination shard moves
// its own inbound column into its engine, so no thread drains for the
// others.
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
// Threading: K-1 persistent workers plus the calling thread (which runs
// shard 0 and fires the controls). Every thread runs the same window loop
// (run_windows): drain its own mailbox column, publish its engine's next
// event time, meet the others at a barrier, compute the next window edge
// from the published times, run its shard up to it, meet again. Nothing
// between two windows is serial except the controls. The barrier is a
// generation counter that threads spin on briefly and then park on
// (std::atomic::wait), so idle workers do not burn a core while the calling
// thread works alone between run_until calls; between the spin and the park
// they yield, so waiting threads do not starve the ones they wait for when
// runnable threads outnumber cores. Each datum handed between threads is
// written before a barrier and read after it, so the structure is TSan-clean
// by construction; `serial` runs every window on the calling thread for
// debugging, with identical results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
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
    /// caller's job to detect and fall back to one shard on
    /// (core::Deployment::init_sharding does).
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
  /// An exception thrown by an event, a drain or a control on any thread
  /// ends the run at the next barrier and is rethrown here (the lowest
  /// shard's first).
  void run_until(SimTime t);

  /// Sum of events processed across shards.
  [[nodiscard]] std::size_t processed() const;
  /// Sum of pending events across shards plus undrained mailbox entries and
  /// pending controls.
  [[nodiscard]] std::size_t pending() const;
  /// Synchronization windows executed so far (barrier count; perf telemetry).
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

  /// Wall-clock split of one shard's thread inside run_until: `busy_s` runs
  /// events, drains mail and fires controls; `barrier_wait_s` waits for the
  /// other shards. Read with steady_clock at each barrier, not per event.
  /// Both stay zero on the single-thread paths (one shard, or `serial`).
  struct ShardTiming {
    double busy_s = 0.0;
    double barrier_wait_s = 0.0;
  };
  [[nodiscard]] ShardTiming timing(std::size_t k) const;

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

  /// What the window loop does next, computed from the earliest pending
  /// shard event, the earliest control and the horizon. Every thread of a
  /// threaded run computes it from the same published inputs.
  struct Step {
    enum class Kind { kWindow, kControl, kTail } kind;
    SimTime at;  ///< window edge, control time, or the horizon (kTail)
  };
  [[nodiscard]] Step next_step(SimTime t_next, SimTime horizon) const;

  /// Generation-counter barrier for the K threads of a threaded run. A
  /// waiting thread spins on the generation, then polls it between
  /// yields, then parks on it with std::atomic::wait. Each arrival may flag
  /// a failure; every party of a generation gets the same OR of those flags
  /// back.
  class Barrier {
   public:
    explicit Barrier(std::uint32_t parties) : parties_(parties) {}
    bool arrive_and_wait(bool failed);

   private:
    const std::uint32_t parties_;
    alignas(64) std::atomic<std::uint32_t> arrived_{0};
    std::atomic<bool> failed_{false};  ///< this generation's arrivals
    /// The last completed generation's failure bit: written by its last
    /// arrival before the generation advances, read by the others after.
    bool outcome_ = false;
    alignas(64) std::atomic<std::uint32_t> generation_{0};
  };

  using Clock = std::chrono::steady_clock;
  /// One thread's slot, written only by that thread (and read by the others
  /// across a barrier). Cache-line aligned so publications do not share
  /// lines.
  struct alignas(64) Lane {
    SimTime next = kNever;  ///< published next-event time of the shard
    Clock::time_point mark{};
    Clock::duration busy{};
    Clock::duration wait{};
    std::exception_ptr error;
  };

  /// Moves every entry of shard k's inbound column outbox_[*][k] into
  /// engine k. Runs on shard k's thread (or in barrier context).
  void drain_column(std::size_t k);
  /// Earliest pending event time across shards (after draining mail).
  [[nodiscard]] SimTime min_next_event() const;
  void run_shard(std::size_t k, SimTime t, bool inclusive);
  /// Fires every control due at `t`, in admission order.
  void fire_controls(SimTime t);
  /// The single-thread window loop (one shard, or `serial`).
  void run_serial(SimTime t);
  /// The threaded window loop, run by the thread of shard k to horizon_.
  void run_windows(std::size_t k);
  /// Runs `work` on shard k's thread, parking an exception in its lane;
  /// returns whether it threw.
  template <typename Work>
  bool guarded(std::size_t k, Work&& work);
  /// Barrier crossing for shard k's thread, with busy/wait accounting.
  /// Returns whether any thread flagged a failure for this crossing.
  bool sync(std::size_t k, bool failed);
  void worker_loop(std::size_t k);

  SimTime now_ = 0.0;
  SimTime lookahead_;
  bool serial_;
  std::uint64_t windows_ = 0;
  std::uint64_t control_seq_ = 0;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// outbox_[src][dst]: filled by shard src's thread during a window (or in
  /// barrier context), drained by shard dst's thread after the next barrier.
  std::vector<std::vector<std::vector<Mail>>> outbox_;
  /// Min-heap on (at, seq); std::push_heap/pop_heap over a vector because
  /// InlineCallback is move-only and priority_queue::top() is const.
  std::vector<Control> controls_;

  // -- threaded runs only (empty / unused when serial_ or shards == 1) --
  std::vector<Lane> lanes_;
  std::unique_ptr<Barrier> barrier_;
  /// Written by the calling thread before it releases the workers.
  SimTime horizon_ = 0.0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gocast::sim
