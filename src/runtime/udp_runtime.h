// UDP binding of the runtime seam (see runtime/context.h): the live
// Context backend next to the simulator's, crossing process (and host)
// boundaries.
//
// One UdpRuntime hosts ONE protocol node (config.self) behind one
// non-blocking UDP socket driven by an epoll reactor. Messages are framed
// by the wire codec (src/wire/codec.h) — encode straight into a reusable
// arena-backed frame buffer, sendto(), and on the far side decode straight
// into pooled messages. The timer wheel is a sim::Engine reused as a
// deadline heap anchored to the wall clock; the reactor loop sleeps in
// epoll_wait until the earlier of "next timer deadline" and "datagram
// arrived", so timers and I/O interleave on one thread and protocol code
// needs no locking. Several runtimes can share one thread through pump()
// (gocastd's single-process mode, the in-process tests).
//
// The endpoint table maps NodeIds to sockaddrs (--peers in gocastd).
// Send failures surface through net::Endpoint::handle_send_failure the
// same way the simulator delivers them, from two sources:
//   - ICMP unreachable (a crashed peer's kernel refuses the port):
//     harvested from the socket error queue (IP_RECVERR / MSG_ERRQUEUE)
//     and correlated to the most recent message sent to that peer;
//   - EAGAIN/ENOBUFS exhaustion: sendto retried with a short backoff up
//     to config.send_retry_limit, then reported as a failure.
//
// Clock: wall seconds since construction (steady clock), or — when
// config.epoch_unix is set — seconds since that shared epoch, which lets a
// launcher hand every process the same time base so piggybacked age
// estimates line up across the deployment. The epoch offset is read off
// CLOCK_REALTIME once, at construction; after that the clock advances with
// steady_clock in both modes, so it never runs backwards (the message
// store's arrival log and the timer queue rely on that). Ages, not
// absolute instants, cross the wire either way (see wire/codec.h).
//
// Shutdown: watch_stop_flag() points the reactor at an async-signal-safe
// flag; run_for() returns promptly once it is set (signals interrupt
// epoll_wait), after which the owner can keep calling run_for()/poll() to
// drain in-flight traffic before exiting.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <csignal>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/endpoint.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "runtime/context.h"
#include "sim/engine.h"
#include "wire/codec.h"

namespace gocast::runtime {

struct UdpPeerSpec {
  NodeId id = kInvalidNode;
  std::string host;
  std::uint16_t port = 0;
};

struct UdpConfig {
  /// The node this process hosts; every send must originate from it.
  NodeId self = 0;

  std::string listen_host = "127.0.0.1";
  /// 0 binds an ephemeral port (tests); query it with port().
  std::uint16_t listen_port = 0;

  /// Remote endpoint table. An entry for `self` is ignored, so a launcher
  /// can pass the same list to every process.
  std::vector<UdpPeerSpec> peers;

  /// RTT oracle fallback for links the protocol has not measured yet.
  SimTime assumed_rtt = 0.001;

  /// Shared epoch (unix seconds): the clock starts at CLOCK_REALTIME minus
  /// the epoch and then advances with steady_clock. 0 starts it at 0.
  double epoch_unix = 0.0;

  /// sendto() EAGAIN/ENOBUFS retries (50 us backoff each) before the send
  /// is reported as failed.
  int send_retry_limit = 8;

  /// Delay before a send failure is reported back to the endpoint,
  /// mirroring the simulator's one-RTT reset latency.
  SimTime failure_notify_delay = 0.001;

  /// Seed for fork_rng() per-subsystem streams.
  std::uint64_t seed = 1;
};

/// Thrown on socket/bind/epoll setup failure (gocastd maps it to its
/// bind/config-error exit code).
struct UdpSetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class UdpRuntime {
 public:
  struct Stats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t delivered = 0;          ///< frames handed to the endpoint
    std::uint64_t send_failures = 0;      ///< failure notifications scheduled
    std::uint64_t eagain_retries = 0;
    std::uint64_t dropped_dead = 0;       ///< sends while self marked dead
    std::uint64_t dropped_unknown_peer = 0;
    std::uint64_t rejected_frames = 0;    ///< decode rejections, any status
    std::uint64_t rejected_misaddressed = 0;  ///< decoded fine, wrong dst id
    std::uint64_t rejected_unknown_src = 0;   ///< src id not in peer table
    std::uint64_t icmp_unreachable = 0;
    /// Decode rejections by wire::DecodeStatus value.
    std::uint64_t rejects_by_status[wire::kDecodeStatusCount] = {};
  };

  explicit UdpRuntime(UdpConfig config);
  ~UdpRuntime();

  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  /// Registers/overwrites a peer endpoint (tests bind ephemeral ports and
  /// exchange them after construction).
  void add_peer(NodeId id, const std::string& host, std::uint16_t port);

  /// The actually bound UDP port.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] SimTime now() const;

  sim::EventId schedule_after(SimTime delay, sim::InlineCallback cb);
  bool cancel(sim::EventId id) { return queue_.cancel(id); }

  void send(NodeId from, NodeId to, net::MessagePtr msg);

  template <class M, class... Args>
  [[nodiscard]] std::shared_ptr<const M> make(Args&&... args) {
    return net::make_pooled<M>(pool_, std::forward<Args>(args)...);
  }

  /// Liveness is local knowledge only: false for self after fail_node,
  /// true for every registered peer (a UDP runtime cannot observe remote
  /// crashes — the protocol's own suspicion machinery does that).
  [[nodiscard]] bool alive(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const { return peers_.size() + 1; }

  [[nodiscard]] SimTime rtt(NodeId a, NodeId b) const {
    return a == b ? 0.0 : config_.assumed_rtt;
  }
  [[nodiscard]] SimTime one_way(NodeId a, NodeId b) const {
    return rtt(a, b) / 2.0;
  }

  void report_aborted_transfer(NodeId from, NodeId to, std::size_t bytes);

  void set_endpoint(NodeId node, net::Endpoint* endpoint);
  void fail_node(NodeId node);

  [[nodiscard]] Rng fork_rng(std::uint64_t salt) const {
    return base_rng_.fork(salt);
  }

  /// Runs the reactor for `wall_seconds`: fires due timers, sleeps in
  /// epoll_wait until the next deadline or datagram, delivers received
  /// frames, repeats. Returns the number of timer callbacks fired.
  /// Returns early when the watched stop flag becomes set.
  std::size_t run_for(SimTime wall_seconds);

  /// Non-blocking slice: drain the socket and error queue, fire due
  /// timers, return. Lets several runtimes interleave on one thread
  /// (see pump()).
  std::size_t poll();

  /// Points the reactor at an async-signal-safe stop flag (owned by the
  /// caller, set from a signal handler). Null detaches.
  void watch_stop_flag(const volatile std::sig_atomic_t* flag) {
    stop_flag_ = flag;
  }

  [[nodiscard]] std::size_t pending_timers() const { return queue_.pending(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const UdpConfig& config() const { return config_; }
  [[nodiscard]] const net::MessageArena& pool() const { return *pool_; }

 private:
  struct PeerRec {
    std::uint32_t ip = 0;    ///< network byte order
    std::uint16_t port = 0;  ///< network byte order
    /// Most recent message sent to this peer, retained so an ICMP
    /// unreachable can be correlated to a concrete message for
    /// handle_send_failure (UDP reports errors per-destination, not
    /// per-datagram).
    net::MessagePtr last_sent;
  };

  [[nodiscard]] bool stopped() const {
    return stop_flag_ != nullptr && *stop_flag_ != 0;
  }

  void drain_socket();
  void drain_error_queue();
  void notify_send_failure(NodeId to, net::MessagePtr msg);

  UdpConfig config_;
  int fd_ = -1;
  int epfd_ = -1;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point anchor_;
  SimTime anchor_time_ = 0.0;  ///< now() at anchor_
  sim::Engine queue_;
  std::shared_ptr<net::MessageArena> pool_ =
      std::make_shared<net::MessageArena>();
  wire::FrameBuffer frame_;              ///< reusable encode scratch
  std::vector<std::uint8_t> recv_buf_;   ///< one max-size datagram
  std::unordered_map<NodeId, PeerRec> peers_;
  std::unordered_map<std::uint64_t, NodeId> addr_to_node_;  ///< ip:port → id
  net::Endpoint* endpoint_ = nullptr;
  bool alive_ = true;
  Rng base_rng_;
  const volatile std::sig_atomic_t* stop_flag_ = nullptr;
  Stats stats_;
  std::uint64_t aborted_transfer_bytes_ = 0;
};

/// Interleaves `runtimes` on the calling thread for up to `wall_seconds`
/// of wall time, or until `done` returns true (checked after every round);
/// returns done()'s final value. Several runtimes are polled round-robin
/// with a 0.5 ms sleep between rounds; a lone runtime sleeps in its own
/// reactor (run_for) instead, so a one-node process idles in epoll_wait.
bool pump(const std::vector<UdpRuntime*>& runtimes, SimTime wall_seconds,
          const std::function<bool()>& done);

/// Copyable handle over a UdpRuntime — the Context type the protocol
/// templates are instantiated with (mirrors SimRuntime's pointer shape;
/// protocol members store contexts by value).
class UdpContext final {
 public:
  using TimerId = sim::EventId;
  [[nodiscard]] static constexpr sim::EventId invalid_timer() {
    return sim::kInvalidEvent;
  }

  UdpContext(UdpRuntime& rt)  // NOLINT(google-explicit-constructor)
      : rt_(&rt) {}

  [[nodiscard]] SimTime now() const { return rt_->now(); }

  TimerId schedule_after(SimTime delay, sim::InlineCallback cb) {
    return rt_->schedule_after(delay, std::move(cb));
  }
  bool cancel(TimerId id) { return rt_->cancel(id); }

  void send(NodeId from, NodeId to, net::MessagePtr msg) {
    rt_->send(from, to, std::move(msg));
  }

  /// No batched admission over UDP; the fan-out is a plain send() loop.
  void send_multi(NodeId from, const NodeId* targets, std::size_t count,
                  NodeId except, net::MessagePtr msg) {
    for (std::size_t i = 0; i < count; ++i) {
      if (targets[i] != except) rt_->send(from, targets[i], msg);
    }
  }

  template <class M, class... Args>
  [[nodiscard]] std::shared_ptr<const M> make(Args&&... args) {
    return rt_->make<M>(std::forward<Args>(args)...);
  }

  [[nodiscard]] bool alive(NodeId node) const { return rt_->alive(node); }
  [[nodiscard]] std::size_t node_count() const { return rt_->node_count(); }
  [[nodiscard]] SimTime rtt(NodeId a, NodeId b) const { return rt_->rtt(a, b); }
  [[nodiscard]] SimTime one_way(NodeId a, NodeId b) const {
    return rt_->one_way(a, b);
  }

  void report_aborted_transfer(NodeId from, NodeId to, std::size_t bytes) {
    rt_->report_aborted_transfer(from, to, bytes);
  }
  void set_endpoint(NodeId node, net::Endpoint* endpoint) {
    rt_->set_endpoint(node, endpoint);
  }
  void fail_node(NodeId node) { rt_->fail_node(node); }

  [[nodiscard]] Rng fork_rng(std::uint64_t salt) const {
    return rt_->fork_rng(salt);
  }

  [[nodiscard]] UdpRuntime& runtime() { return *rt_; }

 private:
  UdpRuntime* rt_;
};

static_assert(Context<UdpContext>,
              "UdpContext must satisfy the runtime Context contract");

}  // namespace gocast::runtime
