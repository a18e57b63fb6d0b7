// Simulation binding of the runtime seam (see runtime/context.h).
//
// A SimRuntime is bound to one node (its owner): the owner's shard engine,
// the simulated network and the owner's id, and every method is an inline
// forward. Protocol classes instantiated over it compile to the same code
// they did when they held `sim::Engine&` / `net::Network&` members directly:
// no virtual dispatch, no extra indirection, nothing for the optimizer to
// chew through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "net/endpoint.h"
#include "net/message.h"
#include "net/network.h"
#include "runtime/context.h"
#include "sim/engine.h"

namespace gocast::runtime {

class SimRuntime final {
 public:
  using TimerId = sim::EventId;
  [[nodiscard]] static constexpr sim::EventId invalid_timer() {
    return sim::kInvalidEvent;
  }

  /// Schedules on the owner's shard engine and tags every timer with the
  /// owner's next ordering key, so timer pop order is shard-count-invariant
  /// (DESIGN.md §11).
  SimRuntime(net::Network& network, NodeId owner)
      : engine_(&network.engine_of(owner)),
        network_(&network),
        owner_(owner) {}

  [[nodiscard]] SimTime now() const { return engine_->now(); }

  TimerId schedule_after(SimTime delay, sim::InlineCallback cb) {
    GOCAST_ASSERT_MSG(delay >= 0.0, "negative delay " << delay);
    return engine_->schedule_at_ordered(engine_->now() + delay,
                                        network_->next_order_key(owner_),
                                        std::move(cb));
  }

  bool cancel(TimerId id) { return engine_->cancel(id); }

  void send(NodeId from, NodeId to, net::MessagePtr msg) {
    network_->send(from, to, std::move(msg));
  }

  void send_multi(NodeId from, const NodeId* targets, std::size_t count,
                  NodeId except, net::MessagePtr msg) {
    network_->send_multi(from, targets, count, except, std::move(msg));
  }

  template <class M, class... Args>
  [[nodiscard]] std::shared_ptr<const M> make(Args&&... args) {
    return network_->make_for<M>(owner_, std::forward<Args>(args)...);
  }

  [[nodiscard]] bool alive(NodeId node) const { return network_->alive(node); }
  [[nodiscard]] std::size_t node_count() const {
    return network_->node_count();
  }
  [[nodiscard]] SimTime rtt(NodeId a, NodeId b) const {
    return network_->rtt(a, b);
  }
  [[nodiscard]] SimTime one_way(NodeId a, NodeId b) const {
    return network_->one_way(a, b);
  }

  void report_aborted_transfer(NodeId from, NodeId to, std::size_t bytes) {
    network_->report_aborted_transfer(from, to, bytes);
  }

  void set_endpoint(NodeId node, net::Endpoint* endpoint) {
    network_->set_endpoint(node, endpoint);
  }

  void fail_node(NodeId node) { network_->fail_node(node); }

  [[nodiscard]] Rng fork_rng(std::uint64_t salt) const {
    return network_->fork_rng(salt);
  }

 private:
  sim::Engine* engine_;
  net::Network* network_;
  NodeId owner_;
};

static_assert(Context<SimRuntime>,
              "SimRuntime must satisfy the runtime Context contract");

}  // namespace gocast::runtime
