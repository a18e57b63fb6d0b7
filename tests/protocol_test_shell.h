// Minimal node shell for overlay/tree unit tests: wires an OverlayManager
// (and optionally a TreeManager) to the network with a plain dispatcher, so
// protocol layers can be exercised in isolation from the full GoCastNode.
#pragma once

#include <memory>
#include <vector>

#include "membership/partial_view.h"
#include "net/network.h"
#include "overlay/messages.h"
#include "overlay/overlay_manager.h"
#include "tree/messages.h"
#include "tree/tree_manager.h"

namespace gocast::testing {

class ShellNode : public net::Endpoint {
 public:
  ShellNode(NodeId id, net::Network& network, overlay::OverlayParams params,
            bool with_tree = false, tree::TreeParams tree_params = {})
      : id_(id),
        network_(network),
        view_(id, 256, Rng(900 + id)),
        overlay_(id, runtime::SimRuntime(network, id), view_, params,
                 SparseRng(1000 + id)) {
    if (with_tree) {
      tree_ = std::make_unique<tree::TreeManager>(
          id, runtime::SimRuntime(network, id), overlay_, tree_params);
      overlay_.add_listener(tree_.get());
    }
    network.set_endpoint(id, this);
  }

  void handle_message(NodeId from, const net::MessagePtr& msg) override {
    if (const net::PeerDegrees* d = msg->peer_degrees()) {
      overlay_.note_peer_degrees(from, *d);
    }
    switch (msg->packet_type()) {
      case overlay::kPktNeighborRequest:
        overlay_.on_neighbor_request(
            from, static_cast<const overlay::NeighborRequestMsg&>(*msg));
        return;
      case overlay::kPktNeighborAccept:
        overlay_.on_neighbor_accept(
            from, static_cast<const overlay::NeighborAcceptMsg&>(*msg));
        return;
      case overlay::kPktNeighborReject:
        overlay_.on_neighbor_reject(
            from, static_cast<const overlay::NeighborRejectMsg&>(*msg));
        return;
      case overlay::kPktNeighborDrop:
        overlay_.on_neighbor_drop(
            from, static_cast<const overlay::NeighborDropMsg&>(*msg));
        return;
      case overlay::kPktLinkTransfer:
        overlay_.on_link_transfer(
            from, static_cast<const overlay::LinkTransferMsg&>(*msg));
        return;
      case overlay::kPktPing:
        overlay_.on_ping(from, static_cast<const overlay::PingMsg&>(*msg));
        return;
      case overlay::kPktPong:
        overlay_.on_pong(from, static_cast<const overlay::PongMsg&>(*msg));
        return;
      case tree::kPktHeartbeat:
        if (tree_) {
          tree_->on_heartbeat(from, static_cast<const tree::HeartbeatMsg&>(*msg));
        }
        return;
      case tree::kPktChildJoin:
        if (tree_) {
          tree_->on_child_join(from, static_cast<const tree::ChildJoinMsg&>(*msg));
        }
        return;
      case tree::kPktChildLeave:
        if (tree_) {
          tree_->on_child_leave(from,
                                static_cast<const tree::ChildLeaveMsg&>(*msg));
        }
        return;
      default:
        return;
    }
  }

  void handle_send_failure(NodeId to, const net::MessagePtr& msg) override {
    (void)msg;
    overlay_.on_peer_failure(to);
  }

  void seed_member(NodeId other) {
    membership::MemberEntry entry;
    entry.id = other;
    view_.insert(entry);
  }

  NodeId id() const { return id_; }
  membership::PartialView& view() { return view_; }
  overlay::OverlayManager& overlay() { return overlay_; }
  tree::TreeManager& tree() { return *tree_; }
  bool has_tree() const { return tree_ != nullptr; }

 private:
  NodeId id_;
  net::Network& network_;
  membership::PartialView view_;
  overlay::OverlayManager overlay_;
  std::unique_ptr<tree::TreeManager> tree_;
};

/// A tiny cluster of shell nodes on a ring latency model (site i = node i).
class ShellCluster {
 public:
  ShellCluster(std::size_t n, overlay::OverlayParams params,
               bool with_tree = false, tree::TreeParams tree_params = {},
               SimTime max_one_way = 0.08)
      : network_(sharded_,
                 std::make_shared<net::RingLatencyModel>(n, max_one_way),
                 net::NetworkConfig{}, Rng(77)) {
    for (std::size_t i = 0; i < n; ++i) {
      network_.add_node(static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<ShellNode>(
          static_cast<NodeId>(i), network_, params, with_tree, tree_params));
    }
  }

  void seed_full_views() {
    for (auto& node : nodes_) {
      for (auto& other : nodes_) {
        if (other->id() != node->id()) node->seed_member(other->id());
      }
    }
  }

  void start_all() {
    for (auto& node : nodes_) {
      node->overlay().start(0.01 * node->id());
      if (node->has_tree()) node->tree().start(0.01 * node->id());
    }
  }

  sim::Engine& engine() { return sharded_.shard(0); }
  net::Network& network() { return network_; }
  ShellNode& node(NodeId id) { return *nodes_.at(id); }
  std::size_t size() const { return nodes_.size(); }

 private:
  sim::ShardedEngine sharded_;
  net::Network network_;
  std::vector<std::unique_ptr<ShellNode>> nodes_;
};

}  // namespace gocast::testing
