// Transport-agnostic delivery interface. Protocol nodes implement Endpoint to
// receive traffic; every runtime backend (the discrete-event simulator's
// net::Network, runtime::UdpRuntime) delivers through it. Lives
// apart from network.h so backends that are not the simulator can depend on
// the delivery contract without pulling in the simulation engine.
#pragma once

#include "common/types.h"
#include "net/message.h"

namespace gocast::net {

/// Interface protocol nodes implement to receive traffic.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// A message from `from` arrived. `from` may have died after sending.
  virtual void handle_message(NodeId from, const MessagePtr& msg) = 0;

  /// TCP-reset analogue: the message sent to `to` could not be delivered
  /// because `to` is dead. Arrives one RTT after the failed send.
  virtual void handle_send_failure(NodeId to, const MessagePtr& msg) {
    (void)to;
    (void)msg;
  }
};

}  // namespace gocast::net
