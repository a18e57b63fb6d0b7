// The runtime seam: everything a protocol layer may ask of the substrate
// that carries it.
//
// GoCast's protocol logic (overlay maintenance, tree embedding,
// dissemination, baselines) is written against a *Context* — a clock, a
// timer service, a message transport, pooled message construction, and
// liveness/topology queries — rather than against the discrete-event
// simulator directly. A Context is a compile-time parameter, not a virtual
// interface: each protocol class is a template over its context type and the
// simulation binding (runtime::SimRuntime) is a final class of two pointers
// whose methods are inline forwards, so the simulator hot path keeps the
// exact non-virtual, fully-inlinable call graph it had before the seam
// existed (see DESIGN.md §7). The UDP binding (runtime::UdpContext over
// runtime::UdpRuntime) drives the same protocol code from the wall clock
// over real sockets.
//
// Context contract (checked by the concept below; `make<M>` is a template
// and therefore listed here instead):
//   using TimerId;                       // handle to a pending one-shot
//   static TimerId invalid_timer();      // sentinel handle
//   SimTime now() const;                 // seconds on this runtime's clock
//   TimerId schedule_after(SimTime d, sim::InlineCallback cb);
//   bool cancel(TimerId id);
//   void send(NodeId from, NodeId to, net::MessagePtr msg);
//   void send_multi(NodeId from, const NodeId* targets, std::size_t count,
//                   NodeId except, net::MessagePtr msg);
//       // fan-out of one message to targets[0..count) except `except`
//       // (kInvalidNode = nobody), in index order; semantically identical to
//       // the equivalent send() loop, but backends may batch the admissions
//   std::shared_ptr<const M> make<M>(Args&&...);   // pooled construction
//   bool alive(NodeId) const;            // node liveness
//   std::size_t node_count() const;      // registered nodes (baselines)
//   SimTime rtt(a, b) / one_way(a, b);   // link-latency oracle/estimate
//   void report_aborted_transfer(from, to, bytes);
//   void set_endpoint(NodeId, net::Endpoint*);     // delivery callback
//   void fail_node(NodeId);              // crash semantics (kill path)
//   Rng fork_rng(std::uint64_t salt);    // per-node deterministic streams
//
// Timestamps are SimTime seconds in both backends: simulated seconds on the
// event engine, wall-clock seconds (since construction or a shared epoch)
// on the UDP backend. Timer callbacks must fit sim::InlineCallback's inline
// capacity — the seam never heap-allocates for a schedule.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "net/endpoint.h"
#include "net/message.h"
#include "sim/inline_callback.h"
#include "sim/timer.h"

namespace gocast::runtime {

/// Compile-time check that a type implements the Context contract. Backends
/// static_assert it; protocol templates constrain on it so a missing method
/// fails at the seam, not three instantiation layers deep.
template <class RT>
concept Context = requires(RT rt, const RT crt, NodeId n, SimTime t,
                           net::MessagePtr msg, sim::InlineCallback cb,
                           typename RT::TimerId id, std::size_t bytes,
                           std::uint64_t salt) {
  { crt.now() } -> std::convertible_to<SimTime>;
  { rt.schedule_after(t, std::move(cb)) } -> std::same_as<typename RT::TimerId>;
  { rt.cancel(id) } -> std::same_as<bool>;
  { RT::invalid_timer() } -> std::same_as<typename RT::TimerId>;
  rt.send(n, n, std::move(msg));
  rt.send_multi(n, static_cast<const NodeId*>(nullptr), bytes, n,
                std::move(msg));
  { crt.alive(n) } -> std::same_as<bool>;
  { crt.node_count() } -> std::convertible_to<std::size_t>;
  { crt.rtt(n, n) } -> std::convertible_to<SimTime>;
  { crt.one_way(n, n) } -> std::convertible_to<SimTime>;
  rt.report_aborted_transfer(n, n, bytes);
  rt.set_endpoint(n, static_cast<net::Endpoint*>(nullptr));
  rt.fail_node(n);
  { crt.fork_rng(salt) } -> std::same_as<Rng>;
};

/// Periodic timer over a runtime context (maintenance cycles, gossip ticks,
/// heartbeats, GC sweeps). Same InlineCallback-backed implementation as the
/// engine-direct sim::PeriodicTimer.
template <class RT>
using PeriodicTimer = sim::BasicPeriodicTimer<RT>;

}  // namespace gocast::runtime
