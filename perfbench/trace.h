// Traced-run instrumentation, installed from outside the program: a
// forwarding net::Endpoint in front of every node that times each
// handle_message per MsgKind, and a wire sampler that encodes and decodes a
// deterministic sample of the messages actually delivered.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "net/endpoint.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "sim/engine.h"
#include "wire/codec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Encode/decode cost summed over sampled frames.
struct WireTotals {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t failures = 0;

  void merge(const WireTotals& o) {
    frames += o.frames;
    bytes += o.bytes;
    encode_ns += o.encode_ns;
    decode_ns += o.decode_ns;
    failures += o.failures;
  }
};

/// Round-trips sampled frames through the codec. One sampler per thread
/// that delivers messages (per shard in sharded runs), so no locking is
/// needed.
class WireSampler {
 public:
  WireSampler()
      : arena_(std::make_shared<gocast::net::MessageArena>()),
        buf_(gocast::net::PayloadAllocator<std::uint8_t>(arena_)) {}

  /// Round-trips `msg` through the codec and records the cost. A frame
  /// that fails to encode, whose size differs from wire_size(), or that does
  /// not decode kOk counts as a failure (a self-check).
  void sample(const gocast::net::Message& msg, gocast::NodeId src,
              gocast::NodeId dst, gocast::SimTime now) {
    buf_.clear();
    const auto t0 = Clock::now();
    const std::size_t n = gocast::wire::encode(msg, src, dst, now, buf_);
    const auto t1 = Clock::now();
    gocast::wire::Decoded out;
    const gocast::wire::DecodeStatus status =
        n == 0 ? gocast::wire::DecodeStatus::kTruncated
               : gocast::wire::decode(buf_.data(), n, arena_, now, out);
    const auto t2 = Clock::now();
    ++totals.frames;
    totals.bytes += n;
    totals.encode_ns += ns_between(t0, t1);
    totals.decode_ns += ns_between(t1, t2);
    if (n == 0 || n != msg.wire_size() ||
        status != gocast::wire::DecodeStatus::kOk || out.src != src ||
        out.dst != dst) {
      ++totals.failures;
    }
  }

  WireTotals totals;

 private:
  std::shared_ptr<gocast::net::MessageArena> arena_;
  gocast::wire::FrameBuffer buf_;
};

/// Per-kind time and count spent inside the node's handle_message.
struct SpanTotals {
  std::array<std::uint64_t, gocast::net::kMsgKindCount> ns{};
  std::array<std::uint64_t, gocast::net::kMsgKindCount> count{};

  void merge(const SpanTotals& o) {
    for (std::size_t k = 0; k < ns.size(); ++k) {
      ns[k] += o.ns[k];
      count[k] += o.count[k];
    }
  }
};

/// Forwarding endpoint. `engine` is the engine the node runs on (its shard's
/// in sharded runs); every `sample_every`-th message this node receives also
/// goes through the wire sampler (outside the timed span, so it does not
/// inflate it).
class SpanProxy final : public gocast::net::Endpoint {
 public:
  SpanProxy(gocast::NodeId self, gocast::net::Endpoint& inner,
            WireSampler& sampler, const gocast::sim::Engine& engine,
            std::uint32_t sample_every)
      : self_(self),
        inner_(inner),
        sampler_(sampler),
        engine_(engine),
        sample_every_(sample_every) {}

  void handle_message(gocast::NodeId from,
                      const gocast::net::MessagePtr& msg) override {
    if (++seen_ % sample_every_ == 0) {
      sampler_.sample(*msg, from, self_, engine_.now());
    }
    const auto t0 = Clock::now();
    inner_.handle_message(from, msg);
    const auto t1 = Clock::now();
    const auto k = static_cast<std::size_t>(msg->kind());
    totals.ns[k] += ns_between(t0, t1);
    ++totals.count[k];
  }

  void handle_send_failure(gocast::NodeId to,
                           const gocast::net::MessagePtr& msg) override {
    inner_.handle_send_failure(to, msg);
  }

  SpanTotals totals;

 private:
  gocast::NodeId self_;
  gocast::net::Endpoint& inner_;
  WireSampler& sampler_;
  const gocast::sim::Engine& engine_;
  std::uint32_t sample_every_;
  std::uint32_t seen_ = 0;
};

}  // namespace perfbench
