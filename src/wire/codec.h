// Wire codec: version-tagged binary framing for the full GoCast message
// grammar (overlay handshakes, tree control, dissemination, membership).
//
// A frame is one UDP datagram:
//
//   offset  size  field
//   0       2     magic        0x4347 LE ("GC" on the wire)
//   2       1     version      kVersion; unknown versions are rejected
//   3       1     flags        reserved, must be 0
//   4       2     packet type  net::Message::packet_type()
//   6       2     reserved     must be 0
//   8       4     body length  bytes after the header
//   12      4     src          sender endpoint id (NodeId)
//   16      4     dst          destination endpoint id (NodeId)
//   20      ...   body         per-type layout, see PROTOCOL.md "Wire format"
//
// All fields are explicit little-endian fixed width; the layout is flat (no
// varints, no nesting) so per-type bodies are a straight sequence of
// get/put operations. Every message's wire_size() equals the exact frame
// size encode() produces — asserted for the whole grammar by
// tests/test_wire.cpp — so the simulator's traffic accounting matches the
// bytes a real deployment puts on the wire.
//
// Timestamps never cross the wire as absolute values: fields that are
// *instants* on the sender's clock (message inject times, membership
// heard-at stamps) are encoded as non-negative *ages* relative to the
// sender's now and re-anchored to the receiver's now on decode — the
// paper's piggybacked elapsed-time estimate, which also makes frames
// meaningful between hosts whose clocks share no epoch. Durations (RTTs,
// cumulative latencies) are encoded as-is.
//
// decode() hard-rejects truncated, oversized, length-lying, unknown-type,
// unknown-version, and malformed-field frames without allocating
// unbounded memory (payload counts are validated against the actual body
// size before any reservation). Accepted frames construct the message via
// the same pooled allocation path Network::make_for uses: object + control
// block from the arena, variable-length payloads filled in place into
// arena-backed PoolVecs (net::WireDecodeTag constructors) — no
// intermediate copies between the datagram bytes and the final message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "net/message.h"
#include "net/message_pool.h"

namespace gocast::wire {

inline constexpr std::uint16_t kMagic = 0x4347;  // bytes 'G' 'C' on the wire
inline constexpr std::uint8_t kVersion = 1;
/// Version 2 = grouped frames (multi-group multicast): group-scoped bodies
/// (heartbeat, child join/leave, data, gossip digest, pull request) gain a
/// leading u32 group id, and the GroupedGossip type becomes encodable. The
/// encoder picks the lowest version that can carry the message — group-0
/// traffic stays version 1, byte-for-byte identical to pre-multigroup
/// builds — and the decoder accepts both. See PROTOCOL.md "Version policy".
inline constexpr std::uint8_t kVersionGrouped = 2;
inline constexpr std::size_t kHeaderBytes = 20;
static_assert(kHeaderBytes == net::kFrameOverheadBytes,
              "wire_size() overrides assume this frame header size");

/// Largest frame we will encode or accept: the maximum UDP payload over
/// IPv4. Anything larger is rejected on both sides.
inline constexpr std::size_t kMaxFrameBytes = 65507;

/// Frame buffer: arena-backed byte vector (the same slab pool the message
/// objects come from). Reused buffers reach steady state with zero
/// global-allocator traffic.
using FrameBuffer = net::PoolVec<std::uint8_t>;

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,       ///< shorter than the header, or body shorter than claimed
  kBadMagic,        ///< first two bytes are not kMagic
  kBadVersion,      ///< version byte differs from kVersion
  kBadType,         ///< packet type outside the known grammar
  kLengthMismatch,  ///< datagram size != header + claimed body length
  kOversized,       ///< frame larger than kMaxFrameBytes
  kMalformed,       ///< body fields inconsistent (counts, enums, ranges)
};

[[nodiscard]] constexpr const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kLengthMismatch: return "length-mismatch";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kMalformed: return "malformed";
  }
  return "?";
}

inline constexpr std::size_t kDecodeStatusCount = 8;

struct Decoded {
  net::MessagePtr msg;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
};

/// Appends one frame for `msg` to `out` and returns the bytes appended,
/// which always equals msg->wire_size(). Returns 0 without touching `out`
/// when the frame would exceed kMaxFrameBytes or the type is outside the
/// wire grammar.
std::size_t encode(const net::Message& msg, NodeId src, NodeId dst,
                   SimTime now, FrameBuffer& out);

/// Exact frame size encode() would produce (== msg.wire_size()), or 0 for
/// types outside the wire grammar.
[[nodiscard]] std::size_t encoded_size(const net::Message& msg);

/// Parses one datagram. On kOk fills `out` with the pooled message and the
/// header's endpoint ids; on any other status `out.msg` stays null. `now`
/// re-anchors age-encoded timestamps to the local clock. `arena` must be
/// non-null.
DecodeStatus decode(const std::uint8_t* data, std::size_t len,
                    const std::shared_ptr<net::MessageArena>& arena,
                    SimTime now, Decoded& out);

}  // namespace gocast::wire
