// Dissemination wire protocol: multicast payloads, gossip digests, pulls.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "membership/member_entry.h"
#include "net/message.h"
#include "net/message_pool.h"

namespace gocast::core {

inline constexpr int kPktData = 300;
inline constexpr int kPktGossipDigest = 301;
inline constexpr int kPktPullRequest = 302;
inline constexpr int kPktGroupedGossip = 303;

/// Extra wire bytes a non-default group id costs. Group-0 (single-group)
/// frames omit the field entirely, keeping them byte-identical to the
/// pre-multigroup protocol — the determinism goldens depend on this.
[[nodiscard]] constexpr std::size_t group_wire_size(GroupId group) {
  return group == kDefaultGroup ? 0 : 4;
}

/// A multicast message (payload is simulated by its size). `inject_time`
/// implements the paper's piggybacked elapsed-time estimate: messages carry
/// the accumulated time since injection so receivers can apply the
/// pull-delay threshold f. (The simulator's shared clock makes the estimate
/// exact; the paper builds it by summing per-hop delays.)
struct DataMsg final : net::Message {
  DataMsg(MsgId id, SimTime inject_time, std::size_t payload_bytes,
          bool via_tree, net::PeerDegrees degrees,
          GroupId group = kDefaultGroup)
      : net::Message(net::MsgKind::kData, kPktData),
        id(id),
        inject_time(inject_time),
        payload_bytes(payload_bytes),
        via_tree(via_tree),
        group(group),
        degrees(degrees) {}

  MsgId id;
  SimTime inject_time;
  std::size_t payload_bytes;
  bool via_tree;  ///< pushed along a tree link (vs. sent as a pull response)
  GroupId group;  ///< destination group (kDefaultGroup: single-group traffic)
  net::PeerDegrees degrees;

  /// Frame + {id 8, age f64 8, payload_len 4, via_tree 1, degrees 8}
  /// [+ group 4 when non-default] + payload.
  [[nodiscard]] std::size_t wire_size() const override {
    return net::kFrameOverheadBytes + 21 + net::PeerDegrees::wire_size() +
           group_wire_size(group) + payload_bytes;
  }
  [[nodiscard]] const net::PeerDegrees* peer_degrees() const override {
    return &degrees;
  }
};

struct DigestEntry {
  MsgId id;
  SimTime inject_time;

  [[nodiscard]] static constexpr std::size_t wire_size() { return 12; }
};

/// The gossip: IDs of messages received or started since the last gossip to
/// this neighbor (minus those heard from it), plus piggybacked membership.
struct GossipDigestMsg final : net::Message {
  /// Pool-backed construction (Network::make_for passes the arena): the digest
  /// and member payload vectors are carved from the message pool, so a
  /// steady-state gossip performs no global-allocator calls at all.
  GossipDigestMsg(const std::shared_ptr<net::MessageArena>& arena,
                  const std::vector<DigestEntry>& entries_in,
                  const std::vector<membership::MemberEntry>& members_in,
                  net::PeerDegrees degrees, GroupId group = kDefaultGroup)
      : net::Message(net::MsgKind::kGossipDigest, kPktGossipDigest),
        entries(entries_in.begin(), entries_in.end(),
                net::PayloadAllocator<DigestEntry>(arena)),
        members(members_in.begin(), members_in.end(),
                net::PayloadAllocator<membership::MemberEntry>(arena)),
        group(group),
        degrees(degrees) {}

  /// Arena-less construction (tests, direct use): global allocator.
  GossipDigestMsg(const std::vector<DigestEntry>& entries_in,
                  const std::vector<membership::MemberEntry>& members_in,
                  net::PeerDegrees degrees, GroupId group = kDefaultGroup)
      : GossipDigestMsg(nullptr, entries_in, members_in, degrees, group) {}

  /// Wire-codec construction: empty pooled payloads, filled in place by
  /// wire::decode while parsing the frame.
  GossipDigestMsg(net::WireDecodeTag,
                  const std::shared_ptr<net::MessageArena>& arena,
                  net::PeerDegrees degrees, GroupId group = kDefaultGroup)
      : net::Message(net::MsgKind::kGossipDigest, kPktGossipDigest),
        entries(net::PayloadAllocator<DigestEntry>(arena)),
        members(net::PayloadAllocator<membership::MemberEntry>(arena)),
        group(group),
        degrees(degrees) {}

  // Arena-backed payloads: iterate in place or COPY out (copies detach to the
  // global allocator via PayloadAllocator); never move a PoolVec out.
  net::PoolVec<DigestEntry> entries;
  net::PoolVec<membership::MemberEntry> members;
  GroupId group;  ///< which group's digests these are
  net::PeerDegrees degrees;

  /// Frame + {n_entries 4, n_members 4, degrees 8}
  /// [+ group 4 when non-default] + payload tables.
  [[nodiscard]] std::size_t wire_size() const override {
    return net::kFrameOverheadBytes + 8 + net::PeerDegrees::wire_size() +
           group_wire_size(group) +
           entries.size() * DigestEntry::wire_size() +
           members.size() * membership::MemberEntry::wire_size();
  }
  [[nodiscard]] const net::PeerDegrees* peer_degrees() const override {
    return &degrees;
  }
};

/// Request for messages whose IDs were learned from a gossip.
struct PullRequestMsg final : net::Message {
  /// Pool-backed single-id pull (the common case: one pull per missing
  /// message) — no temporary vector, no global-allocator call.
  PullRequestMsg(const std::shared_ptr<net::MessageArena>& arena, MsgId id,
                 net::PeerDegrees degrees, GroupId group = kDefaultGroup)
      : net::Message(net::MsgKind::kPullRequest, kPktPullRequest),
        ids(1, id, net::PayloadAllocator<MsgId>(arena)),
        group(group),
        degrees(degrees) {}

  /// Arena-less construction (tests, direct use): global allocator.
  PullRequestMsg(const std::vector<MsgId>& ids_in, net::PeerDegrees degrees,
                 GroupId group = kDefaultGroup)
      : net::Message(net::MsgKind::kPullRequest, kPktPullRequest),
        ids(ids_in.begin(), ids_in.end(), net::PayloadAllocator<MsgId>()),
        group(group),
        degrees(degrees) {}

  /// Wire-codec construction: empty pooled id list, filled in place.
  PullRequestMsg(net::WireDecodeTag,
                 const std::shared_ptr<net::MessageArena>& arena,
                 net::PeerDegrees degrees, GroupId group = kDefaultGroup)
      : net::Message(net::MsgKind::kPullRequest, kPktPullRequest),
        ids(net::PayloadAllocator<MsgId>(arena)),
        group(group),
        degrees(degrees) {}

  // Arena-backed payload: iterate in place or COPY out; never move it out.
  net::PoolVec<MsgId> ids;
  GroupId group;  ///< group whose store should answer this pull
  net::PeerDegrees degrees;

  /// Frame + {n_ids 4, degrees 8} [+ group 4 when non-default] + 8/id.
  [[nodiscard]] std::size_t wire_size() const override {
    return net::kFrameOverheadBytes + 4 + net::PeerDegrees::wire_size() +
           group_wire_size(group) + ids.size() * 8;
  }
  [[nodiscard]] const net::PeerDegrees* peer_degrees() const override {
    return &degrees;
  }
};

/// One digest section of a multiplexed gossip: `count` DigestEntry rows of
/// the flat entry table belong to `group`.
struct GroupSection {
  GroupId group = kDefaultGroup;
  std::uint32_t count = 0;

  friend bool operator==(const GroupSection&, const GroupSection&) = default;
  [[nodiscard]] static constexpr std::size_t wire_size() { return 8; }
};

/// Multiplexed gossip for multi-group nodes: ONE message to a neighbor
/// carries per-group digest sections for every group both endpoints
/// subscribe to, so gossip message count stays O(fanout) per node instead of
/// O(groups x fanout). `entries` is a flat table partitioned by `sections`
/// (section i owns the next sections[i].count rows). Membership piggyback
/// stays group-agnostic — the membership plane is shared. Wire: this type is
/// version-2 only (it does not exist in the v1 grammar).
struct GroupedGossipMsg final : net::Message {
  /// Pool-backed construction (Network::make_for passes the arena).
  GroupedGossipMsg(const std::shared_ptr<net::MessageArena>& arena,
                   const std::vector<GroupSection>& sections_in,
                   const std::vector<DigestEntry>& entries_in,
                   const std::vector<membership::MemberEntry>& members_in,
                   net::PeerDegrees degrees)
      : net::Message(net::MsgKind::kGossipDigest, kPktGroupedGossip),
        sections(sections_in.begin(), sections_in.end(),
                 net::PayloadAllocator<GroupSection>(arena)),
        entries(entries_in.begin(), entries_in.end(),
                net::PayloadAllocator<DigestEntry>(arena)),
        members(members_in.begin(), members_in.end(),
                net::PayloadAllocator<membership::MemberEntry>(arena)),
        degrees(degrees) {}

  /// Arena-less construction (tests, direct use): global allocator.
  GroupedGossipMsg(const std::vector<GroupSection>& sections_in,
                   const std::vector<DigestEntry>& entries_in,
                   const std::vector<membership::MemberEntry>& members_in,
                   net::PeerDegrees degrees)
      : GroupedGossipMsg(nullptr, sections_in, entries_in, members_in,
                         degrees) {}

  /// Wire-codec construction: empty pooled payloads, filled in place.
  GroupedGossipMsg(net::WireDecodeTag,
                   const std::shared_ptr<net::MessageArena>& arena,
                   net::PeerDegrees degrees)
      : net::Message(net::MsgKind::kGossipDigest, kPktGroupedGossip),
        sections(net::PayloadAllocator<GroupSection>(arena)),
        entries(net::PayloadAllocator<DigestEntry>(arena)),
        members(net::PayloadAllocator<membership::MemberEntry>(arena)),
        degrees(degrees) {}

  // Arena-backed payloads: iterate in place or COPY out; never move them out.
  net::PoolVec<GroupSection> sections;
  net::PoolVec<DigestEntry> entries;  ///< flat, partitioned by `sections`
  net::PoolVec<membership::MemberEntry> members;
  net::PeerDegrees degrees;

  /// Sum of section counts must equal entries.size() for a valid message.
  [[nodiscard]] std::size_t section_entry_total() const {
    std::size_t total = 0;
    for (const GroupSection& s : sections) total += s.count;
    return total;
  }

  /// Frame + {n_sections 4, n_entries 4, n_members 4, degrees 8} + tables.
  [[nodiscard]] std::size_t wire_size() const override {
    return net::kFrameOverheadBytes + 12 + net::PeerDegrees::wire_size() +
           sections.size() * GroupSection::wire_size() +
           entries.size() * DigestEntry::wire_size() +
           members.size() * membership::MemberEntry::wire_size();
  }
  [[nodiscard]] const net::PeerDegrees* peer_degrees() const override {
    return &degrees;
  }
};

}  // namespace gocast::core
