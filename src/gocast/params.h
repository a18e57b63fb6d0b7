// Tunable parameters of the GoCast dissemination layer (paper §2.1) and the
// aggregate per-node configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "membership/landmark_store.h"
#include "overlay/overlay_manager.h"
#include "tree/tree_manager.h"

namespace gocast::core {

struct DisseminationParams {
  /// Gossip period t: every t seconds one overlay neighbor (round-robin)
  /// receives a summary of new message IDs. 0.1 s per the paper (suggested
  /// by Bimodal Multicast).
  SimTime gossip_period = 0.1;

  /// Pull-delay threshold f: delay pulling a message discovered via gossip
  /// until it is at least f seconds old, giving the tree time to deliver it
  /// first. 0 disables the optimization. The paper recommends the 90th
  /// percentile tree delay (0.3 s for 1,024 nodes).
  SimTime pull_delay_threshold = 0.0;

  /// Waiting period b: payload is reclaimed this long after the ID was
  /// gossiped to the last neighbor (two minutes in the paper).
  SimTime gc_payload_after = 120.0;

  /// Message records (IDs) are kept a further period to suppress duplicate
  /// deliveries of stragglers.
  SimTime gc_record_after = 240.0;

  /// How often the garbage collector sweeps the store.
  SimTime gc_sweep_period = 5.0;

  /// Simulated multicast payload size in bytes (traffic accounting only).
  std::size_t payload_bytes = 1024;

  /// False for the gossip-only baselines ("proximity overlay", "random
  /// overlay"): messages then spread exclusively via neighbor gossip pulls.
  bool use_tree = true;

  /// When true, a gossip carrying no message IDs is suppressed ("a gossip
  /// can be saved if there is no multicast message during that period").
  /// Off by default so membership piggybacking keeps flowing.
  bool skip_empty_gossips = false;

  /// The paper: "the gossip period t is dynamically tunable according to
  /// the message rate". When enabled, the period stretches toward
  /// gossip_period_max while no messages flow and snaps back to
  /// gossip_period the moment one arrives.
  bool adaptive_gossip = false;
  SimTime gossip_period_max = 1.0;
};

/// Protocol-level defenses against misbehaving neighbors (DESIGN.md §9), as
/// three cumulative profiles. The tunables are constants next to their
/// consumers (gocast/dissemination.cpp, membership/partial_view.h).
enum class DefenseProfile : std::uint8_t {
  /// The paper's protocol: the honest path is byte-identical to the
  /// undefended simulator.
  kOff,
  /// Per-neighbor suspicion scores (raised by pull-retry timeouts and the
  /// offenses below, decayed exponentially) and their consumers:
  /// - a timed-out pull escalates to the lowest-suspicion alternate
  ///   advertiser of the id instead of re-asking the same peer;
  /// - the gossip round-robin skips suspects while an unsuspected neighbor
  ///   is available;
  /// - crossing the threshold evicts the neighbor from the overlay and
  ///   blacklists it as a candidate;
  /// - digest sanity: oversized digests, future inject times and forged
  ///   ids in our own namespace are offenses;
  /// - parent data-silence watch: a tree parent that pushes nothing for a
  ///   whole silence window while deliveries keep arriving by other paths
  ///   shows the signature of a mute forwarder (digest emptiness is NOT
  ///   evidence: a tree child legitimately sends empty digests forever);
  /// - challenge pulls: every gossip also spot-checks the target with a
  ///   pull for a message every honest live node must still hold; mute
  ///   forwarders and digest liars time out and take a heavier hit. Fresh
  ///   joiners and healed partitions legitimately lack old messages, so
  ///   deployments with heavy churn should stay at kOff.
  kBase,
  /// kBase plus the collusion and join-path defenses:
  /// - cover detection: a neighbor that keeps answering pulls yet
  ///   volunteers nothing (no digest entries, no tree pushes) across whole
  ///   windows with many deliveries is serving as clique cover; strikes
  ///   survive answered audits and evict at a limit (tree neighbors are
  ///   exempt);
  /// - join diversity: each advertiser may insert only a few
  ///   previously-unknown members into the partial view per message, so an
  ///   eclipse attacker cannot flood a joiner's candidate set;
  /// - corroboration: a view entry becomes an overlay candidate only after
  ///   two distinct advertisers vouched for it (bootstrap seeds are
  ///   trusted).
  kFull,
};

/// Everything one GoCast node needs.
struct GoCastConfig {
  overlay::OverlayParams overlay;
  tree::TreeParams tree;
  DisseminationParams dissemination;

  /// Partition-heal recovery (extension; see DESIGN.md §7 and
  /// bench/ext_partition). When a node's tree root cedes to a different root
  /// — the signature of a healed partition — the node re-queues the IDs of
  /// messages younger than the payload waiting period b for one more round
  /// of gossip. Nodes on the other side of the former partition have never
  /// seen those IDs (gossip advertises an ID to each neighbor only once, and
  /// during the partition no link crossed the cut), so without
  /// re-advertisement recovery depends entirely on fresh cross-partition
  /// links happening to carry later digests. Off by default: it adds digest
  /// traffic after root changes and is not part of the paper's protocol.
  bool readvertise_on_heal = false;

  /// Defenses against adversarial neighbors (DESIGN.md §9).
  DefenseProfile defense = DefenseProfile::kOff;

  /// Multi-group digest multiplexing (DESIGN.md §10): when a node subscribes
  /// to several groups, ONE grouped gossip per period carries per-group
  /// digest sections for every group it shares with the target neighbor, so
  /// gossip message count stays O(fanout) instead of O(groups x fanout).
  /// Only consulted once enable_multigroup() is called; single-group nodes
  /// never multiplex and stay byte-identical to the pre-multigroup protocol.
  bool multiplex_gossip = true;

  /// Global landmark node ids used for triangulation estimates.
  std::vector<NodeId> landmarks;

  /// Deployment-wide landmark-vector interning store shared by every node's
  /// partial view (System fills this in; null makes each node intern
  /// privately, which is correct but saves nothing).
  std::shared_ptr<membership::LandmarkStore> landmark_store;
};

}  // namespace gocast::core
