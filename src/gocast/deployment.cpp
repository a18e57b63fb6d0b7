#include "gocast/deployment.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/assert.h"
#include "common/logging.h"

namespace gocast::core {

std::shared_ptr<const net::LatencyModel> default_latency_model(
    std::uint64_t seed, std::size_t sites) {
  static std::mutex mutex;
  static std::map<std::pair<std::uint64_t, std::size_t>,
                  std::shared_ptr<const net::LatencyModel>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(seed, sites);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  net::SyntheticKingParams params;
  params.sites = sites;
  auto model = std::shared_ptr<const net::LatencyModel>(
      net::make_synthetic_king(params, Rng(seed).fork("king")));
  cache[key] = model;
  return model;
}

namespace {

/// Contiguous site ranges, cut at cumulative node counts: a site goes to the
/// shard whose share of the n nodes holds the midpoint of its own nodes.
/// Nodes sit on site id mod S (Network::add_nodes_round_robin), so when S
/// does not divide n the low sites hold one node more; cutting by site count
/// would leave the top shard short (at n = 1,024 and S = 1,740 almost
/// empty). Each cut lands within half a site of its ideal place.
std::vector<std::uint32_t> partition_sites(std::size_t sites, std::size_t n,
                                           std::size_t shards) {
  std::vector<std::uint32_t> site_shard(sites);
  std::size_t nodes_before = 0;  // nodes on sites < s
  for (std::size_t s = 0; s < sites; ++s) {
    const std::size_t here = n / sites + (s < n % sites ? 1 : 0);
    site_shard[s] = static_cast<std::uint32_t>(
        std::min(shards - 1, (2 * nodes_before + here) * shards / (2 * n)));
    nodes_before += here;
  }
  return site_shard;
}

}  // namespace

std::vector<std::uint32_t> Deployment::init_sharding(
    const DeploymentConfig& config, const net::LatencyModel& latency) {
  // Only two cases run one shard when more were asked for: a single-site
  // model (nothing to partition) and a partition whose minimum cross-shard
  // latency is below the lookahead floor.
  const std::size_t sites = latency.site_count();
  const std::size_t shards = std::min(config.shard_count, sites);
  std::vector<std::uint32_t> site_shard = partition_sites(
      sites, config.node_count, std::max<std::size_t>(shards, 1));
  if (config.shard_count > 1) {
    const SimTime lookahead =
        shards > 1 ? latency.min_cross_partition_one_way(site_shard) : kNever;
    if (lookahead >= kPdesLookaheadFloor && lookahead != kNever) {
      engine_ = std::make_unique<sim::ShardedEngine>(
          sim::ShardedEngine::Config{shards, lookahead, config.pdes_serial});
      GOCAST_INFO("sharded PDES: "
                  << shards << " shards, lookahead " << lookahead * 1000.0
                  << " ms" << (config.pdes_serial ? " (serial windows)" : ""));
      return site_shard;
    }
    if (shards <= 1) {
      GOCAST_WARN("shard_count " << config.shard_count
                                 << " unsupported on a single-site topology;"
                                    " running one shard");
    } else {
      GOCAST_WARN("shard_count "
                  << config.shard_count
                  << " unsupported with a minimum cross-partition latency of "
                  << lookahead << "s (below the lookahead floor "
                  << kPdesLookaheadFloor << "s); running one shard");
    }
  }
  engine_ = std::make_unique<sim::ShardedEngine>();
  return std::vector<std::uint32_t>(sites, 0);
}

Deployment::Deployment(const DeploymentConfig& config) : rng_(config.seed) {
  GOCAST_ASSERT(config.node_count >= 2);
  std::shared_ptr<const net::LatencyModel> latency =
      config.latency != nullptr ? config.latency
                                : default_latency_model(config.seed);
  const std::vector<std::uint32_t> site_shard =
      init_sharding(config, *latency);
  network_ = std::make_unique<net::Network>(*engine_, std::move(latency),
                                            config.net, rng_.fork("network"));
  network_->add_nodes_round_robin(config.node_count);
  std::vector<std::uint16_t> shard_of(config.node_count);
  for (NodeId id = 0; id < config.node_count; ++id) {
    shard_of[id] =
        static_cast<std::uint16_t>(site_shard[network_->site_of(id)]);
  }
  // Stateless draw seed derived directly from the run seed (not from rng_:
  // the system's own stream must consume exactly as it does with one shard,
  // so barrier-context draws stay byte-identical).
  std::uint64_t state = config.seed ^ 0x70646573'64726177ULL;  // "pdesdraw"
  network_->assign_shards(std::move(shard_of), splitmix64(state));
}

std::vector<NodeId> Deployment::pick_failures(double fraction) {
  GOCAST_ASSERT(fraction >= 0.0 && fraction <= 1.0);
  std::vector<NodeId> alive = alive_nodes();
  Rng fail_rng = rng_.fork("failures");
  fail_rng.shuffle(alive);
  std::size_t count = static_cast<std::size_t>(
      static_cast<double>(alive.size()) * fraction + 0.5);
  GOCAST_INFO("failed " << count << " of " << alive.size() << " nodes");
  alive.resize(count);
  return alive;
}

NodeId Deployment::random_alive_node() {
  GOCAST_ASSERT(network_->alive_count() > 0);
  for (;;) {
    NodeId id = static_cast<NodeId>(rng_.next_below(network_->node_count()));
    if (network_->alive(id)) return id;
  }
}

std::vector<NodeId> Deployment::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(network_->node_count());
  for (NodeId id = 0; id < network_->node_count(); ++id) {
    if (network_->alive(id)) out.push_back(id);
  }
  return out;
}

}  // namespace gocast::core
