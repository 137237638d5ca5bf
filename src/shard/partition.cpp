#include "shard/partition.hpp"

#include <numeric>

namespace overcount {

ShardPlan::ShardPlan(std::vector<std::uint32_t> owner,
                     std::uint32_t num_shards)
    : owner_(std::move(owner)) {
  OVERCOUNT_EXPECTS(num_shards >= 1);
  nodes_.resize(num_shards);
  // An ascending global-id scan lists each shard's nodes in sorted order.
  for (NodeId v = 0; v < owner_.size(); ++v) {
    const std::uint32_t s = owner_[v];
    OVERCOUNT_EXPECTS(s < num_shards);
    nodes_[s].push_back(v);
  }
}

ShardPlan ShardPlan::contiguous(std::size_t num_nodes, std::uint32_t shards) {
  OVERCOUNT_EXPECTS(shards >= 1);
  std::vector<std::uint32_t> owner(num_nodes);
  const std::size_t base = num_nodes / shards;
  const std::size_t extra = num_nodes % shards;
  std::size_t v = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    for (std::size_t i = 0; i < len; ++i) owner[v++] = s;
  }
  return ShardPlan(std::move(owner), shards);
}

ShardPlan ContiguousRangePartitioner::partition(
    std::size_t num_nodes, const std::function<std::size_t(NodeId)>&,
    std::uint32_t shards) const {
  return ShardPlan::contiguous(num_nodes, shards);
}

ShardPlan DegreeBalancedPartitioner::partition(
    std::size_t num_nodes, const std::function<std::size_t(NodeId)>& degree,
    std::uint32_t shards) const {
  OVERCOUNT_EXPECTS(shards >= 1);
  std::vector<std::uint32_t> owner(num_nodes, 0);
  std::size_t total = 0;
  for (NodeId v = 0; v < num_nodes; ++v) total += degree(v);
  // Greedy prefix cut: close the current shard once its degree share meets
  // the remaining-average target, always leaving at least one node per
  // remaining shard so every shard is non-empty when num_nodes >= shards.
  std::uint32_t s = 0;
  std::size_t carried = 0;
  std::size_t remaining_total = total;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::size_t d = degree(v);
    owner[v] = s;
    carried += d;
    remaining_total -= d;
    const std::uint32_t shards_left = shards - s - 1;
    const std::size_t nodes_left = num_nodes - v - 1;
    if (shards_left == 0) continue;
    const double target = static_cast<double>(carried + remaining_total) /
                          static_cast<double>(shards_left + 1);
    if (static_cast<double>(carried) >= target ||
        nodes_left <= shards_left) {
      ++s;
      carried = 0;
    }
  }
  return ShardPlan(std::move(owner), shards);
}

namespace {

ShardPlan plan_with(std::size_t num_nodes,
                    const std::function<std::size_t(NodeId)>& degree,
                    std::uint32_t shards, const Partitioner& policy) {
  return policy.partition(num_nodes, degree, shards);
}

}  // namespace

ShardPlan make_shard_plan(const Graph& g, std::uint32_t shards,
                          const Partitioner& policy) {
  return plan_with(
      g.num_nodes(), [&](NodeId v) { return g.degree(v); }, shards, policy);
}

ShardPlan make_shard_plan(const Graph& g, std::uint32_t shards) {
  return make_shard_plan(g, shards, ContiguousRangePartitioner{});
}

ShardPlan make_shard_plan(const DynamicGraph& g, std::uint32_t shards,
                          const Partitioner& policy) {
  return plan_with(
      g.num_slots(), [&](NodeId v) { return g.degree(v); }, shards, policy);
}

ShardPlan make_shard_plan(const DynamicGraph& g, std::uint32_t shards) {
  return make_shard_plan(g, shards, ContiguousRangePartitioner{});
}

}  // namespace overcount
