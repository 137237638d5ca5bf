// Graph partitioning for the sharded walk engine: which shard owns which
// node. Walk tokens carry global node ids; the owner decides which shard's
// task advances a walk next.
//
// A ShardPlan is an owner assignment node -> shard plus each shard's owned
// nodes in ascending global-id order. Partitioners are pluggable: the
// contiguous node-range partitioner is the first (and cheapest) policy, a
// degree-balanced variant shows the interface carries real alternatives,
// and a future METIS-style min-cut policy slots in without touching the
// engine. Das Sarma et al. (PAPERS.md) only require that every node has
// exactly one owner; the quality of the cut shows up as the handoff rate,
// not as correctness.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"

namespace overcount {

/// Immutable node -> shard assignment; every node has exactly one owner.
class ShardPlan {
 public:
  ShardPlan() = default;

  /// From an explicit owner assignment: owner[v] is the shard of node v and
  /// every value must be < num_shards. Shards may be empty.
  ShardPlan(std::vector<std::uint32_t> owner, std::uint32_t num_shards);

  /// Contiguous node-range plan over `num_nodes` nodes split into `shards`
  /// near-equal ranges (the first num_nodes % shards ranges are one longer).
  static ShardPlan contiguous(std::size_t num_nodes, std::uint32_t shards);

  std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::size_t num_nodes() const noexcept { return owner_.size(); }

  /// Shard owning global node v.
  std::uint32_t shard_of(NodeId v) const {
    OVERCOUNT_EXPECTS(v < owner_.size());
    return owner_[v];
  }

  /// Global ids owned by `shard`, ascending.
  std::span<const NodeId> nodes_of(std::uint32_t shard) const {
    OVERCOUNT_EXPECTS(shard < nodes_.size());
    return nodes_[shard];
  }

 private:
  std::vector<std::uint32_t> owner_;       // node -> shard
  std::vector<std::vector<NodeId>> nodes_; // shard -> owned globals, sorted
};

/// Pluggable partition policy. `degree(v)` exposes the topology's degree so
/// policies can balance load without depending on a concrete graph type
/// (Graph and DynamicGraph both route through it).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual ShardPlan partition(
      std::size_t num_nodes,
      const std::function<std::size_t(NodeId)>& degree,
      std::uint32_t shards) const = 0;
};

/// Splits [0, n) into `shards` near-equal contiguous node ranges. Ignores
/// degrees entirely; the default policy.
class ContiguousRangePartitioner final : public Partitioner {
 public:
  ShardPlan partition(std::size_t num_nodes,
                      const std::function<std::size_t(NodeId)>& degree,
                      std::uint32_t shards) const override;
};

/// Contiguous ranges whose boundaries are chosen so each shard carries a
/// near-equal share of the total degree (greedy prefix cut). On skewed
/// degree sequences this evens out per-shard walk traffic, since a simple
/// random walk visits nodes proportionally to degree.
class DegreeBalancedPartitioner final : public Partitioner {
 public:
  ShardPlan partition(std::size_t num_nodes,
                      const std::function<std::size_t(NodeId)>& degree,
                      std::uint32_t shards) const override;
};

/// Plans `g` into `shards` shards under `policy` (default: contiguous
/// node ranges).
ShardPlan make_shard_plan(const Graph& g, std::uint32_t shards,
                          const Partitioner& policy);
ShardPlan make_shard_plan(const Graph& g, std::uint32_t shards);

/// DynamicGraph variant: plans over every slot ever allocated (dead slots
/// are owned too — they just never see a walk).
ShardPlan make_shard_plan(const DynamicGraph& g, std::uint32_t shards,
                          const Partitioner& policy);
ShardPlan make_shard_plan(const DynamicGraph& g, std::uint32_t shards);

}  // namespace overcount
