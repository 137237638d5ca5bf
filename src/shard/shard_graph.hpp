// Sharded view of an overlay graph: the owner plan plus one flat CSR over
// global node ids.
//
// The adjacency rows are copied VERBATIM from the source topology (same
// neighbour order), which is what makes the sharded engine bit-identical to
// the flat kernel: a walk that draws neighbour index k at node v lands on
// exactly the node the flat walk lands on, whether or not that node is in
// the same shard. Sharding here reorders WHERE a step executes, never WHICH
// step it is. Tokens carry global ids, so routing a walk to the shard whose
// task steps it next takes nothing beyond the plan.
//
// ShardedGraph is a snapshot: built once from a Graph or a DynamicGraph and
// immutable afterwards. For DynamicGraph sources the snapshot records
// `source_version()` so downstream consumers (segment stores, engines) can
// detect staleness against the live graph's DynamicGraph::version().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "shard/partition.hpp"

namespace overcount {

class ShardedGraph {
 public:
  ShardedGraph(const Graph& g, ShardPlan plan);
  /// DynamicGraph snapshot: copies the CURRENT adjacency (alive rows; dead
  /// slots become empty rows) and records the source's version() so later
  /// consumers can detect churn-induced staleness.
  ShardedGraph(const DynamicGraph& g, ShardPlan plan);

  std::uint32_t num_shards() const noexcept { return plan_.num_shards(); }
  std::size_t num_nodes() const noexcept { return plan_.num_nodes(); }

  /// DynamicGraph::version() at snapshot time; 0 for static Graph sources.
  std::uint64_t source_version() const noexcept { return source_version_; }

  std::uint32_t owner(NodeId v) const { return plan_.shard_of(v); }

  // OverlayTopology interface over global ids. Row order is the source's
  // row order, so walks on the sharded view draw the same neighbours as
  // walks on the source.
  std::size_t degree(NodeId v) const {
    OVERCOUNT_EXPECTS(v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }
  std::span<const NodeId> neighbors(NodeId v) const {
    OVERCOUNT_EXPECTS(v < num_nodes());
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Total adjacency entries (== 2|E| of the source).
  std::size_t total_degree() const noexcept { return adjacency_.size(); }

 private:
  template <typename G>
  void build(const G& g);

  ShardPlan plan_;
  std::vector<std::size_t> offsets_;  // num_nodes() + 1
  std::vector<NodeId> adjacency_;     // global targets, source row order
  std::uint64_t source_version_ = 0;
};

}  // namespace overcount
