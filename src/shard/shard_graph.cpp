#include "shard/shard_graph.hpp"

namespace overcount {

template <typename G>
void ShardedGraph::build(const G& g) {
  offsets_.reserve(num_nodes() + 1);
  offsets_.push_back(0);
  adjacency_.reserve(g.total_degree());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    // Verbatim row copy: same targets, same order, as the source. The
    // engine's bit-identity to the flat kernel rests on this line.
    const auto row = g.neighbors(v);
    adjacency_.insert(adjacency_.end(), row.begin(), row.end());
    offsets_.push_back(adjacency_.size());
  }
}

ShardedGraph::ShardedGraph(const Graph& g, ShardPlan plan)
    : plan_(std::move(plan)) {
  OVERCOUNT_EXPECTS(plan_.num_nodes() == g.num_nodes());
  build(g);
}

ShardedGraph::ShardedGraph(const DynamicGraph& g, ShardPlan plan)
    : plan_(std::move(plan)), source_version_(g.version()) {
  OVERCOUNT_EXPECTS(plan_.num_nodes() == g.num_slots());
  build(g);
}

}  // namespace overcount
