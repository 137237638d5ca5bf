#include "shard/segment.hpp"

#include <limits>

#include "runtime/parallel_runner.hpp"

namespace overcount {

namespace {

/// Probe that writes each sojourn it sees to consecutive slots.
struct SojournLog : NullProbe {
  static constexpr bool enabled = true;
  double* next;
  void on_sojourn(double dt) noexcept { *next++ = dt; }
};

}  // namespace

SegmentStore::SegmentStore(const ShardedGraph& g, StitchConfig cfg)
    : graph_(&g), cfg_(cfg) {
  OVERCOUNT_EXPECTS(cfg_.segment_length >= 1);
  // Per-node streams: the v-th split of the stitch master, a pure function
  // of (seed, v). Deriving over ALL nodes (not just boundary ones) keeps a
  // node's stream stable across shard counts and partition policies.
  auto streams = derive_streams(cfg_.seed, g.num_nodes());
  for (std::uint32_t s = 0; s < g.num_shards(); ++s) {
    for (const NodeId v : g.shard(s).boundary) {
      Pool& pool = pools_[v];
      pool.stream = streams[v];
      pool.ready.resize(cfg_.segments_per_node);
      for (auto& seg : pool.ready) fill(seg, v, pool.stream);
    }
  }
}

void SegmentStore::fill(WalkSegment& seg, NodeId v, Rng& stream) const {
  // A segment is lambda CTRW hops from v on the node's stream under a timer
  // that never dies, so its draws come in the hop's order by construction;
  // the probe keeps each hop's sojourn.
  const std::size_t lambda = cfg_.segment_length;
  seg.nodes.resize(lambda + 1);
  seg.sojourns.resize(lambda);
  seg.nodes[0] = v;
  OVERCOUNT_EXPECTS(graph_->degree(v) > 0);
  CtrwWalk walk{v, std::numeric_limits<double>::infinity(), 0};
  StreamDraws draws(stream);
  SojournLog log{{}, seg.sojourns.data()};
  for (std::size_t i = 0; i < lambda; ++i) {
    ctrw_arrive(walk, *ctrw_hop(*graph_, walk, draws, log), log);
    seg.nodes[i + 1] = walk.at;
  }
  generated_.fetch_add(1, std::memory_order_relaxed);
}

const WalkSegment* SegmentStore::take(NodeId v) {
  const auto it = pools_.find(v);
  if (it == pools_.end()) return nullptr;
  Pool& pool = it->second;
  if (pool.next < pool.ready.size()) return &pool.ready[pool.next++];
  // Pool exhausted: synthesize a fresh segment from the node's persisted
  // stream. Every take() returns previously unconsumed randomness, so
  // segment reuse can never correlate walks.
  fill(pool.scratch, v, pool.stream);
  return &pool.scratch;
}

}  // namespace overcount
