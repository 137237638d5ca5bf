#include "shard/segment.hpp"

#include <algorithm>
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
    : graph_(&g),
      cfg_(cfg),
      // Per-node streams: the v-th split of the stitch master, a pure
      // function of (seed, v). Deriving over ALL nodes (not just pooled
      // ones) keeps a node's stream stable across shard counts and
      // partition policies.
      streams_(derive_streams(cfg.seed, g.num_nodes())),
      pooled_(g.num_nodes()) {
  OVERCOUNT_EXPECTS(cfg_.segment_length >= 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    pooled_[v] = std::ranges::any_of(g.neighbors(v), [&](NodeId t) {
      return g.owner(t) != g.owner(v);
    });
}

bool SegmentStore::take(NodeId v, WalkSegment& seg) {
  if (!pooled_[v]) return false;
  // A segment is lambda CTRW hops from v on the node's stream under a timer
  // that never dies, so its draws come in the hop's order by construction;
  // the probe keeps each hop's sojourn. Every take() draws fresh randomness,
  // so segment reuse can never correlate walks.
  const std::size_t lambda = cfg_.segment_length;
  seg.nodes.resize(lambda + 1);
  seg.sojourns.resize(lambda);
  seg.nodes[0] = v;
  CtrwWalk walk{v, std::numeric_limits<double>::infinity(), 0};
  StreamDraws draws(streams_[v]);
  SojournLog log{{}, seg.sojourns.data()};
  for (std::size_t i = 0; i < lambda; ++i) {
    ctrw_arrive(walk, *ctrw_hop(*graph_, walk, draws, log), log);
    seg.nodes[i + 1] = walk.at;
  }
  return true;
}

}  // namespace overcount
