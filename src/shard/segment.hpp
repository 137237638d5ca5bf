// Walk segments for stitched cross-shard walks (Das Sarma et al.,
// Distributed Random Walks: complete a length-L walk in ~sqrt(L) handoffs
// by splicing short sub-walks instead of stepping one edge per message).
//
// Every handoff delivers a walk to a node that has at least one neighbour
// in the sending shard — i.e. a BOUNDARY node of the receiving shard. The
// store therefore pools segments exactly at boundary nodes, and the engine
// takes one at EVERY visit to a pooled node: on arrival by handoff, and
// equally when a step inside the shard, or the end of a previous segment,
// lands on one. The walk replays the whole lambda-step segment before its
// next owner check, so it pays at most one handoff per lambda steps instead
// of one per crossing edge.
//
// A segment is walked when it is taken, from its node's stream, so the
// k-th segment taken at v is the k-th lambda-step walk drawn from v's
// stream, whatever was taken at other nodes in between.
//
// Randomness discipline: segment draws come from per-NODE streams — the
// v-th Rng::split of a master seeded with the stitch seed, the same
// derive_streams discipline as the kernel. The stream is a pure function of
// (seed, v), independent of the shard count, and every take() consumes
// fresh randomness from the node's persisted stream, so stitched walks
// follow the exact simple-random-walk law — uniform neighbour choice and
// Exp(d) sojourns — just not the token path's draw ORDER. Stitching is
// consequently an opt-in fast path verified statistically
// (tests/shard/shard_statistical_test.cpp), while the token path stays the
// bit-identical reference.
//
// Staleness: a store snapshots a ShardedGraph, which snapshots a
// DynamicGraph version. Segments walk the snapshot topology; the engine
// refuses to stitch when its graph's source_version() differs from the
// store's (see ShardedWalkEngine::enable_stitching).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "shard/shard_graph.hpp"
#include "util/rng.hpp"
#include "walk/step.hpp"

namespace overcount {

/// A sub-walk: lambda steps starting at nodes[0] (so nodes.size() ==
/// lambda + 1). sojourns[i] is the Exp(degree(nodes[i])) sojourn drawn at
/// nodes[i]; tours ignore sojourns, CTRW consumes them.
struct WalkSegment {
  std::vector<NodeId> nodes;
  std::vector<double> sojourns;
};

/// Draw source (walk/step.hpp) of a walk that may be stitched. While a
/// segment is being replayed, the k-th step spends sojourns[k] and moves to
/// nodes[k + 1]; otherwise the draws come from the walk's own stream.
class StitchedDraws {
 public:
  explicit StitchedDraws(Rng& stream) noexcept : stream_(stream) {}

  /// Starts replaying `seg`, which starts at the walk's current node.
  void replay(const WalkSegment& seg) noexcept { seg_ = &seg; }
  bool replaying() const noexcept { return seg_ != nullptr; }
  /// True while a segment is part-way through.
  bool mid_segment() const noexcept {
    return seg_ != nullptr && k_ + 1 < seg_->nodes.size();
  }
  /// Ends the replay, if any; returns the steps it covered.
  std::size_t finish() noexcept {
    seg_ = nullptr;
    return std::exchange(k_, 0);
  }

  double sojourn(std::size_t degree) {
    return seg_ != nullptr ? seg_->sojourns[k_] : stream_.sojourn(degree);
  }
  const NodeId* next(std::span<const NodeId> row) {
    return seg_ != nullptr ? &seg_->nodes[++k_] : stream_.next(row);
  }

 private:
  StreamDraws stream_;
  const WalkSegment* seg_ = nullptr;
  std::size_t k_ = 0;
};

/// Stitching parameters. `segment_length` is lambda, the handoff
/// amortisation factor.
struct StitchConfig {
  std::uint64_t seed = 0x5e95e9;
  std::size_t segment_length = 16;
};

/// Per-node segment streams, walked on demand at pooled nodes: the nodes
/// with a neighbour owned by another shard.
///
/// Concurrency: the pooled flags are fixed in the constructor. Node v's
/// stream is only ever advanced by the task of v's owning shard (the engine
/// stitches only at owned nodes), and each task walks into a segment it
/// owns, so nothing is shared between shards and no lock is needed.
class SegmentStore {
 public:
  SegmentStore(const ShardedGraph& g, StitchConfig cfg);

  /// Walks v's next lambda-step segment from v's stream into `seg` and
  /// returns true, or returns false, leaving `seg` alone, when v is not
  /// pooled. Must only be called by the task owning v's shard.
  bool take(NodeId v, WalkSegment& seg);

  /// ShardedGraph::source_version() of the snapshot the segments walk.
  std::uint64_t source_version() const noexcept {
    return graph_->source_version();
  }

 private:
  const ShardedGraph* graph_;
  StitchConfig cfg_;
  std::vector<Rng> streams_;  ///< node -> its segment stream
  std::vector<bool> pooled_;  ///< node -> has a cross-shard neighbour
};

}  // namespace overcount
