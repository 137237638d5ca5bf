// Structural invariants of the sharded graph layer, fuzzed over the
// estimator graph zoo, both partition policies and a sweep of shard counts:
// the plan must give every node exactly one owner, each shard's rows must
// copy the source adjacency verbatim (every directed edge present exactly
// once), the cross-shard targets and the segment store's pooled set must be
// what the plan implies, and — through the engine — every token sent must
// be delivered (issued == consumed conservation, or a walk was lost or
// duplicated between outbox and inbox).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"
#include "shard/segment.hpp"
#include "test_helpers.hpp"

namespace overcount {
namespace {

const std::uint32_t kShardCounts[] = {1, 2, 3, 4, 8};

/// Both policies, so every invariant is checked against a non-trivial owner
/// assignment too.
std::vector<const Partitioner*> policies() {
  static const ContiguousRangePartitioner contiguous;
  static const DegreeBalancedPartitioner balanced;
  return {&contiguous, &balanced};
}

class ShardProperty : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(ShardProperty, PlanIsABijection) {
  Rng rng(2024);
  const Graph g = GetParam().make(rng);
  for (const Partitioner* policy : policies()) {
    for (const std::uint32_t shards : kShardCounts) {
      const ShardPlan plan = make_shard_plan(g, shards, *policy);
      ASSERT_EQ(plan.num_nodes(), g.num_nodes());
      ASSERT_EQ(plan.num_shards(), shards);
      std::size_t covered = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const auto owned = plan.nodes_of(s);
        covered += owned.size();
        for (std::size_t l = 0; l < owned.size(); ++l) {
          const NodeId v = owned[l];
          EXPECT_EQ(plan.shard_of(v), s);
          if (l > 0) {
            EXPECT_LT(owned[l - 1], v);  // owned nodes ascend
          }
        }
      }
      EXPECT_EQ(covered, g.num_nodes());  // with the per-node checks above:
                                          // every node exactly once
    }
  }
}

TEST_P(ShardProperty, ShardSlicesTileTheSourceAdjacencyExactly) {
  Rng rng(2025);
  const Graph g = GetParam().make(rng);
  for (const Partitioner* policy : policies()) {
    for (const std::uint32_t shards : kShardCounts) {
      const ShardPlan plan = make_shard_plan(g, shards, *policy);
      const ShardedGraph sharded(g, plan);
      std::size_t directed_edges = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        for (const NodeId v : plan.nodes_of(s)) {
          EXPECT_EQ(sharded.owner(v), s);
          const auto source_row = g.neighbors(v);
          const auto row = sharded.neighbors(v);
          directed_edges += row.size();
          ASSERT_EQ(row.size(), source_row.size());
          for (std::size_t k = 0; k < source_row.size(); ++k)
            EXPECT_EQ(row[k], source_row[k]);  // verbatim row order
        }
      }
      // Every directed edge of the source appears in exactly one shard's
      // rows: rows are verbatim and each node has exactly one owner, so
      // matching the total closes the count.
      EXPECT_EQ(directed_edges, sharded.total_degree());
      std::size_t source_total = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        source_total += g.degree(v);
      EXPECT_EQ(directed_edges, source_total);
    }
  }
}

/// Owned nodes of some shard with a neighbour owned by another shard: the
/// nodes a handoff can deliver a walk to, which the segment store pools.
std::unordered_set<NodeId> expected_pooled(const Graph& g,
                                           const ShardPlan& plan) {
  std::unordered_set<NodeId> pooled;
  for (std::uint32_t s = 0; s < plan.num_shards(); ++s)
    for (const NodeId v : plan.nodes_of(s))
      for (const NodeId t : g.neighbors(v))
        if (plan.shard_of(t) != s) pooled.insert(v);
  return pooled;
}

TEST_P(ShardProperty, GhostTablesRoundTripAndCoverExactlyTheCrossEdges) {
  Rng rng(2026);
  const Graph g = GetParam().make(rng);
  for (const Partitioner* policy : policies()) {
    for (const std::uint32_t shards : kShardCounts) {
      const ShardPlan plan = make_shard_plan(g, shards, *policy);
      const ShardedGraph sharded(g, plan);
      for (std::uint32_t s = 0; s < shards; ++s) {
        // Cross-shard targets of shard s: every row entry owned elsewhere
        // names its owner through the sharded view exactly as through the
        // plan, and they are exactly the targets of s's cross edges in the
        // source.
        std::unordered_set<NodeId> crossing_targets;
        std::unordered_set<NodeId> seen_targets;
        for (const NodeId v : plan.nodes_of(s)) {
          for (const NodeId t : g.neighbors(v))
            if (plan.shard_of(t) != s) crossing_targets.insert(t);
          for (const NodeId t : sharded.neighbors(v)) {
            EXPECT_EQ(sharded.owner(t), plan.shard_of(t));
            if (sharded.owner(t) != s) seen_targets.insert(t);
          }
        }
        EXPECT_EQ(seen_targets, crossing_targets);
      }
      // The pooled set: take() yields a segment at exactly the owned nodes
      // with a neighbour in another shard.
      const std::unordered_set<NodeId> pooled = expected_pooled(g, plan);
      SegmentStore store(sharded, StitchConfig{});
      WalkSegment seg;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        EXPECT_EQ(store.take(v, seg), pooled.contains(v)) << "node " << v;
      if (shards == 1) {
        EXPECT_TRUE(pooled.empty());
      }
    }
  }
}

TEST_P(ShardProperty, TokenConservationAcrossAllEstimators) {
  Rng rng(2027);
  const Graph g = GetParam().make(rng);
  NodeId origin = 0;
  while (g.degree(origin) == 0) ++origin;

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    ParallelRunner runner(4);
    MetricsRegistry metrics;
    ShardedWalkEngine engine(sharded, runner, &metrics);

    const std::size_t m = 24;
    engine.run_tours(origin, m, [](NodeId) { return 1.0; }, 0xC0FFEE);
    {
      const ShardRunStats& s = engine.last_run_stats();
      EXPECT_EQ(s.walks, m);
      EXPECT_EQ(s.tokens_issued, s.tokens_consumed);  // conservation
      EXPECT_LE(s.tokens_issued, s.handoffs + m);     // seeds + migrations
    }

    engine.run_samples(origin, m, 2.0, 0xC0FFEE);
    {
      const ShardRunStats& s = engine.last_run_stats();
      EXPECT_EQ(s.walks, m);
      EXPECT_EQ(s.tokens_issued, s.tokens_consumed);
    }

    engine.run_sc_trials(origin, 6, 2.0, 2, 0xC0FFEE);
    {
      const ShardRunStats& s = engine.last_run_stats();
      EXPECT_EQ(s.walks, 6u);
      EXPECT_EQ(s.tokens_issued, s.tokens_consumed);
    }

    // The registry's running totals agree with the per-run stats, and no
    // token is left in flight once the batches returned.
    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counter_or_zero("shard.tokens_issued"),
              snap.counter_or_zero("shard.tokens_consumed"));
    for (const auto& [name, value] : snap.gauges)
      if (name == "shard.tokens_in_flight") {
        EXPECT_EQ(value, 0.0);
      }
  }
}

TEST_P(ShardProperty, SegmentsWalkRealEdgesAndRefillOnDemand) {
  Rng rng(2028);
  const Graph g = GetParam().make(rng);
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);
  StitchConfig cfg;
  cfg.segment_length = 8;
  const std::unordered_set<NodeId> pooled_set = expected_pooled(g, plan);
  std::vector<NodeId> pooled(pooled_set.begin(), pooled_set.end());
  std::sort(pooled.begin(), pooled.end());
  ASSERT_FALSE(pooled.empty());

  // Two stores with the same seed, drained in two interleavings: all six
  // segments of one node before the next (node-major), and one segment per
  // node per pass (round-robin). A segment is walked when it is taken, from
  // its node's own stream, so the k-th segment taken at v must not depend
  // on what was taken at other nodes in between.
  constexpr std::size_t kTakes = 6;
  using Segments = std::vector<std::pair<std::vector<NodeId>,
                                         std::vector<double>>>;
  std::vector<Segments> node_major(pooled.size());
  std::vector<Segments> round_robin(pooled.size());
  SegmentStore first(sharded, cfg);
  SegmentStore second(sharded, cfg);
  WalkSegment seg;
  for (std::size_t i = 0; i < pooled.size(); ++i)
    for (std::size_t k = 0; k < kTakes; ++k) {
      ASSERT_TRUE(first.take(pooled[i], seg));
      node_major[i].emplace_back(seg.nodes, seg.sojourns);
    }
  for (std::size_t k = 0; k < kTakes; ++k)
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      ASSERT_TRUE(second.take(pooled[i], seg));
      round_robin[i].emplace_back(seg.nodes, seg.sojourns);
    }

  // take() yields a segment at exactly the pooled nodes.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(first.take(v, seg), pooled_set.contains(v)) << "node " << v;

  for (std::size_t i = 0; i < pooled.size(); ++i) {
    const NodeId b = pooled[i];
    EXPECT_EQ(node_major[i], round_robin[i]) << "node " << b;  // bitwise
    for (const auto& [nodes, sojourns] : node_major[i]) {
      // Each segment is a real walk on the snapshot topology.
      ASSERT_EQ(nodes.size(), cfg.segment_length + 1);
      ASSERT_EQ(sojourns.size(), cfg.segment_length);
      EXPECT_EQ(nodes.front(), b);
      for (std::size_t k = 0; k + 1 < nodes.size(); ++k) {
        const auto row = g.neighbors(nodes[k]);
        EXPECT_TRUE(std::find(row.begin(), row.end(), nodes[k + 1]) !=
                    row.end())
            << "segment step " << k << " is not an edge";
        EXPECT_GT(sojourns[k], 0.0);
      }
    }
    // Successive takes draw fresh randomness from the node's stream.
    EXPECT_NE(node_major[i][0], node_major[i][1]) << "node " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphZoo, ShardProperty,
    ::testing::ValuesIn(testing::estimator_graph_cases()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(ShardPropertyDynamic, ChurnedDynamicGraphTilesExactlyOverSlots) {
  Rng rng(31);
  DynamicGraph dg(balanced_random_graph(120, rng));
  dg.remove_node(5);
  dg.remove_node(60);
  dg.add_node(std::vector<NodeId>{1, 2, 70});
  ASSERT_TRUE(dg.check_invariants());

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const ShardPlan plan = make_shard_plan(dg, shards);
    ASSERT_EQ(plan.num_nodes(), dg.num_slots());  // dead slots owned too
    const ShardedGraph sharded(dg, plan);
    EXPECT_EQ(sharded.source_version(), dg.version());
    std::size_t directed_edges = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      for (const NodeId v : plan.nodes_of(s)) {
        const auto source_row = dg.neighbors(v);
        const auto row = sharded.neighbors(v);
        directed_edges += row.size();
        ASSERT_EQ(row.size(), source_row.size());
        if (!dg.alive(v)) {
          EXPECT_TRUE(row.empty());
        }
        for (std::size_t k = 0; k < source_row.size(); ++k)
          EXPECT_EQ(row[k], source_row[k]);
      }
    }
    EXPECT_EQ(directed_edges, dg.total_degree());
    EXPECT_EQ(directed_edges, sharded.total_degree());
  }
}

}  // namespace
}  // namespace overcount
