// Token-accounting contract of the sharded engine's mailbox plane: every
// token pushed (seed, handoff, report) is drained and processed exactly
// once — `shard.tokens_issued == shard.tokens_consumed` after every batch,
// at every shard count — and the mailbox-pressure histograms actually
// observe traffic (a conservation check that silently records nothing
// would vacuously pass). Pinned across S in {1,2,4,8} for all three walk
// modes, both through the registry and through last_run_stats().
#include <gtest/gtest.h>

#include <cstdint>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"

namespace overcount {
namespace {

constexpr std::uint64_t kSeed = 0xFEEDBEEF;
const std::uint32_t kShards[] = {1, 2, 4, 8};

Graph test_graph() {
  Rng rng(99);
  return balanced_random_graph(400, rng);
}

const Log2Histogram* find_histogram(const MetricsSnapshot& snap,
                                    const std::string& name) {
  for (const auto& [hist_name, h] : snap.histograms)
    if (hist_name == name) return &h;
  return nullptr;
}

void expect_tokens_conserved(const ShardedWalkEngine& engine,
                             const MetricsRegistry& registry) {
  const ShardRunStats& stats = engine.last_run_stats();
  EXPECT_GT(stats.tokens_issued, 0u);
  EXPECT_EQ(stats.tokens_issued, stats.tokens_consumed);

  const MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t issued = snap.counter_or_zero("shard.tokens_issued");
  const std::uint64_t consumed = snap.counter_or_zero("shard.tokens_consumed");
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(issued, consumed);

  // The mailbox-depth histogram observes every per-shard drain (zeros
  // included), so a batch that ran any superstep must have populated it.
  const Log2Histogram* depth = find_histogram(snap, "shard.mailbox_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count, 0u);
  // Handoff latency is recorded once per thawed token whose freeze time was
  // stamped; with a registry attached that is every token, so the histogram
  // cannot stay empty when tokens moved.
  const Log2Histogram* latency =
      find_histogram(snap, "shard.handoff_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count, 0u);
  EXPECT_LE(latency->count, consumed);
}

TEST(ShardMetrics, ToursConserveTokensAcrossShardCounts) {
  const Graph g = test_graph();
  for (const std::uint32_t shards : kShards) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    ParallelRunner runner(4);
    MetricsRegistry registry;
    ShardedWalkEngine engine(sharded, runner, &registry);
    engine.run_tours(0, 48, [](NodeId) { return 1.0; }, kSeed);
    expect_tokens_conserved(engine, registry);
    // A multi-shard batch of this size must actually migrate walks: the
    // conservation identity is only interesting when handoffs happened.
    if (shards > 1) {
      EXPECT_GT(engine.last_run_stats().handoffs, 0u);
    }
  }
}

TEST(ShardMetrics, SamplesConserveTokensAcrossShardCounts) {
  const Graph g = test_graph();
  for (const std::uint32_t shards : kShards) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    ParallelRunner runner(2);
    MetricsRegistry registry;
    ShardedWalkEngine engine(sharded, runner, &registry);
    engine.run_samples(0, 32, 25.0, kSeed);
    expect_tokens_conserved(engine, registry);
  }
}

TEST(ShardMetrics, ScTrialsConserveTokensAcrossShardCounts) {
  const Graph g = test_graph();
  for (const std::uint32_t shards : kShards) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    ParallelRunner runner(2);
    MetricsRegistry registry;
    ShardedWalkEngine engine(sharded, runner, &registry);
    engine.run_sc_trials(0, 4, 20.0, 3, kSeed);
    expect_tokens_conserved(engine, registry);
    // With multiple shards, S&C pushes report tokens home on top of
    // seeds/handoffs; conservation must hold for those too.
    if (shards > 1) {
      EXPECT_GT(engine.last_run_stats().reports, 0u);
    }
  }
}

TEST(ShardMetrics, BackToBackBatchesKeepConservationCumulative) {
  const Graph g = test_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);
  ParallelRunner runner(4);
  MetricsRegistry registry;
  ShardedWalkEngine engine(sharded, runner, &registry);
  engine.run_tours(0, 24, [](NodeId) { return 1.0; }, kSeed);
  engine.run_samples(0, 16, 25.0, kSeed + 1);
  engine.run_tours(0, 24, [](NodeId) { return 1.0; }, kSeed + 2);
  // Registry counters accumulate across batches; the identity must survive
  // mixing modes on one engine.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero("shard.tokens_issued"),
            snap.counter_or_zero("shard.tokens_consumed"));
  // last_run_stats() is per-batch: the final tour batch balances on its own.
  const ShardRunStats& stats = engine.last_run_stats();
  EXPECT_EQ(stats.tokens_issued, stats.tokens_consumed);
  EXPECT_EQ(stats.walks, 24u);
}

}  // namespace
}  // namespace overcount
