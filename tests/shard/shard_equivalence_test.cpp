// The sharded walk engine's correctness claim: splitting the graph into S
// shards and completing walks by message passing is a pure reordering of
// WHERE steps execute, never of WHICH steps execute. These tests pin that
// bit-for-bit against the single-shard reference — every tour estimate,
// CTRW sample, S&C trial, folded WalkStats and registry metric stream must
// equal the scalar reference, the direct kernel (widths {1,16}) and the
// core/parallel.hpp batch exactly, over S in {1,2,4,8} x threads {1,2,8},
// including max_steps truncation parity and the all-truncated NaN audit.
// Every sharded batch is built the way callers build it: a ShardedGraph
// over a ShardPlan, plus a ShardedWalkEngine on a ParallelRunner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"

namespace overcount {
namespace {

constexpr std::uint64_t kSeed = 0xFEEDBEEF;
const std::uint32_t kShards[] = {1, 2, 4, 8};
const unsigned kThreads[] = {1, 2, 8};
const std::size_t kWidths[] = {1, 16};

Graph test_graph() {
  Rng rng(99);
  return balanced_random_graph(400, rng);
}

double unit(NodeId) { return 1.0; }

/// Runs `run(probes)` with one WalkStatsProbe per walk and folds the
/// per-walk stats into `walk_out`, as core/parallel.hpp's probed batches do.
template <typename Run>
auto run_probed(std::size_t m, WalkStats& walk_out, Run run) {
  std::vector<WalkStats> per_walk(m);
  std::vector<WalkStatsProbe> probes(per_walk.begin(), per_walk.end());
  auto batch = run(std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_walk);
  return batch;
}

void expect_same_walk_stats(const WalkStats& a, const WalkStats& b) {
  EXPECT_EQ(a.walks, b.walks);
  EXPECT_EQ(a.visits, b.visits);
  EXPECT_EQ(a.revisits, b.revisits);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.tours, b.tours);
  EXPECT_EQ(a.completed_tours, b.completed_tours);
  EXPECT_EQ(a.truncated_tours, b.truncated_tours);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.sojourn_time, b.sojourn_time);  // bitwise: per-walk FP order
  EXPECT_EQ(a.tour_steps.count, b.tour_steps.count);
  EXPECT_EQ(a.tour_steps.sum, b.tour_steps.sum);
  EXPECT_EQ(a.sample_hops.count, b.sample_hops.count);
  EXPECT_EQ(a.sample_hops.sum, b.sample_hops.sum);
  EXPECT_EQ(a.collision_gaps.count, b.collision_gaps.count);
  EXPECT_EQ(a.collision_gaps.sum, b.collision_gaps.sum);
}

std::vector<RegistryProbe> make_probes(MetricsRegistry& registry,
                                       std::size_t n) {
  std::vector<RegistryProbe> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) probes.emplace_back(registry, "walk");
  return probes;
}

void expect_snapshots_match(const MetricsSnapshot& scalar,
                            const MetricsSnapshot& sharded,
                            bool exact_gauges) {
  ASSERT_EQ(scalar.counters.size(), sharded.counters.size());
  for (std::size_t i = 0; i < scalar.counters.size(); ++i) {
    EXPECT_EQ(scalar.counters[i].first, sharded.counters[i].first);
    EXPECT_EQ(scalar.counters[i].second, sharded.counters[i].second)
        << scalar.counters[i].first;
  }
  ASSERT_EQ(scalar.histograms.size(), sharded.histograms.size());
  for (std::size_t i = 0; i < scalar.histograms.size(); ++i) {
    EXPECT_EQ(scalar.histograms[i].first, sharded.histograms[i].first);
    const Log2Histogram& a = scalar.histograms[i].second;
    const Log2Histogram& b = sharded.histograms[i].second;
    EXPECT_EQ(a.count, b.count) << scalar.histograms[i].first;
    EXPECT_EQ(a.sum, b.sum) << scalar.histograms[i].first;
    EXPECT_EQ(a.min, b.min) << scalar.histograms[i].first;
    EXPECT_EQ(a.max, b.max) << scalar.histograms[i].first;
    for (std::size_t k = 0; k < Log2Histogram::kBuckets; ++k)
      EXPECT_EQ(a.buckets[k], b.buckets[k]) << scalar.histograms[i].first;
  }
  ASSERT_EQ(scalar.gauges.size(), sharded.gauges.size());
  for (std::size_t i = 0; i < scalar.gauges.size(); ++i) {
    EXPECT_EQ(scalar.gauges[i].first, sharded.gauges[i].first);
    const double a = scalar.gauges[i].second;
    const double b = sharded.gauges[i].second;
    if (exact_gauges) {
      EXPECT_EQ(a, b) << scalar.gauges[i].first;
    } else {
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(a)))
          << scalar.gauges[i].first;
    }
  }
}

TEST(ShardEquivalence, ToursBitIdenticalAcrossShardsThreadsWidths) {
  const Graph g = test_graph();
  const std::size_t m = 48;

  // Scalar reference: one stream per walk.
  auto streams = derive_streams(kSeed, m);
  std::vector<TourEstimate> reference;
  reference.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    reference.push_back(random_tour_size(g, 0, streams[i]));

  // The direct kernel at each width closes the triangle: engine == scalar
  // == kernel.
  for (const std::size_t width : kWidths) {
    SCOPED_TRACE(::testing::Message() << "kernel width=" << width);
    auto kernel_streams = derive_streams(kSeed, m);
    std::vector<TourEstimate> via_kernel(m);
    tour_kernel(g, 0, unit, std::span<Rng>(kernel_streams),
                std::span<TourEstimate>(via_kernel), width);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(via_kernel[i].value, reference[i].value);  // bitwise
      EXPECT_EQ(via_kernel[i].steps, reference[i].steps);
    }
  }

  for (const std::uint32_t shards : kShards) {
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    for (const unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "S=" << shards << " threads=" << threads);
      ParallelRunner runner(threads);
      ShardedWalkEngine engine(sharded, runner);
      const TourBatch via_engine = engine.run_tours(0, m, unit, kSeed);
      const TourBatch via_batch = run_tours_size(g, 0, m, kSeed, runner);
      ASSERT_EQ(via_engine.tours.size(), m);
      EXPECT_EQ(via_engine.stats.tasks, m);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(via_engine.tours[i].value, reference[i].value);  // bitwise
        EXPECT_EQ(via_engine.tours[i].steps, reference[i].steps);
        EXPECT_EQ(via_engine.tours[i].completed, reference[i].completed);
        EXPECT_EQ(via_engine.tours[i].value, via_batch.tours[i].value);
      }
      EXPECT_EQ(via_engine.sum, via_batch.sum);  // same tree reduction
      EXPECT_EQ(via_engine.completed, via_batch.completed);
      EXPECT_EQ(via_engine.total_steps, via_batch.total_steps);
      const ShardRunStats& stats = engine.last_run_stats();
      EXPECT_EQ(stats.walks, m);
      if (shards == 1) {
        EXPECT_EQ(stats.handoffs, 0u);
      }
    }
  }
}

TEST(ShardEquivalence, ProbedToursFoldIdenticalWalkStats) {
  const Graph g = test_graph();
  const std::size_t m = 48;

  auto streams = derive_streams(kSeed, m);
  std::vector<WalkStats> per_walk(m);
  std::vector<TourEstimate> reference;
  reference.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    WalkStatsProbe probe(per_walk[i]);
    reference.push_back(random_tour_size(g, 0, streams[i], ~0ULL, probe));
  }
  const WalkStats folded = detail::fold_walk_stats(per_walk);

  for (const std::uint32_t shards : kShards) {
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    for (const unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "S=" << shards << " threads=" << threads);
      ParallelRunner runner(threads);
      ShardedWalkEngine engine(sharded, runner);
      WalkStats walk_stats;
      const TourBatch batch = run_probed(m, walk_stats, [&](auto probes) {
        return engine.run_tours(0, m, unit, kSeed, ~0ULL, probes);
      });
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(batch.tours[i].value, reference[i].value);
        EXPECT_EQ(batch.tours[i].steps, reference[i].steps);
      }
      expect_same_walk_stats(walk_stats, folded);
      EXPECT_EQ(walk_stats.tours, m);
      EXPECT_EQ(walk_stats.tour_steps.sum, batch.total_steps);
    }
  }
}

TEST(ShardEquivalence, RegistryMetricStreamsMatchScalar) {
  const Graph g = test_graph();
  const std::size_t m = 40;

  MetricsRegistry scalar_registry;
  {
    auto streams = derive_streams(kSeed, m);
    auto probes = make_probes(scalar_registry, m);
    for (std::size_t i = 0; i < m; ++i)
      random_tour_size(g, 0, streams[i], ~0ULL, probes[i]);
  }
  const auto scalar_snap = scalar_registry.snapshot();
  EXPECT_EQ(scalar_snap.counter_or_zero("walk.tours"), m);

  for (const std::uint32_t shards : {2u, 8u}) {
    for (const unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "S=" << shards << " threads=" << threads);
      const ShardPlan plan = make_shard_plan(g, shards);
      const ShardedGraph sharded(g, plan);
      ParallelRunner runner(threads);
      // A separate registry receives the walk.* stream; the engine's own
      // shard.* metrics stay out of it so the snapshots line up 1:1.
      MetricsRegistry registry;
      auto probes = make_probes(registry, m);
      ShardedWalkEngine engine(sharded, runner);
      engine.run_tours(
          0, m, [](NodeId) { return 1.0; }, kSeed, ~0ULL,
          std::span<RegistryProbe>(probes));
      // Tours never touch the sojourn gauge, so gauges compare bitwise too.
      expect_snapshots_match(scalar_snap, registry.snapshot(),
                             /*exact_gauges=*/true);
    }
  }
}

TEST(ShardEquivalence, MaxStepsTruncationParity) {
  // On a ring every tour is long, so tight caps truncate aggressively; the
  // sharded path must flag and cap exactly like the scalar loop, including
  // the max_steps == 1 edge where the walk never leaves the seeding phase.
  const Graph g = ring(64);
  const std::size_t m = 32;
  for (const std::uint64_t max_steps :
       {std::uint64_t{1}, std::uint64_t{5}, std::uint64_t{200}}) {
    auto streams = derive_streams(kSeed, m);
    std::vector<TourEstimate> reference;
    reference.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
      reference.push_back(random_tour_size(g, 7, streams[i], max_steps));

    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      for (const unsigned threads : kThreads) {
        SCOPED_TRACE(::testing::Message() << "max_steps=" << max_steps
                                          << " S=" << shards
                                          << " threads=" << threads);
        const ShardedGraph sharded(g, make_shard_plan(g, shards));
        ParallelRunner runner(threads);
        ShardedWalkEngine engine(sharded, runner);
        WalkStats walk_stats;
        const TourBatch batch = run_probed(m, walk_stats, [&](auto probes) {
          return engine.run_tours(7, m, unit, kSeed, max_steps, probes);
        });
        std::size_t truncated = 0;
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(batch.tours[i].value, reference[i].value);
          EXPECT_EQ(batch.tours[i].steps, reference[i].steps);
          EXPECT_EQ(batch.tours[i].completed, reference[i].completed);
          if (!reference[i].completed) ++truncated;
        }
        EXPECT_EQ(batch.truncated, truncated);
        EXPECT_EQ(walk_stats.truncated_tours, truncated);
      }
    }
  }
}

// The TourBatch::mean NaN audit, sharded edition: a batch where EVERY tour
// hit max_steps must report ok() == false and a NaN mean exactly like the
// scalar path — never 0.0, never a tiny "estimate".
TEST(ShardEquivalence, AllTruncatedShardedBatchReportsNotOkLikeScalar) {
  const Graph g = ring(64);
  const std::size_t m = 16;
  // max_steps = 1: on a ring the first step can never return to the origin,
  // so every tour truncates.
  const std::uint64_t max_steps = 1;

  ParallelRunner runner(2);
  const TourBatch scalar = run_tours_size(g, 7, m, kSeed, runner, max_steps);
  ASSERT_EQ(scalar.completed, 0u);
  ASSERT_FALSE(scalar.ok());
  ASSERT_TRUE(std::isnan(scalar.mean()));

  for (const std::uint32_t shards : {2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardedGraph sharded(g, make_shard_plan(g, shards));
    ShardedWalkEngine engine(sharded, runner);
    const TourBatch batch = engine.run_tours(7, m, unit, kSeed, max_steps);
    EXPECT_EQ(batch.completed, 0u);
    EXPECT_EQ(batch.truncated, m);
    EXPECT_FALSE(batch.ok());
    EXPECT_TRUE(std::isnan(batch.mean()));
    EXPECT_EQ(batch.sum, scalar.sum);  // 0.0 either way, bitwise
  }
}

TEST(ShardEquivalence, CtrwSamplesBitIdenticalToScalar) {
  const Graph g = test_graph();
  const std::size_t m = 40;
  const double timer = 3.0;

  auto streams = derive_streams(kSeed, m);
  std::vector<SampleResult> reference;
  reference.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    reference.push_back(ctrw_sample(g, 0, timer, streams[i]));

  for (const std::uint32_t shards : kShards) {
    const ShardedGraph sharded(g, make_shard_plan(g, shards));
    for (const unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "S=" << shards << " threads=" << threads);
      ParallelRunner runner(threads);
      ShardedWalkEngine engine(sharded, runner);
      const SampleBatch batch = engine.run_samples(0, m, timer, kSeed);
      WalkStats walk_stats;
      const SampleBatch probed = run_probed(m, walk_stats, [&](auto probes) {
        return engine.run_samples(0, m, timer, kSeed, probes);
      });
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(batch.samples[i].node, reference[i].node);
        EXPECT_EQ(batch.samples[i].hops, reference[i].hops);
        EXPECT_EQ(probed.samples[i].node, reference[i].node);
        EXPECT_EQ(probed.samples[i].hops, reference[i].hops);
      }
      EXPECT_EQ(walk_stats.samples, m);
      EXPECT_EQ(walk_stats.sample_hops.sum, batch.total_hops);
    }
  }
}

TEST(ShardEquivalence, ScTrialsBitIdenticalToScalar) {
  const Graph g = test_graph();
  const std::size_t trials = 24;
  const std::size_t ell = 4;
  const double timer = 2.5;

  auto streams = derive_streams(kSeed, trials);
  std::vector<ScEstimate> reference;
  reference.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    SampleCollideEstimator estimator(g, 0, timer, ell, streams[i]);
    reference.push_back(estimator.estimate());
  }

  for (const std::uint32_t shards : kShards) {
    const ShardedGraph sharded(g, make_shard_plan(g, shards));
    for (const unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "S=" << shards << " threads=" << threads);
      ParallelRunner runner(threads);
      ShardedWalkEngine engine(sharded, runner);
      const ScBatch batch =
          engine.run_sc_trials(0, trials, timer, ell, kSeed);
      WalkStats walk_stats;
      const ScBatch probed = run_probed(trials, walk_stats, [&](auto probes) {
        return engine.run_sc_trials(0, trials, timer, ell, kSeed, probes);
      });
      for (std::size_t i = 0; i < trials; ++i) {
        SCOPED_TRACE(::testing::Message() << "trial=" << i);
        EXPECT_EQ(batch.trials[i].ml, reference[i].ml);  // bitwise
        EXPECT_EQ(batch.trials[i].simple, reference[i].simple);
        EXPECT_EQ(batch.trials[i].n_minus, reference[i].n_minus);
        EXPECT_EQ(batch.trials[i].n_plus, reference[i].n_plus);
        EXPECT_EQ(batch.trials[i].samples, reference[i].samples);
        EXPECT_EQ(batch.trials[i].hops, reference[i].hops);
        EXPECT_EQ(batch.trials[i].replies, reference[i].replies);
        EXPECT_EQ(probed.trials[i].ml, reference[i].ml);
        EXPECT_EQ(probed.trials[i].samples, reference[i].samples);
        EXPECT_EQ(probed.trials[i].hops, reference[i].hops);
      }
      EXPECT_EQ(walk_stats.collisions, trials * ell);
    }
  }
}

TEST(ShardEquivalence, ScRegistryStreamsMatchScalar) {
  const Graph g = test_graph();
  const std::size_t trials = 12;
  const std::size_t ell = 4;
  const double timer = 2.5;

  MetricsRegistry scalar_registry;
  {
    auto streams = derive_streams(kSeed, trials);
    auto probes = make_probes(scalar_registry, trials);
    for (std::size_t i = 0; i < trials; ++i) {
      SampleCollideEstimator estimator(g, 0, timer, ell, streams[i]);
      estimator.estimate(probes[i]);
    }
  }
  const auto scalar_snap = scalar_registry.snapshot();
  EXPECT_EQ(scalar_snap.counter_or_zero("walk.collisions"), trials * ell);

  for (const std::uint32_t shards : {2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    ParallelRunner runner(8);
    MetricsRegistry registry;
    auto probes = make_probes(registry, trials);
    ShardedWalkEngine engine(sharded, runner);
    engine.run_sc_trials(0, trials, timer, ell, kSeed,
                         std::span<RegistryProbe>(probes));
    // The sojourn gauge sums doubles in migration order; everything else is
    // integer arithmetic and must match bitwise.
    expect_snapshots_match(scalar_snap, registry.snapshot(),
                           /*exact_gauges=*/false);
  }
}

TEST(ShardEquivalence, DynamicGraphShardedMatchesScalarAfterChurn) {
  Rng rng(7);
  DynamicGraph dg(balanced_random_graph(200, rng));
  // Churn: dead slots and fresh nodes make the slot space differ from the
  // alive set, exactly what the plan-over-slots contract must absorb.
  dg.remove_node(3);
  dg.remove_node(117);
  dg.add_node(std::vector<NodeId>{0, 50, 99});
  dg.remove_edge(dg.neighbors(0)[0], 0);

  const NodeId origin = 42;
  ASSERT_GT(dg.degree(origin), 0u);
  const std::size_t m = 24;

  auto streams = derive_streams(kSeed, m);
  std::vector<TourEstimate> reference;
  reference.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    reference.push_back(random_tour_size(dg, origin, streams[i]));

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "S=" << shards);
    const ShardPlan plan = make_shard_plan(dg, shards);
    const ShardedGraph sharded(dg, plan);
    EXPECT_EQ(sharded.source_version(), dg.version());
    ParallelRunner runner(4);
    ShardedWalkEngine engine(sharded, runner);
    const TourBatch batch = engine.run_tours(
        origin, m, [](NodeId) { return 1.0; }, kSeed);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(batch.tours[i].value, reference[i].value);
      EXPECT_EQ(batch.tours[i].steps, reference[i].steps);
    }
  }
}

// Bit-identity must hold for ANY owner assignment, not just contiguous
// ranges: the partition policy moves handoff edges around but can never
// touch the numbers.
TEST(ShardEquivalence, DegreeBalancedPartitionGivesSameResults) {
  const Graph g = test_graph();
  const std::size_t m = 32;
  ParallelRunner runner(4);
  const TourBatch reference = run_tours_size(g, 0, m, kSeed, runner);

  const ShardedGraph sharded(
      g, make_shard_plan(g, 4, DegreeBalancedPartitioner{}));
  ShardedWalkEngine engine(sharded, runner);
  const TourBatch batch = engine.run_tours(0, m, unit, kSeed);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(batch.tours[i].value, reference.tours[i].value);
    EXPECT_EQ(batch.tours[i].steps, reference.tours[i].steps);
  }
  EXPECT_EQ(batch.sum, reference.sum);
}

// Stitched runs consume the segment store's streams instead of the walks',
// so they are NOT bit-identical to scalar — but for a fixed (plan, stitch
// seed) they must still be deterministic at any thread count.
TEST(ShardEquivalence, StitchedRunsDeterministicAcrossThreadCounts) {
  const Graph g = test_graph();
  const std::size_t m = 32;
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  std::vector<TourEstimate> first;
  ShardRunStats first_stats;
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ParallelRunner runner(threads);
    SegmentStore store(sharded, StitchConfig{});
    ShardedWalkEngine engine(sharded, runner);
    engine.enable_stitching(store);
    const TourBatch batch = engine.run_tours(
        0, m, [](NodeId) { return 1.0; }, kSeed);
    const ShardRunStats& stats = engine.last_run_stats();
    EXPECT_GT(stats.stitches, 0u);
    if (first.empty()) {
      first = batch.tours;
      first_stats = stats;
    } else {
      ASSERT_EQ(batch.tours.size(), first.size());
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(batch.tours[i].value, first[i].value);  // bitwise
        EXPECT_EQ(batch.tours[i].steps, first[i].steps);
      }
      // The message schedule itself is deterministic too: strict BSP
      // delivery means the superstep count, handoffs, stitches and token
      // totals cannot depend on how the pool timed the shard tasks.
      EXPECT_EQ(stats.rounds, first_stats.rounds);
      EXPECT_EQ(stats.handoffs, first_stats.handoffs);
      EXPECT_EQ(stats.stitches, first_stats.stitches);
      EXPECT_EQ(stats.stitch_steps, first_stats.stitch_steps);
      EXPECT_EQ(stats.tokens_issued, first_stats.tokens_issued);
      EXPECT_EQ(stats.tokens_consumed, first_stats.tokens_consumed);
    }
  }
}

}  // namespace
}  // namespace overcount
