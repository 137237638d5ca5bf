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
// seed) they must still be deterministic at any thread count. Each walk kind
// is also pinned to recorded outputs of the default StitchConfig on the
// 4-shard plan: every value and step/hop count, every ShardRunStats field,
// and the probe stream (folded visits and sojourn time). The pins move if
// the order in which stitched walks replay segments, or where they take
// them, ever changes.
struct StitchedRun {
  std::vector<double> values;         ///< tour value / S&C ml, per walk
  std::vector<std::uint64_t> counts;  ///< steps, (node, hops) or
                                      ///< (samples, hops), per walk
  ShardRunStats stats;
};

struct StitchedPin {
  std::vector<double> values;
  std::vector<std::uint64_t> counts;
  ShardRunStats stats;
  std::uint64_t visits = 0;
  double sojourn_time = 0.0;
};

void expect_same_run_stats(const ShardRunStats& a, const ShardRunStats& b) {
  EXPECT_EQ(a.walks, b.walks);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.stitches, b.stitches);
  EXPECT_EQ(a.stitch_steps, b.stitch_steps);
  EXPECT_EQ(a.tokens_issued, b.tokens_issued);
  EXPECT_EQ(a.tokens_consumed, b.tokens_consumed);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.max_mailbox_depth, b.max_mailbox_depth);
}

/// Runs `batch(engine, run)` on a fresh stitched engine. The store is fresh
/// too: a run consumes its pools.
template <typename Batch>
StitchedRun run_stitched(const ShardedGraph& sharded, unsigned threads,
                         Batch batch) {
  ParallelRunner runner(threads);
  SegmentStore store(sharded, StitchConfig{});
  ShardedWalkEngine engine(sharded, runner);
  engine.enable_stitching(store);
  StitchedRun run;
  batch(engine, run);
  run.stats = engine.last_run_stats();
  return run;
}

/// `batch(engine, run, probes)` runs one batch of `walks` walks and appends
/// its outputs to `run`.
template <typename Batch>
void expect_stitched_pinned(const ShardedGraph& sharded, std::size_t walks,
                            Batch batch, const StitchedPin& pin) {
  std::vector<StitchedRun> runs;
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    runs.push_back(run_stitched(
        sharded, threads, [&](ShardedWalkEngine& engine, StitchedRun& run) {
          batch(engine, run, std::span<NullProbe>());
        }));
    const StitchedRun& run = runs.back();
    EXPECT_GT(run.stats.stitches, 0u);
    EXPECT_EQ(run.values, pin.values);  // bitwise
    EXPECT_EQ(run.counts, pin.counts);
    // The message schedule itself is deterministic too: strict BSP
    // delivery means the superstep count, handoffs, stitches and token
    // totals cannot depend on how the pool timed the shard tasks.
    expect_same_run_stats(run.stats, runs.front().stats);
    expect_same_run_stats(run.stats, pin.stats);
  }
  WalkStats walk_stats;
  const StitchedRun probed = run_stitched(
      sharded, 1, [&](ShardedWalkEngine& engine, StitchedRun& run) {
        run_probed(walks, walk_stats, [&](auto probes) {
          batch(engine, run, probes);
          return 0;
        });
      });
  EXPECT_EQ(probed.values, pin.values);
  EXPECT_EQ(probed.counts, pin.counts);
  EXPECT_EQ(walk_stats.visits, pin.visits);
  EXPECT_EQ(walk_stats.sojourn_time, pin.sojourn_time);  // bitwise
}

TEST(ShardEquivalence, StitchedRunsDeterministicAcrossThreadCounts) {
  const Graph g = test_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  {
    SCOPED_TRACE("run_tours");
    const std::size_t m = 32;
    expect_stitched_pinned(
        sharded, m,
        [&](ShardedWalkEngine& engine, StitchedRun& run, auto probes) {
          for (const TourEstimate& t :
               engine.run_tours(0, m, unit, kSeed, ~0ULL, probes).tours) {
            run.values.push_back(t.value);
            run.counts.push_back(t.steps);
          }
        },
        {{0x1.459457c57c53ep+10, 0x1.f3757c57c5788p+9, 0x1.a5aa0ea0ea11p+8,
          0x1.c9d41d41d41cap+6,  0x1.496d7c57c578bp+10, 0x1.51aea0ea0ea22p+8,
          0x1.7bcaf8af8afaap+8,  0x1.c31c57c57c5afp+8, 0x1.aaccccccccccfp+4,
          0x1.77741d41d41ecp+8,  0x1.2918af8af8b08p+8, 0x1.125b6db6db6ep+8,
          0x1.0296db6db6dbcp+8,  0x1.d999999999999p+1, 0x1.97aa0ea0ea0ebp+7,
          0x1.2bba83a83a85cp+9,  0x1.e666666666666p+0, 0x1.d6d99999999ccp+8,
          0x1.4d0c57c57c58dp+9,  0x1.37d24924924acp+9, 0x1.649d41d41d41ap+7,
          0x1.49457c57c57bfp+7,  0x1.c6857c57c57f3p+8, 0x1.160ea0ea0ea0ap+6,
          0x1.0dd7c57c57c51p+7,  0x1.3be666666665fp+6, 0x1.8de507507506ep+9,
          0x1.b2b6db6db6de4p+8,  0x1.fcc7507507514p+7, 0x1.cd1e2be2be2ecp+8,
          0x1.258ccccccccf3p+9,  0x1.8b1c57c57c5ap+8},
         {1216, 927, 390, 104, 1188, 301, 346, 428, 27,  348, 273,
          244,  228, 4,   179, 554,  2,   454, 611, 590, 159, 155,
          424,  67,  123, 74,  749,  401, 227, 424, 557, 366},
         {32, 60, 545, 0, 772, 12108, 577, 577, 12140, 13},
         12140,
         0.0});
  }
  {
    SCOPED_TRACE("run_samples");
    const std::size_t m = 32;
    expect_stitched_pinned(
        sharded, m,
        [&](ShardedWalkEngine& engine, StitchedRun& run, auto probes) {
          for (const SampleResult& r :
               engine.run_samples(0, m, 3.0, kSeed, probes).samples) {
            run.counts.push_back(r.node);
            run.counts.push_back(r.hops);
          }
        },
        {{},
         {360, 31, 377, 28, 395, 22, 379, 20, 84,  20, 172, 31, 127, 39,
          315, 35, 378, 30, 84,  23, 296, 24, 42,  21, 271, 29, 209, 33,
          224, 24, 387, 26, 115, 23, 54,  33, 128, 34, 396, 30, 270, 22,
          255, 32, 94,  28, 157, 34, 290, 18, 212, 14, 231, 19, 152, 27,
          312, 24, 334, 31, 27,  24, 213, 27},
         {32, 3, 24, 0, 70, 856, 56, 56, 856, 32},
         888,
         0x1.8p+6});
  }
  {
    SCOPED_TRACE("run_sc_trials");
    const std::size_t trials = 8;
    expect_stitched_pinned(
        sharded, trials,
        [&](ShardedWalkEngine& engine, StitchedRun& run, auto probes) {
          for (const ScEstimate& e :
               engine.run_sc_trials(0, trials, 2.5, 4, kSeed, probes)
                   .trials) {
            run.values.push_back(e.ml);
            run.counts.push_back(e.samples);
            run.counts.push_back(e.hops);
          }
        },
        {{0x1.0117e4ab58p+9, 0x1.89da26f768p+8, 0x1.a66f91a93p+8,
          0x1.21846925e8p+8, 0x1.0117e4ab58p+9, 0x1.7e8777d74p+7,
          0x1.092d3e1f5p+9, 0x1.09eef39908p+8},
         {66, 1360, 58, 1251, 60, 1258, 50, 1025, 66, 1474, 41, 874, 67, 1393,
          48, 1020},
         {8, 91, 300, 294, 870, 9655, 602, 602, 9655, 8},
         10111,
         0x1.1dp+10});
  }
}

}  // namespace
}  // namespace overcount
