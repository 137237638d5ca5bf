// The observability determinism contract: attaching any probe to a walk, a
// batch or an estimator changes NOTHING about the numbers it produces — not
// the per-item results, not the reduced aggregates, at any thread count —
// and the probe statistics themselves fold deterministically.
#include "obs/probe.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/parallel.hpp"
#include "core/random_tour.hpp"
#include "core/sample_collide.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "walk/metropolis.hpp"
#include "walk/walkers.hpp"

namespace overcount {
namespace {

Graph test_graph() {
  Rng rng(77);
  return largest_component(balanced_random_graph(400, rng));
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
  EXPECT_EQ(a.sojourn_time, b.sojourn_time);  // bitwise: tree-reduced
  EXPECT_EQ(a.tour_steps.count, b.tour_steps.count);
  EXPECT_EQ(a.tour_steps.sum, b.tour_steps.sum);
  EXPECT_EQ(a.sample_hops.count, b.sample_hops.count);
  EXPECT_EQ(a.sample_hops.sum, b.sample_hops.sum);
  EXPECT_EQ(a.collision_gaps.count, b.collision_gaps.count);
  EXPECT_EQ(a.collision_gaps.sum, b.collision_gaps.sum);
}

TEST(ProbeDeterminism, ProbedTourEqualsUnprobedTour) {
  const Graph g = test_graph();
  Rng plain(5);
  Rng probed_rng(5);
  WalkStats stats;
  WalkStatsProbe probe(stats);
  for (int i = 0; i < 50; ++i) {
    const auto a = random_tour_size(g, 0, plain);
    const auto b = random_tour_size(g, 0, probed_rng, ~0ULL, probe);
    EXPECT_EQ(a.value, b.value);  // bitwise: identical random stream
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.completed, b.completed);
  }
  EXPECT_EQ(stats.tours, 50u);
  EXPECT_EQ(stats.completed_tours, 50u);
  EXPECT_EQ(stats.walks, 50u);
}

TEST(ProbeDeterminism, ProbedCtrwAndMetropolisMatchUnprobed) {
  const Graph g = test_graph();
  {
    Rng a_rng(9);
    Rng b_rng(9);
    WalkStats stats;
    WalkStatsProbe probe(stats);
    for (int i = 0; i < 30; ++i) {
      const auto a = ctrw_sample(g, 0, 5.0, a_rng);
      const auto b = ctrw_sample(g, 0, 5.0, b_rng, probe);
      EXPECT_EQ(a.node, b.node);
      EXPECT_EQ(a.hops, b.hops);
    }
    EXPECT_EQ(stats.samples, 30u);
    EXPECT_GT(stats.sojourn_time, 0.0);
  }
  {
    MetropolisSampler a_walker(g, 64, Rng(11));
    MetropolisSampler b_walker(g, 64, Rng(11));
    WalkStats stats;
    WalkStatsProbe probe(stats);
    for (int i = 0; i < 30; ++i) {
      const auto a = a_walker.sample(0);
      const auto b = b_walker.sample(0, probe);
      EXPECT_EQ(a.node, b.node);
      EXPECT_EQ(a.hops, b.hops);
    }
    EXPECT_EQ(stats.samples, 30u);
    EXPECT_GT(stats.rejects, 0u);  // Metropolis on heterogeneous degrees
  }
  {
    SampleCollideEstimator a_est(g, 0, 5.0, 10, Rng(13));
    SampleCollideEstimator b_est(g, 0, 5.0, 10, Rng(13));
    WalkStats stats;
    WalkStatsProbe probe(stats);
    const auto a = a_est.estimate();
    const auto b = b_est.estimate(probe);
    EXPECT_EQ(a.simple, b.simple);
    EXPECT_EQ(a.ml, b.ml);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(stats.collisions, 10u);
    EXPECT_EQ(stats.collision_gaps.count, 10u);
  }
}

TEST(ProbeDeterminism, ProbedBatchAggregatesIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  constexpr std::size_t kTours = 64;
  constexpr std::uint64_t kSeed = 21;

  WalkStats base_stats;
  ParallelRunner one(1);
  const auto base =
      run_tours_size_probed(g, 0, kTours, kSeed, one, base_stats);
  ASSERT_TRUE(base.ok());

  for (const unsigned threads : {2u, 8u}) {
    WalkStats stats;
    ParallelRunner runner(threads);
    const auto batch =
        run_tours_size_probed(g, 0, kTours, kSeed, runner, stats);
    EXPECT_EQ(batch.sum, base.sum);  // bitwise, not approximate
    EXPECT_EQ(batch.total_steps, base.total_steps);
    EXPECT_EQ(batch.completed, base.completed);
    expect_same_walk_stats(stats, base_stats);
  }

  // And the probed batch reproduces the unprobed batch exactly.
  ParallelRunner four(4);
  const auto plain = run_tours_size(g, 0, kTours, kSeed, four);
  EXPECT_EQ(plain.sum, base.sum);
  EXPECT_EQ(plain.total_steps, base.total_steps);

  // The fold itself is consistent: per-batch probe counts match the batch.
  EXPECT_EQ(base_stats.tours, kTours);
  EXPECT_EQ(base_stats.completed_tours, base.completed);
  EXPECT_EQ(base_stats.tour_steps.sum, base.total_steps);
}

TEST(ProbeDeterminism, ProbedScBatchesIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  WalkStats one_stats;
  ParallelRunner one(1);
  const auto one_batch =
      run_sc_trials_probed(g, 0, 12, 5.0, 8, 33, one, one_stats);

  WalkStats many_stats;
  ParallelRunner many(8);
  const auto many_batch =
      run_sc_trials_probed(g, 0, 12, 5.0, 8, 33, many, many_stats);

  EXPECT_EQ(one_batch.sum_simple, many_batch.sum_simple);
  EXPECT_EQ(one_batch.sum_ml, many_batch.sum_ml);
  EXPECT_EQ(one_batch.total_hops, many_batch.total_hops);
  expect_same_walk_stats(one_stats, many_stats);
  EXPECT_EQ(one_stats.collisions, 12u * 8u);
}

TEST(Probes, WalkStatsProbeCountsRevisitsPerWalk) {
  // Triangle: a 3-step tour 0 -> 1 -> 2 -> 0 revisits nothing en route; the
  // probe sees the two intermediate nodes as fresh. Walking the SAME nodes
  // again in a second walk must not count as revisits (per-walk scoping).
  WalkStats stats;
  WalkStatsProbe probe(stats);
  probe.walk_begin(0);
  probe.on_visit(1);
  probe.on_visit(2);
  probe.on_visit(1);  // genuine revisit within the walk
  probe.tour_end(4, true);
  probe.walk_begin(0);
  probe.on_visit(1);  // fresh again: new walk
  probe.tour_end(2, false);
  EXPECT_EQ(stats.walks, 2u);
  EXPECT_EQ(stats.visits, 6u);
  EXPECT_EQ(stats.revisits, 1u);
  EXPECT_EQ(stats.completed_tours, 1u);
  EXPECT_EQ(stats.truncated_tours, 1u);
  EXPECT_EQ(stats.tour_steps.sum, 6u);
}

TEST(Probes, RegistryProbeStreamsIntoRegistry) {
  const Graph g = test_graph();
  MetricsRegistry registry;
  RegistryProbe probe(registry, "walk");
  Rng plain_rng(15);
  Rng probed_rng(15);
  double plain_sum = 0.0;
  double probed_sum = 0.0;
  for (int i = 0; i < 20; ++i) {
    plain_sum += random_tour_size(g, 0, plain_rng).value;
    probed_sum += random_tour_size(g, 0, probed_rng, ~0ULL, probe).value;
  }
  EXPECT_EQ(plain_sum, probed_sum);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero("walk.walks"), 20u);
  EXPECT_EQ(snap.counter_or_zero("walk.tours"), 20u);
  EXPECT_EQ(snap.counter_or_zero("walk.tours_truncated"), 0u);
  EXPECT_GT(snap.counter_or_zero("walk.visits"), 20u);
  ASSERT_FALSE(snap.histograms.empty());
  // tour_steps histogram carries one entry per tour.
  for (const auto& [name, h] : snap.histograms) {
    if (name == "walk.tour_steps") {
      EXPECT_EQ(h.count, 20u);
    }
  }
}

}  // namespace
}  // namespace overcount
