#include "runtime/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "core/parallel.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"

namespace overcount {
namespace {

Graph test_graph() {
  Rng rng(41);
  return largest_component(balanced_random_graph(300, rng));
}

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  ParallelRunner runner(4);
  std::vector<int> hits(100, 0);
  runner.run<int>(hits.size(), [&](std::size_t i) { return ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelRunner, ResultsAreInTaskIndexOrder) {
  ParallelRunner runner(8);
  const auto out = runner.run<std::size_t>(
      1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, EmptyBatch) {
  ParallelRunner runner(4);
  BatchStats stats;
  const auto out = runner.run<int>(
      0, [](std::size_t) { return 1; }, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.threads, 4u);
}

TEST(ParallelRunner, SingleTask) {
  ParallelRunner runner(8);
  const auto out = runner.run<int>(1, [](std::size_t) { return 7; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(ParallelRunner, ZeroThreadsMeansHardwareConcurrency) {
  ParallelRunner runner(0);
  EXPECT_GE(runner.thread_count(), 1u);
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner runner(3);
  for (int round = 0; round < 20; ++round) {
    const auto out = runner.run<int>(
        17, [&](std::size_t i) { return round + static_cast<int>(i); });
    EXPECT_EQ(out[16], round + 16);
  }
}

TEST(ParallelRunner, PropagatesTaskException) {
  ParallelRunner runner(4);
  EXPECT_THROW(runner.run<int>(50,
                               [](std::size_t i) {
                                 if (i == 13)
                                   throw std::runtime_error("task 13 failed");
                                 return 0;
                               }),
               std::runtime_error);
}

TEST(ParallelRunner, RethrowsLowestIndexExceptionDeterministically) {
  // Two tasks throw; whichever worker hits one first, the caller must see
  // the LOWEST task index so failures are reproducible across schedules.
  ParallelRunner runner(8);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      runner.run<int>(64, [](std::size_t i) -> int {
        if (i == 5) throw std::runtime_error("five");
        if (i == 40) throw std::runtime_error("forty");
        return 0;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "five");
    }
  }
}

TEST(ParallelRunner, FillsBatchStats) {
  ParallelRunner runner(2);
  BatchStats stats;
  runner.run<int>(
      200,
      [](std::size_t i) {
        volatile double x = 0.0;
        for (int k = 0; k < 1000; ++k) x += static_cast<double>(k + i);
        return static_cast<int>(x);
      },
      &stats);
  EXPECT_EQ(stats.tasks, 200u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.cpu_seconds, 0.0);
}

TEST(DeriveStreams, PureInSeedAndIndex) {
  auto a = derive_streams(99, 8);
  auto b = derive_streams(99, 8);
  auto c = derive_streams(100, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i].next(), b[i].next()) << i;
    EXPECT_NE(a[i].next(), c[i].next()) << i;
  }
  // A longer batch re-derives the same prefix: stream i depends only on
  // (seed, i), never on the batch size.
  auto longer = derive_streams(99, 16);
  auto fresh = derive_streams(99, 8);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(longer[i].next(), fresh[i].next()) << i;
}

TEST(TreeReduce, MatchesSerialSumExactlyOnIntegers) {
  std::vector<double> xs(1000);
  std::iota(xs.begin(), xs.end(), 1.0);
  EXPECT_EQ(tree_sum(xs), 500500.0);
}

TEST(TreeReduce, EmptyAndSingleton) {
  EXPECT_EQ(tree_sum({}), 0.0);
  const std::vector<double> one{3.25};
  EXPECT_EQ(tree_sum(one), 3.25);
}

TEST(TreeReduce, FixedAssociationOrder) {
  // 7 elements: ((a+b)+(c+d)) + ((e+f)+g). Verified against the hand-rolled
  // tree so the reduction shape can never silently change.
  const std::vector<double> xs{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  const double expected =
      (((0.1 + 0.2) + (0.3 + 0.4)) + ((0.5 + 0.6) + 0.7));
  EXPECT_EQ(tree_sum(xs), expected);
}

TEST(TreeReduce, GenericOperator) {
  const std::vector<std::uint64_t> xs{3, 5, 7, 11};
  const auto product = tree_reduce(
      std::span<const std::uint64_t>(xs), std::uint64_t{1},
      [](std::uint64_t a, std::uint64_t b) { return a * b; });
  EXPECT_EQ(product, 1155u);
}

// --- Bit-identical batches across thread counts (the acceptance check) ---

template <typename Batch>
void expect_same_tour_batch(const Batch& a, const Batch& b) {
  ASSERT_EQ(a.tours.size(), b.tours.size());
  for (std::size_t i = 0; i < a.tours.size(); ++i) {
    EXPECT_EQ(a.tours[i].value, b.tours[i].value) << "tour " << i;
    EXPECT_EQ(a.tours[i].steps, b.tours[i].steps) << "tour " << i;
    EXPECT_EQ(a.tours[i].completed, b.tours[i].completed) << "tour " << i;
  }
  EXPECT_EQ(a.sum, b.sum);  // bit-identical, not just approximately equal
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.truncated, b.truncated);
}

TEST(ParallelBatches, ToursBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  ParallelRunner r1(1), r2(2), r8(8);
  const auto one = run_tours_size(g, 0, 200, /*seed=*/7, r1);
  const auto two = run_tours_size(g, 0, 200, 7, r2);
  const auto eight = run_tours_size(g, 0, 200, 7, r8);
  expect_same_tour_batch(one, two);
  expect_same_tour_batch(one, eight);
  EXPECT_GT(one.mean(), 0.0);
}

TEST(ParallelBatches, SamplesBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  ParallelRunner r1(1), r2(2), r8(8);
  const auto one = run_samples(g, 0, 500, /*timer=*/6.0, /*seed=*/11, r1);
  const auto two = run_samples(g, 0, 500, 6.0, 11, r2);
  const auto eight = run_samples(g, 0, 500, 6.0, 11, r8);
  ASSERT_EQ(one.samples.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(one.samples[i].node, two.samples[i].node) << i;
    EXPECT_EQ(one.samples[i].node, eight.samples[i].node) << i;
    EXPECT_EQ(one.samples[i].hops, eight.samples[i].hops) << i;
  }
  EXPECT_EQ(one.total_hops, two.total_hops);
  EXPECT_EQ(one.total_hops, eight.total_hops);
}

TEST(ParallelBatches, ScTrialsBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  ParallelRunner r1(1), r2(2), r8(8);
  const auto one = run_sc_trials(g, 0, 12, /*timer=*/6.0, /*ell=*/5,
                                 /*seed=*/13, r1);
  const auto two = run_sc_trials(g, 0, 12, 6.0, 5, 13, r2);
  const auto eight = run_sc_trials(g, 0, 12, 6.0, 5, 13, r8);
  ASSERT_EQ(one.trials.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(one.trials[i].simple, eight.trials[i].simple) << i;
    EXPECT_EQ(one.trials[i].ml, eight.trials[i].ml) << i;
    EXPECT_EQ(one.trials[i].samples, eight.trials[i].samples) << i;
    EXPECT_EQ(one.trials[i].hops, two.trials[i].hops) << i;
  }
  EXPECT_EQ(one.sum_simple, two.sum_simple);
  EXPECT_EQ(one.sum_simple, eight.sum_simple);
  EXPECT_EQ(one.sum_ml, eight.sum_ml);
  EXPECT_TRUE(one.ok());

  // A zero-trial batch has no estimate: ok() is false and both means are
  // NaN, never 0.0 (which reads as "the overlay is empty").
  const auto empty = run_sc_trials(g, 0, 0, 6.0, 5, 13, r2);
  EXPECT_TRUE(empty.trials.empty());
  EXPECT_FALSE(empty.ok());
  EXPECT_TRUE(std::isnan(empty.mean_simple()));
  EXPECT_TRUE(std::isnan(empty.mean_ml()));
  EXPECT_EQ(empty.total_hops, 0u);
}

TEST(ParallelBatches, MetropolisBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  ParallelRunner r1(1), r8(8);
  const auto one = run_metropolis_samples(g, 0, 300, /*steps=*/64,
                                          /*seed=*/17, r1);
  const auto eight = run_metropolis_samples(g, 0, 300, 64, 17, r8);
  for (std::size_t i = 0; i < 300; ++i)
    EXPECT_EQ(one.samples[i].node, eight.samples[i].node) << i;
  EXPECT_EQ(one.total_hops, eight.total_hops);
}

TEST(ParallelBatches, ReusedRunnerMatchesThrowawayPool) {
  const Graph g = test_graph();
  ParallelRunner runner(3);
  const auto reused = run_tours_size(g, 0, 100, 23, runner);
  ParallelRunner throwaway(5);
  const auto fresh = run_tours_size(g, 0, 100, 23, throwaway);
  expect_same_tour_batch(reused, fresh);
}

TEST(ParallelBatches, TruncatedToursAreDroppedAndReported) {
  // On a ring a 1-step tour can never return to the origin, so every tour
  // in the batch is truncated; the batch must drop them all from the
  // aggregate instead of averaging biased partial values.
  const Graph g = ring(64);
  ParallelRunner runner(2);
  const auto batch = run_tours_size(g, 0, 32, /*seed=*/3, runner,
                                    /*max_steps=*/1);
  EXPECT_EQ(batch.truncated, 32u);
  EXPECT_EQ(batch.completed, 0u);
  // All-truncated batches carry no unbiased information: mean() must be NaN
  // (never 0.0, which reads as "the overlay is empty") and ok() false.
  EXPECT_FALSE(batch.ok());
  EXPECT_TRUE(std::isnan(batch.mean()));
  EXPECT_EQ(batch.total_steps, 32u);
  for (const auto& t : batch.tours) EXPECT_FALSE(t.completed);

  // With no cap every ring tour completes.
  const auto full = run_tours_size(g, 0, 32, 3, runner);
  EXPECT_EQ(full.truncated, 0u);
  EXPECT_EQ(full.completed, 32u);
  EXPECT_TRUE(full.ok());
  EXPECT_GT(full.mean(), 0.0);
}

TEST(ParallelBatches, BatchStatsCountDomainSteps) {
  const Graph g = test_graph();
  ParallelRunner runner(2);
  const auto batch = run_tours_size(g, 0, 50, 29, runner);
  EXPECT_EQ(batch.stats.tasks, 50u);
  EXPECT_EQ(batch.stats.steps, batch.total_steps);
  EXPECT_GT(batch.stats.steps, 0u);
  EXPECT_EQ(batch.stats.threads, 2u);
}

// --- Bit-identical batches at every shape of the lane bands ---
//
// A batch runs min(threads, m) drive_lanes calls of width min(16, ceil(m /
// workers)) over one shared walk cursor. The sizes below give widths 1 to
// 16 and uneven last claims (17 and 33 walks leave one walk over a full
// band); the thread counts include 3, which divides none of them evenly.
// Every shape must reproduce the 1-thread batch bit for bit: plain, probed
// and monitored.

const unsigned kLaneThreads[] = {1, 2, 3, 4, 8};

void expect_same_walk_stats(const WalkStats& a, const WalkStats& b) {
  EXPECT_EQ(a.walks, b.walks);
  EXPECT_EQ(a.visits, b.visits);
  EXPECT_EQ(a.revisits, b.revisits);
  EXPECT_EQ(a.tours, b.tours);
  EXPECT_EQ(a.completed_tours, b.completed_tours);
  EXPECT_EQ(a.truncated_tours, b.truncated_tours);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.sojourn_time, b.sojourn_time);  // bitwise: tree-reduced
  EXPECT_EQ(a.tour_steps.sum, b.tour_steps.sum);
  EXPECT_EQ(a.sample_hops.sum, b.sample_hops.sum);
  EXPECT_EQ(a.collision_gaps.sum, b.collision_gaps.sum);
}

void expect_same_sample_batch(const SampleBatch& a, const SampleBatch& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].node, b.samples[i].node) << "sample " << i;
    EXPECT_EQ(a.samples[i].hops, b.samples[i].hops) << "sample " << i;
  }
  EXPECT_EQ(a.total_hops, b.total_hops);
}

void expect_same_sc_batch(const ScBatch& a, const ScBatch& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].simple, b.trials[i].simple) << "trial " << i;
    EXPECT_EQ(a.trials[i].ml, b.trials[i].ml) << "trial " << i;
    EXPECT_EQ(a.trials[i].samples, b.trials[i].samples) << "trial " << i;
    EXPECT_EQ(a.trials[i].hops, b.trials[i].hops) << "trial " << i;
  }
  EXPECT_EQ(a.sum_simple, b.sum_simple);
  EXPECT_EQ(a.sum_ml, b.sum_ml);
  EXPECT_EQ(a.total_hops, b.total_hops);
}

class LaneShapes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LaneShapes, ToursBitIdenticalAtEveryThreadCount) {
  const Graph g = test_graph();
  const std::size_t m = GetParam();
  constexpr std::uint64_t kSeed = 31;
  ParallelRunner reference(1);
  const auto want = run_tours_size(g, 0, m, kSeed, reference);
  WalkStats want_stats;
  run_tours_size_probed(g, 0, m, kSeed, reference, want_stats);
  for (const unsigned threads : kLaneThreads) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ParallelRunner runner(threads);
    expect_same_tour_batch(run_tours_size(g, 0, m, kSeed, runner), want);
    WalkStats stats;
    expect_same_tour_batch(
        run_tours_size_probed(g, 0, m, kSeed, runner, stats), want);
    expect_same_walk_stats(stats, want_stats);
    TimeSeriesRecorder recorder;
    ConvergenceOptions opts;
    opts.interval = 5;  // intervals that split the lane bands unevenly
    const auto monitored =
        run_tours_size_converging(g, 0, m, kSeed, runner, recorder, opts);
    expect_same_tour_batch(monitored, want);
    EXPECT_EQ(monitored.stats.tasks, m);
  }
}

TEST_P(LaneShapes, SamplesBitIdenticalAtEveryThreadCount) {
  const Graph g = test_graph();
  const std::size_t m = GetParam();
  constexpr std::uint64_t kSeed = 37;
  ParallelRunner reference(1);
  const auto want = run_samples(g, 0, m, /*timer=*/6.0, kSeed, reference);
  WalkStats want_stats;
  run_samples_probed(g, 0, m, 6.0, kSeed, reference, want_stats);
  for (const unsigned threads : kLaneThreads) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ParallelRunner runner(threads);
    expect_same_sample_batch(run_samples(g, 0, m, 6.0, kSeed, runner), want);
    WalkStats stats;
    expect_same_sample_batch(
        run_samples_probed(g, 0, m, 6.0, kSeed, runner, stats), want);
    expect_same_walk_stats(stats, want_stats);
  }
}

TEST_P(LaneShapes, ScTrialsBitIdenticalAtEveryThreadCount) {
  const Graph g = test_graph();
  const std::size_t m = GetParam();
  constexpr std::uint64_t kSeed = 41;
  constexpr double kTimer = 6.0;
  constexpr std::size_t kEll = 4;
  ParallelRunner reference(1);
  const auto want = run_sc_trials(g, 0, m, kTimer, kEll, kSeed, reference);
  WalkStats want_stats;
  run_sc_trials_probed(g, 0, m, kTimer, kEll, kSeed, reference, want_stats);
  EXPECT_EQ(want_stats.collisions, m * kEll);
  for (const unsigned threads : kLaneThreads) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ParallelRunner runner(threads);
    expect_same_sc_batch(
        run_sc_trials(g, 0, m, kTimer, kEll, kSeed, runner), want);
    WalkStats stats;
    expect_same_sc_batch(run_sc_trials_probed(g, 0, m, kTimer, kEll, kSeed,
                                              runner, stats),
                         want);
    expect_same_walk_stats(stats, want_stats);
    TimeSeriesRecorder recorder;
    ConvergenceOptions opts;
    opts.interval = 5;
    expect_same_sc_batch(run_sc_converging(g, 0, m, kTimer, kEll, kSeed,
                                           runner, recorder, opts),
                         want);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, LaneShapes,
                         ::testing::Values(std::size_t{1}, std::size_t{3},
                                           std::size_t{16}, std::size_t{17},
                                           std::size_t{33}, std::size_t{64}),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace overcount
