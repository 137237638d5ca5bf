// The interleaved walk kernel's whole value rests on one claim: it is a
// pure reordering of memory traffic, not of randomness. These tests pin the
// claim bit-for-bit against the scalar reference (random_tour, ctrw_sample,
// SampleCollideEstimator), probed and unprobed, including max_steps
// truncation, at two levels:
//  * the kernels themselves (tour_kernel, ctrw_kernel, sc_kernel) called
//    directly at widths {1, 2, 4, 16};
//  * the batch APIs, which run every batch through the kernel at the fixed
//    chunk width, at batch sizes {1, 8, 15, 16, 17, 40} x threads {1, 2, 8}.
//    Batches below 16 walks run as one-walk kernel chunks, so the sizes
//    straddle both chunk shapes; 8 is the serve planner's minimum batch.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "walk/kernel.hpp"

namespace overcount {
namespace {

constexpr std::uint64_t kSeed = 0xFEEDBEEF;
const std::size_t kWidths[] = {1, 2, 4, 16};
const unsigned kThreads[] = {1, 2, 8};
const std::size_t kBatchSizes[] = {1, 8, 15, 16, 17, 40};

Graph test_graph() {
  Rng rng(99);
  return balanced_random_graph(400, rng);
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

void expect_same_tours(std::span<const TourEstimate> got,
                       std::span<const TourEstimate> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << "tour " << i;  // bitwise
    EXPECT_EQ(got[i].steps, want[i].steps) << "tour " << i;
    EXPECT_EQ(got[i].completed, want[i].completed) << "tour " << i;
  }
}

void expect_same_samples(std::span<const SampleResult> got,
                         std::span<const SampleResult> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "sample " << i;
    EXPECT_EQ(got[i].hops, want[i].hops) << "sample " << i;
  }
}

void expect_same_trials(std::span<const ScEstimate> got,
                        std::span<const ScEstimate> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "trial=" << i);
    EXPECT_EQ(got[i].ml, want[i].ml);  // bitwise
    EXPECT_EQ(got[i].simple, want[i].simple);
    EXPECT_EQ(got[i].n_minus, want[i].n_minus);
    EXPECT_EQ(got[i].n_plus, want[i].n_plus);
    EXPECT_EQ(got[i].samples, want[i].samples);
    EXPECT_EQ(got[i].hops, want[i].hops);
    EXPECT_EQ(got[i].replies, want[i].replies);
  }
}

/// Per-walk results of one run plus the fold of its per-walk WalkStats
/// (left empty by unprobed runs).
template <typename R>
struct Run {
  std::vector<R> results;
  WalkStats folded;
};

/// One WalkStatsProbe per walk over `per_walk`.
std::vector<WalkStatsProbe> probes_over(std::vector<WalkStats>& per_walk) {
  return {per_walk.begin(), per_walk.end()};
}

// --- Scalar references: one stream per walk, always probed (probes never
// draw, so the results equal the unprobed walks). ---

Run<TourEstimate> scalar_tours(const Graph& g, NodeId origin, std::size_t m,
                               std::uint64_t max_steps = ~0ULL) {
  auto streams = derive_streams(kSeed, m);
  std::vector<WalkStats> per_walk(m);
  Run<TourEstimate> run;
  for (std::size_t i = 0; i < m; ++i) {
    WalkStatsProbe probe(per_walk[i]);
    run.results.push_back(
        random_tour_size(g, origin, streams[i], max_steps, probe));
  }
  run.folded = detail::fold_walk_stats(per_walk);
  return run;
}

Run<SampleResult> scalar_samples(const Graph& g, std::size_t m,
                                 double timer) {
  auto streams = derive_streams(kSeed, m);
  std::vector<WalkStats> per_walk(m);
  Run<SampleResult> run;
  for (std::size_t i = 0; i < m; ++i) {
    WalkStatsProbe probe(per_walk[i]);
    run.results.push_back(ctrw_sample(g, 0, timer, streams[i], probe));
  }
  run.folded = detail::fold_walk_stats(per_walk);
  return run;
}

Run<ScEstimate> scalar_trials(const Graph& g, std::size_t trials,
                              double timer, std::size_t ell) {
  auto streams = derive_streams(kSeed, trials);
  std::vector<WalkStats> per_walk(trials);
  Run<ScEstimate> run;
  for (std::size_t i = 0; i < trials; ++i) {
    SampleCollideEstimator estimator(g, 0, timer, ell, streams[i]);
    WalkStatsProbe probe(per_walk[i]);
    run.results.push_back(estimator.estimate(probe));
  }
  run.folded = detail::fold_walk_stats(per_walk);
  return run;
}

// --- Direct kernel calls: all m walks in one call at `width`. ---

Run<TourEstimate> kernel_tours(const Graph& g, NodeId origin, std::size_t m,
                               std::size_t width, bool probed,
                               std::uint64_t max_steps = ~0ULL) {
  auto streams = derive_streams(kSeed, m);
  auto f = [](NodeId) { return 1.0; };
  Run<TourEstimate> run;
  run.results.resize(m);
  std::vector<WalkStats> per_walk(m);
  if (probed) {
    auto probes = probes_over(per_walk);
    tour_kernel(g, origin, f, std::span<Rng>(streams),
                std::span<TourEstimate>(run.results), width, max_steps,
                std::span<WalkStatsProbe>(probes));
    run.folded = detail::fold_walk_stats(per_walk);
  } else {
    tour_kernel(g, origin, f, std::span<Rng>(streams),
                std::span<TourEstimate>(run.results), width, max_steps);
  }
  return run;
}

Run<SampleResult> kernel_samples(const Graph& g, std::size_t m, double timer,
                                 std::size_t width, bool probed) {
  auto streams = derive_streams(kSeed, m);
  Run<SampleResult> run;
  run.results.resize(m);
  std::vector<WalkStats> per_walk(m);
  if (probed) {
    auto probes = probes_over(per_walk);
    ctrw_kernel(g, 0, timer, std::span<Rng>(streams),
                std::span<SampleResult>(run.results), width,
                std::span<WalkStatsProbe>(probes));
    run.folded = detail::fold_walk_stats(per_walk);
  } else {
    ctrw_kernel(g, 0, timer, std::span<Rng>(streams),
                std::span<SampleResult>(run.results), width);
  }
  return run;
}

Run<ScEstimate> kernel_trials(const Graph& g, std::size_t trials,
                              double timer, std::size_t ell,
                              std::size_t width, bool probed) {
  auto streams = derive_streams(kSeed, trials);
  std::vector<ScTrialRaw> raw(trials);
  std::vector<WalkStats> per_walk(trials);
  Run<ScEstimate> run;
  if (probed) {
    auto probes = probes_over(per_walk);
    sc_kernel(g, 0, timer, ell, std::span<Rng>(streams),
              std::span<ScTrialRaw>(raw), width,
              std::span<WalkStatsProbe>(probes));
    run.folded = detail::fold_walk_stats(per_walk);
  } else {
    sc_kernel(g, 0, timer, ell, std::span<Rng>(streams),
              std::span<ScTrialRaw>(raw), width);
  }
  for (const ScTrialRaw& r : raw)
    run.results.push_back(detail::finalize_sc_trial(r, ell));
  return run;
}

TEST(KernelEquivalence, ToursBitIdenticalToScalarAcrossWidthsAndThreads) {
  const Graph g = test_graph();
  const std::size_t m = 48;
  const auto reference = scalar_tours(g, 0, m);
  for (std::size_t width : kWidths) {
    SCOPED_TRACE(::testing::Message() << "kernel width=" << width);
    expect_same_tours(kernel_tours(g, 0, m, width, false).results,
                      reference.results);
  }

  for (std::size_t batch_size : kBatchSizes) {
    const auto want = scalar_tours(g, 0, batch_size);
    for (unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << batch_size << " threads=" << threads);
      ParallelRunner runner(threads);
      const auto batch = run_tours_size(g, 0, batch_size, kSeed, runner);
      expect_same_tours(batch.tours, want.results);
      EXPECT_EQ(batch.stats.tasks, batch_size);  // chunking must not leak
      EXPECT_EQ(batch.stats.steps, want.folded.tour_steps.sum);
    }
  }
}

TEST(KernelEquivalence, ProbedToursFoldIdenticalWalkStats) {
  const Graph g = test_graph();
  const std::size_t m = 48;
  const auto reference = scalar_tours(g, 0, m);
  for (std::size_t width : kWidths) {
    SCOPED_TRACE(::testing::Message() << "kernel width=" << width);
    const auto run = kernel_tours(g, 0, m, width, true);
    expect_same_tours(run.results, reference.results);
    expect_same_walk_stats(run.folded, reference.folded);
  }

  for (std::size_t batch_size : kBatchSizes) {
    const auto want = scalar_tours(g, 0, batch_size);
    for (unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << batch_size << " threads=" << threads);
      ParallelRunner runner(threads);
      WalkStats walk_stats;
      const auto batch =
          run_tours_size_probed(g, 0, batch_size, kSeed, runner, walk_stats);
      expect_same_tours(batch.tours, want.results);
      expect_same_walk_stats(walk_stats, want.folded);
      EXPECT_EQ(batch.stats.tasks, batch_size);
      EXPECT_EQ(walk_stats.tours, batch_size);
      EXPECT_EQ(walk_stats.tour_steps.sum, batch.total_steps);
    }
  }
}

TEST(KernelEquivalence, MaxStepsTruncationParity) {
  // On a ring every tour is long, so tight caps truncate aggressively; the
  // kernel must flag and cap exactly like the scalar loop, including the
  // max_steps == 1 edge (first step checked before any accumulation).
  const Graph g = ring(64);
  const std::size_t m = 32;
  for (std::uint64_t max_steps : {std::uint64_t{1}, std::uint64_t{5},
                                  std::uint64_t{200}}) {
    const auto reference = scalar_tours(g, 7, m, max_steps);
    for (std::size_t width : kWidths) {
      for (bool probed : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "max_steps=" << max_steps << " kernel width="
                     << width << " probed=" << probed);
        const auto run = kernel_tours(g, 7, m, width, probed, max_steps);
        expect_same_tours(run.results, reference.results);
        if (probed) expect_same_walk_stats(run.folded, reference.folded);
      }
    }

    for (std::size_t batch_size : kBatchSizes) {
      const auto want = scalar_tours(g, 7, batch_size, max_steps);
      std::size_t truncated = 0;
      for (const auto& t : want.results)
        if (!t.completed) ++truncated;
      for (unsigned threads : kThreads) {
        SCOPED_TRACE(::testing::Message()
                     << "max_steps=" << max_steps << " m=" << batch_size
                     << " threads=" << threads);
        ParallelRunner runner(threads);
        const auto plain =
            run_tours_size(g, 7, batch_size, kSeed, runner, max_steps);
        WalkStats walk_stats;
        const auto batch = run_tours_size_probed(g, 7, batch_size, kSeed,
                                                 runner, walk_stats,
                                                 max_steps);
        expect_same_tours(plain.tours, want.results);
        expect_same_tours(batch.tours, want.results);
        EXPECT_EQ(plain.truncated, truncated);
        EXPECT_EQ(batch.truncated, truncated);
        EXPECT_EQ(walk_stats.truncated_tours, truncated);
        EXPECT_EQ(batch.stats.tasks, batch_size);
      }
    }
  }
}

TEST(KernelEquivalence, CtrwSamplesBitIdenticalToScalar) {
  const Graph g = test_graph();
  const std::size_t m = 40;
  const double timer = 3.0;
  const auto reference = scalar_samples(g, m, timer);
  for (std::size_t width : kWidths) {
    for (bool probed : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "kernel width=" << width << " probed=" << probed);
      const auto run = kernel_samples(g, m, timer, width, probed);
      expect_same_samples(run.results, reference.results);
      if (probed) expect_same_walk_stats(run.folded, reference.folded);
    }
  }

  for (std::size_t batch_size : kBatchSizes) {
    const auto want = scalar_samples(g, batch_size, timer);
    for (unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << batch_size << " threads=" << threads);
      ParallelRunner runner(threads);
      const auto batch = run_samples(g, 0, batch_size, timer, kSeed, runner);
      WalkStats walk_stats;
      const auto probed = run_samples_probed(g, 0, batch_size, timer, kSeed,
                                             runner, walk_stats);
      expect_same_samples(batch.samples, want.results);
      expect_same_samples(probed.samples, want.results);
      expect_same_walk_stats(walk_stats, want.folded);
      EXPECT_EQ(batch.stats.tasks, batch_size);
      EXPECT_EQ(probed.stats.tasks, batch_size);
      EXPECT_EQ(walk_stats.samples, batch_size);
      EXPECT_EQ(walk_stats.sample_hops.sum, batch.total_hops);
    }
  }
}

TEST(KernelEquivalence, ScTrialsBitIdenticalToScalar) {
  const Graph g = test_graph();
  const std::size_t trials = 24;
  const std::size_t ell = 4;
  const double timer = 2.5;
  const auto reference = scalar_trials(g, trials, timer, ell);
  for (std::size_t width : kWidths) {
    for (bool probed : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "kernel width=" << width << " probed=" << probed);
      const auto run = kernel_trials(g, trials, timer, ell, width, probed);
      expect_same_trials(run.results, reference.results);
      if (probed) expect_same_walk_stats(run.folded, reference.folded);
    }
  }

  for (std::size_t batch_size : kBatchSizes) {
    const auto want = scalar_trials(g, batch_size, timer, ell);
    for (unsigned threads : kThreads) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << batch_size << " threads=" << threads);
      ParallelRunner runner(threads);
      const auto batch =
          run_sc_trials(g, 0, batch_size, timer, ell, kSeed, runner);
      WalkStats walk_stats;
      const auto probed = run_sc_trials_probed(g, 0, batch_size, timer, ell,
                                               kSeed, runner, walk_stats);
      expect_same_trials(batch.trials, want.results);
      expect_same_trials(probed.trials, want.results);
      expect_same_walk_stats(walk_stats, want.folded);
      EXPECT_EQ(batch.stats.tasks, batch_size);
      EXPECT_EQ(probed.stats.tasks, batch_size);
      EXPECT_EQ(walk_stats.collisions, batch_size * ell);
    }
  }
}

// The direct kernel API must agree with itself at any width, including a
// width wider than the batch (lanes simply refill less).
TEST(KernelEquivalence, DirectKernelWidthInvariance) {
  const Graph g = test_graph();
  const std::size_t m = 20;
  std::vector<TourEstimate> by_width[2];
  std::size_t slot = 0;
  for (std::size_t width : {std::size_t{3}, std::size_t{64}}) {
    auto streams = derive_streams(kSeed, m);
    std::vector<TourEstimate> out(m);
    tour_kernel(
        g, 0, [](NodeId) { return 1.0; }, std::span<Rng>(streams),
        std::span<TourEstimate>(out), width);
    by_width[slot++] = std::move(out);
  }
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(by_width[0][i].value, by_width[1][i].value);
    EXPECT_EQ(by_width[0][i].steps, by_width[1][i].steps);
  }
}

}  // namespace
}  // namespace overcount
