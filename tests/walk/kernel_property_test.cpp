// Property fuzz for the interleaved walk kernel: random graph families and
// degenerate topologies, random origins, random truncation caps — the
// kernel-driven batch must agree bit-for-bit with the scalar walks on every
// draw. Runs under ASan and TSan in CI (`ctest -R '^(runtime|obs|kernel)\.'`
// for TSan), so a lane-state bug that corrupts memory or races on the
// shared result vector surfaces here.
#include <gtest/gtest.h>

#include <vector>

#include "core/parallel.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"
#include "walk/kernel.hpp"

namespace overcount {
namespace {

/// Two k-cliques joined by a single bridge edge: the classic low-conductance
/// degenerate — tours from inside one clique rarely cross, so step counts
/// and truncation behaviour are maximally lopsided.
Graph two_clique_bridge(std::size_t k) {
  GraphBuilder b(2 * k);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = i + 1; j < k; ++j)
        b.add_edge(static_cast<NodeId>(c * k + i),
                   static_cast<NodeId>(c * k + j));
  b.add_edge(static_cast<NodeId>(k - 1), static_cast<NodeId>(k));
  return b.build();
}

std::vector<testing::GraphCase> kernel_fuzz_cases() {
  return {
      {"balanced_lcc_250",
       [](Rng& rng) {
         return largest_component(balanced_random_graph(250, rng));
       },
       0},
      {"scale_free_lcc_250",
       [](Rng& rng) {
         return largest_component(barabasi_albert(250, 2, rng));
       },
       0},
      {"star_40", [](Rng&) { return star(40); }, 40},
      {"path_24", [](Rng&) { return path_graph(24); }, 24},
      {"ring_48", [](Rng&) { return ring(48); }, 48},
      {"two_clique_bridge_12", [](Rng&) { return two_clique_bridge(12); }, 24},
  };
}

class KernelProperty : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(KernelProperty, TourAgreementOnRandomOriginsAndCaps) {
  Rng meta(0xABCD0001);
  for (std::uint64_t round = 0; round < 3; ++round) {
    Rng graph_rng = meta.split();
    const Graph g = GetParam().make(graph_rng);
    ASSERT_GT(g.num_nodes(), 1u);
    const auto origin =
        static_cast<NodeId>(meta.uniform_below(g.num_nodes()));
    if (g.degree(origin) == 0) continue;
    const std::size_t m = 17 + meta.uniform_below(32);
    const std::uint64_t seed = meta.next();
    // Cap roughly at the expected tour length, so some tours truncate.
    const std::uint64_t max_steps =
        1 + meta.uniform_below(2 * g.total_degree() /
                                   std::max<std::size_t>(g.degree(origin), 1) +
                               1);
    SCOPED_TRACE(::testing::Message()
                 << GetParam().name << " round=" << round
                 << " origin=" << origin << " m=" << m
                 << " max_steps=" << max_steps);

    auto streams = derive_streams(seed, m);
    std::vector<TourEstimate> reference;
    reference.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
      reference.push_back(random_tour_size(g, origin, streams[i], max_steps));

    ParallelRunner runner(4);
    const auto batch =
        run_tours_size(g, origin, m, seed, runner, max_steps);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(batch.tours[i].value, reference[i].value);
      EXPECT_EQ(batch.tours[i].steps, reference[i].steps);
      EXPECT_EQ(batch.tours[i].completed, reference[i].completed);
    }
  }
}

TEST_P(KernelProperty, CtrwAgreementOnRandomOrigins) {
  Rng meta(0xABCD0002);
  for (std::uint64_t round = 0; round < 3; ++round) {
    Rng graph_rng = meta.split();
    const Graph g = GetParam().make(graph_rng);
    const auto origin =
        static_cast<NodeId>(meta.uniform_below(g.num_nodes()));
    if (g.degree(origin) == 0) continue;
    const std::size_t m = 17 + meta.uniform_below(24);
    const double timer = 0.5 + 4.0 * meta.uniform();
    const std::uint64_t seed = meta.next();
    SCOPED_TRACE(::testing::Message()
                 << GetParam().name << " round=" << round
                 << " origin=" << origin << " m=" << m << " timer=" << timer);

    auto streams = derive_streams(seed, m);
    std::vector<SampleResult> reference;
    reference.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
      reference.push_back(ctrw_sample(g, origin, timer, streams[i]));

    ParallelRunner runner(4);
    const auto batch = run_samples(g, origin, m, timer, seed, runner);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(batch.samples[i].node, reference[i].node);
      EXPECT_EQ(batch.samples[i].hops, reference[i].hops);
    }
  }
}

TEST_P(KernelProperty, ScAgreementProbedAndUnprobed) {
  Rng meta(0xABCD0003);
  Rng graph_rng = meta.split();
  const Graph g = GetParam().make(graph_rng);
  const auto origin = static_cast<NodeId>(meta.uniform_below(g.num_nodes()));
  if (g.degree(origin) == 0) GTEST_SKIP() << "isolated origin drawn";
  const std::size_t trials = 18;
  const std::size_t ell = 3;
  const double timer = 1.5;
  const std::uint64_t seed = meta.next();

  auto streams = derive_streams(seed, trials);
  std::vector<ScEstimate> reference;
  reference.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    SampleCollideEstimator estimator(g, origin, timer, ell, streams[i]);
    reference.push_back(estimator.estimate());
  }

  ParallelRunner runner(4);
  WalkStats walk_stats;
  const auto batch = run_sc_trials_probed(g, origin, trials, timer, ell,
                                          seed, runner, walk_stats);
  for (std::size_t i = 0; i < trials; ++i) {
    EXPECT_EQ(batch.trials[i].ml, reference[i].ml);
    EXPECT_EQ(batch.trials[i].simple, reference[i].simple);
    EXPECT_EQ(batch.trials[i].samples, reference[i].samples);
    EXPECT_EQ(batch.trials[i].hops, reference[i].hops);
  }
  EXPECT_EQ(walk_stats.collisions, trials * ell);
}

INSTANTIATE_TEST_SUITE_P(Families, KernelProperty,
                         ::testing::ValuesIn(kernel_fuzz_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace overcount
