// Distributional tests for STITCHED sharded walks. Splicing walk segments
// changes which Rng stream supplies each draw (per-node segment
// streams instead of the walk's own), so stitched runs are not bit-identical
// to the scalar path — the correctness claim is instead that the walk LAW is
// untouched: uniform neighbour choice and Exp(d_v) sojourns, per degree
// class. Same harness as tests/core/kernel_statistical_test.cpp, on
// K_{5,11} (degree classes 11 and 5, both non-powers-of-two, so modulo bias
// in segment generation cannot hide), but driving the walks through a
// 4-shard engine with stitching enabled — on this graph almost every node
// is a boundary node, so segments supply the bulk of the steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/parallel_runner.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"
#include "util/tests.hpp"

namespace overcount {
namespace {

/// Records one walk's full trajectory (see kernel_statistical_test.cpp):
/// sojourns[i] was spent at nodes[i]; each walk's last sojourn is truncated
/// by the dying timer.
struct TraceProbe {
  static constexpr bool enabled = true;
  std::vector<std::uint64_t>* nodes;
  std::vector<double>* sojourns;
  void walk_begin(std::uint64_t origin) { nodes->push_back(origin); }
  void on_visit(std::uint64_t node) { nodes->push_back(node); }
  void on_sojourn(double dt) { sojourns->push_back(dt); }
  void on_reject() {}
  void on_collision(std::uint64_t) {}
  void tour_end(std::uint64_t, bool) {}
  void sample_end(std::uint64_t) {}
};

static_assert(WalkProbe<TraceProbe>);

constexpr std::size_t kLeft = 5;    // nodes 0..4, degree 11
constexpr std::size_t kRight = 11;  // nodes 5..15, degree 5
constexpr std::size_t kWalks = 600;
constexpr double kTimer = 8.0;
constexpr std::uint64_t kSeed = 0x5EEDC0DE;
constexpr double kAlpha = 1e-3;
constexpr std::uint32_t kShards = 4;

struct Traces {
  std::vector<std::vector<std::uint64_t>> nodes;
  std::vector<std::vector<double>> sojourns;
};

/// Runs `walks` CTRW sampling walks through a stitched 4-shard engine and
/// returns every trajectory plus the engine's run stats.
Traces run_stitched_traces(const Graph& g, NodeId origin, std::size_t walks,
                           double timer, std::uint64_t stitch_seed,
                           ShardRunStats* stats_out) {
  Traces traces;
  traces.nodes.resize(walks);
  traces.sojourns.resize(walks);
  std::vector<TraceProbe> probes;
  probes.reserve(walks);
  for (std::size_t i = 0; i < walks; ++i)
    probes.push_back({&traces.nodes[i], &traces.sojourns[i]});

  const ShardPlan plan = make_shard_plan(g, kShards);
  const ShardedGraph sharded(g, plan);
  StitchConfig cfg;
  cfg.seed = stitch_seed;
  SegmentStore store(sharded, cfg);
  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner);
  engine.enable_stitching(store);
  engine.run_samples(origin, walks, timer, kSeed,
                     std::span<TraceProbe>(probes));
  *stats_out = engine.last_run_stats();
  return traces;
}

std::size_t neighbor_rank(const Graph& g, NodeId u, NodeId v) {
  const auto nbrs = g.neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  EXPECT_TRUE(it != nbrs.end() && *it == v);
  return static_cast<std::size_t>(it - nbrs.begin());
}

TEST(ShardStatistical, StitchedNeighborChoiceUniformPerDegreeClass) {
  const Graph g = complete_bipartite(kLeft, kRight);
  ShardRunStats stats;
  const auto traces =
      run_stitched_traces(g, 0, kWalks, kTimer, 0xB0047, &stats);
  // The fast path must actually carry the walks, or this test would pass
  // vacuously on the token path's (already bit-verified) draws.
  ASSERT_GT(stats.stitches, 0u);
  ASSERT_GT(stats.stitch_steps, stats.total_steps / 2);

  std::vector<std::size_t> left_ranks(kRight, 0), right_ranks(kLeft, 0);
  for (const auto& walk : traces.nodes) {
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      const auto u = static_cast<NodeId>(walk[i]);
      const auto v = static_cast<NodeId>(walk[i + 1]);
      if (u < kLeft)
        ++left_ranks[neighbor_rank(g, u, v)];
      else
        ++right_ranks[neighbor_rank(g, u, v)];
    }
  }
  const std::size_t left_total =
      std::accumulate(left_ranks.begin(), left_ranks.end(), std::size_t{0});
  const std::size_t right_total =
      std::accumulate(right_ranks.begin(), right_ranks.end(), std::size_t{0});
  ASSERT_GT(left_total, 5000u);
  ASSERT_GT(right_total, 5000u);

  const auto left = chi_square_uniform(left_ranks);
  EXPECT_GT(left.p_value, kAlpha)
      << "degree-11 class: chi2=" << left.statistic << " over " << left_total
      << " transitions";
  const auto right = chi_square_uniform(right_ranks);
  EXPECT_GT(right.p_value, kAlpha)
      << "degree-5 class: chi2=" << right.statistic << " over " << right_total
      << " transitions";
}

TEST(ShardStatistical, StitchedSojournsExponentialPerDegreeClass) {
  const Graph g = complete_bipartite(kLeft, kRight);
  ShardRunStats stats;
  const auto traces =
      run_stitched_traces(g, 0, kWalks, kTimer, 0xB0048, &stats);
  ASSERT_GT(stats.stitches, 0u);

  // Drop each walk's final sojourn: the probe records min(sojourn,
  // remaining) and the last one was clipped by the timer.
  std::vector<double> deg11, deg5;
  for (std::size_t w = 0; w < traces.nodes.size(); ++w) {
    const auto& nodes = traces.nodes[w];
    const auto& sojourns = traces.sojourns[w];
    ASSERT_EQ(nodes.size(), sojourns.size());
    for (std::size_t i = 0; i + 1 < sojourns.size(); ++i) {
      if (nodes[i] < kLeft)
        deg11.push_back(sojourns[i]);
      else
        deg5.push_back(sojourns[i]);
    }
  }
  ASSERT_GT(deg11.size(), 5000u);
  ASSERT_GT(deg5.size(), 5000u);

  const auto ks11 =
      ks_test(deg11, [](double x) { return 1.0 - std::exp(-11.0 * x); });
  EXPECT_GT(ks11.p_value, kAlpha)
      << "degree-11 sojourns: D=" << ks11.statistic << " n=" << deg11.size();
  const auto ks5 =
      ks_test(deg5, [](double x) { return 1.0 - std::exp(-5.0 * x); });
  EXPECT_GT(ks5.p_value, kAlpha)
      << "degree-5 sojourns: D=" << ks5.statistic << " n=" << deg5.size();
}

TEST(ShardStatistical, StitchedToursRemainUnbiasedSizeEstimates) {
  // Tours consume only the node sequence of each segment; the estimator's
  // unbiasedness (Proposition 1) needs nothing beyond the walk law, so
  // stitched tour batches must still centre on N = 16.
  const Graph g = complete_bipartite(kLeft, kRight);
  const ShardPlan plan = make_shard_plan(g, kShards);
  const ShardedGraph sharded(g, plan);
  StitchConfig cfg;
  cfg.seed = 0xB0049;
  SegmentStore store(sharded, cfg);
  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner);
  engine.enable_stitching(store);

  const std::size_t m = 400;
  const TourBatch batch =
      engine.run_tours(0, m, [](NodeId) { return 1.0; }, kSeed);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.completed, m);
  EXPECT_GT(engine.last_run_stats().stitches, 0u);
  const double n = static_cast<double>(kLeft + kRight);
  EXPECT_NEAR(batch.mean(), n, 0.3 * n)
      << "stitched tour mean drifted from N=" << n;
}

}  // namespace
}  // namespace overcount
