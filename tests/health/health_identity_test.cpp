// The whole health stack keeps the bit-identity contract: running the
// sharded engine under a TraceRecorder + HealthCenter + Heartbeat +
// metrics + auditor produces ESTIMATES IDENTICAL to a bare run of the same
// (seed, m) — observability reads, never perturbs. And the tracing it
// produces is causally useful: one walk's flow events chain across >= 2
// shard handoffs, which is what lets Perfetto draw a single tour's path
// across shard lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/health/audit.hpp"
#include "obs/health/health.hpp"
#include "obs/health/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"

namespace overcount {
namespace {

constexpr std::uint64_t kSeed = 0xFEEDBEEF;

Graph test_graph() {
  Rng rng(99);
  return balanced_random_graph(400, rng);
}

TEST(HealthIdentity, FullyInstrumentedRunIsBitIdentical) {
  const Graph g = test_graph();
  const std::size_t m = 48;
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  // Reference: nothing attached, nothing installed.
  ParallelRunner bare_runner(4);
  ShardedWalkEngine bare(sharded, bare_runner);
  const TourBatch reference =
      bare.run_tours(0, m, [](NodeId) { return 1.0; }, kSeed);

  // Instrumented: every observability hook this PR adds, all at once.
  MetricsRegistry registry;
  HealthCenter center(&registry);
  center.install();
  TraceRecorder trace;
  trace.install();
  Heartbeat hb;
  Watchdog dog(&center);
  dog.watch_heartbeat("shard.superstep_stall", "shard", &hb, 60'000'000);
  EstimateAuditor auditor(&registry, &center);

  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner, &registry);
  engine.set_heartbeat(&hb);
  const TourBatch observed =
      engine.run_tours(0, m, [](NodeId) { return 1.0; }, kSeed);
  auditor.observe("size", "random_tour", observed.sum, 0.3, 0.2, 1);
  dog.poll_once();

  trace.uninstall();
  center.uninstall();

  ASSERT_EQ(observed.tours.size(), reference.tours.size());
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(observed.tours[i].value, reference.tours[i].value);  // bitwise
    EXPECT_EQ(observed.tours[i].steps, reference.tours[i].steps);
  }
  EXPECT_EQ(observed.sum, reference.sum);
  EXPECT_EQ(observed.total_steps, reference.total_steps);

  // The instrumentation actually observed the run it left untouched.
  EXPECT_GT(hb.beats(), 0u);  // one beat per superstep
  EXPECT_FALSE(hb.armed());   // disarmed on batch exit
  EXPECT_EQ(dog.trips(), 0u);
  EXPECT_EQ(auditor.observations(), 1u);
  EXPECT_GT(registry.snapshot().counter_or_zero("shard.handoffs"), 0u);
}

TEST(HealthIdentity, WalkFlowsChainAcrossShardHandoffs) {
  const Graph g = test_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);
  ParallelRunner runner(4);
  MetricsRegistry registry;
  ShardedWalkEngine engine(sharded, runner, &registry);

  TraceRecorder trace;
  trace.install();
  engine.run_tours(0, 48, [](NodeId) { return 1.0; }, kSeed);
  trace.uninstall();

  // Count flow arrows the way Perfetto draws them: each consecutive pair of
  // flow events sharing an id is one link. A 4-shard batch of 48 walks on a
  // 400-node graph migrates constantly, so single walks must chain through
  // at least two handoffs ('s' at the seed, 't' per thaw, 'f' at retire).
  std::map<std::uint64_t, std::size_t> per_flow;
  std::size_t starts = 0, steps = 0, finishes = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase != 's' && e.phase != 't' && e.phase != 'f') continue;
    ASSERT_NE(e.flow, 0u);  // 0 is the "untraced" sentinel, never recorded
    ++per_flow[e.flow];
    if (e.phase == 's') ++starts;
    if (e.phase == 't') ++steps;
    if (e.phase == 'f') ++finishes;
  }
  // One flow start per SEEDED walk (a tour that completes inside the serial
  // seeding prologue never becomes a token), and every started flow retires.
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);
  EXPECT_GT(steps, 0u);  // thaws happened (every drained token steps its flow)
  std::size_t best_chain = 0;
  std::size_t links = 0;
  for (const auto& [flow, count] : per_flow) {
    if (count > 1) links += count - 1;
    best_chain = std::max(best_chain, count);
  }
  // >= 2 links within ONE walk's flow: seed -> handoff -> handoff, the
  // acceptance bar for "causal tracing links across shards".
  EXPECT_GE(best_chain, 3u);
  EXPECT_GE(links, 48u * 2u / 4u);  // and plenty of links overall
}

}  // namespace
}  // namespace overcount
