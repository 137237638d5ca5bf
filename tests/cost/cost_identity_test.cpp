// The cost ledger keeps the two hard promises ISSUE.md pins:
//  (1) bit-identity — a sharded run with the ledger installed, scoped and
//      mirrored into a registry produces estimates IDENTICAL to a bare run
//      of the same (seed, m): accounting reads, never perturbs;
//  (2) zero residue — the ledger's per-context step totals reconcile
//      EXACTLY with the ledger-independent walk.steps counter, the batch's
//      own total_steps, and the shard token-conservation counters, with
//      nothing left on the unattributed sink.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/convergence.hpp"
#include "graph/generators.hpp"
#include "obs/cost/cost.hpp"
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

TEST(CostIdentity, InstrumentedShardedRunIsBitIdentical) {
  const Graph g = test_graph();
  const std::size_t m = 48;
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  // Reference: no ledger, no registry, no tracer.
  ParallelRunner bare_runner(4);
  ShardedWalkEngine bare(sharded, bare_runner);
  const TourBatch reference =
      bare.run_tours(0, m, [](NodeId) { return 1.0; }, kSeed);

  // Instrumented: ledger installed and scoped, registry mirroring, tracer
  // recording the cost.ctx attribution spans.
  MetricsRegistry registry;
  CostLedger ledger(&registry);
  ledger.install();
  TraceRecorder trace;
  trace.install();
  QueryContext qc;
  qc.tenant = "acme";
  qc.query_id = 1;
  const std::uint32_t ctx = ledger.open(std::move(qc));

  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner, &registry);
  const TourBatch observed = [&] {
    CostScope scope(ctx);
    return engine.run_tours(0, m, [](NodeId) { return 1.0; }, kSeed);
  }();
  trace.uninstall();
  ledger.uninstall();

  ASSERT_EQ(observed.tours.size(), reference.tours.size());
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(observed.tours[i].value, reference.tours[i].value);  // bitwise
    EXPECT_EQ(observed.tours[i].steps, reference.tours[i].steps);
  }
  EXPECT_EQ(observed.sum, reference.sum);
  EXPECT_EQ(observed.total_steps, reference.total_steps);

  // And it did account the run it left untouched.
  EXPECT_GT(ledger.fold(ctx).steps(), 0u);
}

TEST(CostIdentity, LedgerReconcilesExactlyWithEngineCounters) {
  const Graph g = test_graph();
  const std::size_t m = 48;
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  MetricsRegistry registry;
  CostLedger ledger(&registry);
  ledger.install();
  QueryContext qc;
  qc.tenant = "acme";
  qc.query_id = 1;
  const std::uint32_t ctx = ledger.open(std::move(qc));

  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner, &registry);
  const TourBatch batch = [&] {
    CostScope scope(ctx);
    return engine.run_tours(0, m, [](NodeId) { return 1.0; }, kSeed);
  }();
  ledger.uninstall();

  const ShardRunStats& stats = engine.last_run_stats();
  const CostRecord row = ledger.fold(ctx);
  const MetricsSnapshot snap = registry.snapshot();

  // Steps reconcile three ways: the ledger row, the ledger-independent
  // walk.steps counter (bumped from the batch result, never through the
  // ledger), and the batch's own total — all the same number, exactly.
  EXPECT_EQ(row.steps(), batch.total_steps);
  EXPECT_EQ(snap.counter_or_zero("walk.steps"), batch.total_steps);
  EXPECT_EQ(stats.total_steps, batch.total_steps);
  // The mirror counters saw the same charges the fold sums.
  EXPECT_EQ(snap.counter_or_zero("cost.steps"), row.steps());

  // Shard-side work reconciles with token conservation: every handoff and
  // every drained token was billed to the context that rode it.
  EXPECT_GT(stats.handoffs, 0u);  // 4 shards, 400 nodes: walks migrate
  EXPECT_EQ(row.handoffs(), stats.handoffs);
  EXPECT_EQ(row.handoffs(), snap.counter_or_zero("shard.handoffs"));
  EXPECT_EQ(row.get(CostField::kTokens), stats.tokens_consumed);
  EXPECT_EQ(row.get(CostField::kTokens),
            snap.counter_or_zero("shard.tokens_consumed"));
  EXPECT_EQ(row.get(CostField::kWalks), m);
  EXPECT_EQ(row.get(CostField::kStitches), stats.stitches);
  EXPECT_EQ(row.get(CostField::kStitchSteps), stats.stitch_steps);

  // Zero residue: a fully scoped run leaves NOTHING on the sink.
  const CostRecord sink = ledger.unattributed();
  for (std::size_t f = 0; f < kCostFieldCount; ++f)
    EXPECT_EQ(sink.v[f], 0u) << cost_field_name(static_cast<CostField>(f));
}

TEST(CostIdentity, UnscopedRunBillsTheSinkCompletely) {
  const Graph g = test_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  CostLedger ledger;
  ledger.install();
  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner);
  const TourBatch batch =
      engine.run_tours(0, 16, [](NodeId) { return 1.0; }, kSeed);
  ledger.uninstall();

  // No CostScope: everything lands on context 0, nothing is lost.
  EXPECT_EQ(ledger.unattributed().steps(), batch.total_steps);
  EXPECT_EQ(ledger.unattributed().get(CostField::kTokens),
            engine.last_run_stats().tokens_consumed);
  EXPECT_EQ(ledger.totals().steps(), batch.total_steps);
}

TEST(CostIdentity, ConcurrentQueriesDoNotCrossTalk) {
  const Graph g = test_graph();
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  CostLedger ledger;
  ledger.install();
  QueryContext qa;
  qa.tenant = "acme";
  qa.query_id = 1;
  QueryContext qb;
  qb.tenant = "bee";
  qb.query_id = 2;
  const std::uint32_t a = ledger.open(std::move(qa));
  const std::uint32_t b = ledger.open(std::move(qb));

  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner);
  const TourBatch batch_a = [&] {
    CostScope scope(a);
    return engine.run_tours(0, 48, [](NodeId) { return 1.0; }, kSeed);
  }();
  const TourBatch batch_b = [&] {
    CostScope scope(b);
    return engine.run_tours(0, 16, [](NodeId) { return 1.0; }, kSeed + 1);
  }();
  ledger.uninstall();

  // Each context carries exactly its own batch — the ridden token ids keep
  // shard work attributed even though both batches crossed every shard.
  EXPECT_EQ(ledger.fold(a).steps(), batch_a.total_steps);
  EXPECT_EQ(ledger.fold(b).steps(), batch_b.total_steps);
  EXPECT_EQ(ledger.fold(a).get(CostField::kWalks), 48u);
  EXPECT_EQ(ledger.fold(b).get(CostField::kWalks), 16u);
  EXPECT_EQ(ledger.unattributed().steps(), 0u);
  EXPECT_EQ(ledger.totals().steps(),
            batch_a.total_steps + batch_b.total_steps);
}

// A monitored run (core/convergence.hpp) is the plain batch cut into
// recording intervals, so under a ledger it must charge exactly what the
// plain batch of the same (seed, m) charges — steps and walks, once.
TEST(CostIdentity, MonitoredRunsChargeLikePlainBatches) {
  const Graph g = test_graph();
  const std::size_t m = 40;  // intervals of 16: two full, one partial
  const double timer = 2.5;
  const std::size_t ell = 4;
  ConvergenceOptions opts;
  opts.interval = 16;
  TimeSeriesRecorder recorder;

  CostLedger ledger;
  ledger.install();
  ParallelRunner runner(4);
  std::uint64_t query = 0;
  const auto charged = [&](auto run) {
    QueryContext qc;
    qc.tenant = "acme";
    qc.query_id = ++query;
    const std::uint32_t ctx = ledger.open(std::move(qc));
    {
      CostScope scope(ctx);
      run();
    }
    return ledger.fold(ctx);
  };
  const CostRecord plain_rt =
      charged([&] { run_tours_size(g, 0, m, kSeed, runner); });
  const CostRecord monitored_rt = charged([&] {
    run_tours_size_converging(g, 0, m, kSeed, runner, recorder, opts);
  });
  const CostRecord plain_sc =
      charged([&] { run_sc_trials(g, 0, m, timer, ell, kSeed, runner); });
  const CostRecord monitored_sc = charged([&] {
    run_sc_converging(g, 0, m, timer, ell, kSeed, runner, recorder, opts);
  });
  ledger.uninstall();

  EXPECT_GT(plain_rt.steps(), 0u);
  EXPECT_EQ(plain_rt.get(CostField::kWalks), m);
  EXPECT_EQ(monitored_rt.steps(), plain_rt.steps());
  EXPECT_EQ(monitored_rt.get(CostField::kWalks),
            plain_rt.get(CostField::kWalks));
  EXPECT_GT(plain_sc.steps(), 0u);
  EXPECT_EQ(plain_sc.get(CostField::kWalks), m);
  EXPECT_EQ(monitored_sc.steps(), plain_sc.steps());
  EXPECT_EQ(monitored_sc.get(CostField::kWalks),
            plain_sc.get(CostField::kWalks));
  EXPECT_EQ(ledger.unattributed().steps(), 0u);
}

}  // namespace
}  // namespace overcount
