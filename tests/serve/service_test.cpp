// EstimateService acceptance contract:
//  (a) a cache hit is bit-identical to the batch result it came from;
//  (b) N concurrent identical misses coalesce into exactly ONE batch, and
//      a pending batch that covers a looser request of either kind, queued
//      no later than its deadline, answers it;
//  (c) admission control load-sheds (kRejected + retry hint) instead of
//      queueing unboundedly;
//  (d) a DynamicGraph version() bump invalidates cached entries;
// plus the degree-sum answer of a size batch against the run_tours(f =
// degree) reference, deadline handling, request validation, determinism
// across runner thread counts, several batch loops sharing one queue, and
// clean shutdown semantics.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "serve/source.hpp"

namespace overcount {
namespace {

/// Deterministic manual clock shared with the service under test.
struct TestClock {
  std::shared_ptr<std::atomic<std::uint64_t>> us =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::function<std::uint64_t()> fn() const {
    auto ptr = us;
    return [ptr] { return ptr->load(std::memory_order_relaxed); };
  }
  void advance(std::uint64_t delta) {
    us->fetch_add(delta, std::memory_order_relaxed);
  }
};

ServiceConfig fast_config(const TestClock& clock, unsigned threads = 2) {
  ServiceConfig config;
  config.threads = threads;
  config.queue_capacity = 8;
  config.lambda2_hint = 0.0;
  config.seed = 7;
  config.now_us = clock.fn();
  return config;
}

EstimateRequest size_request(double epsilon = 0.3, double delta = 0.2) {
  EstimateRequest req;
  req.kind = QueryKind::kSize;
  req.method = EstimateMethod::kRandomTour;
  req.epsilon = epsilon;
  req.delta = delta;
  return req;
}

TEST(EstimateService, AnswersSizeWithinPlannedHalfWidth) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  const EstimateResponse resp = service.query(size_request());
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_GT(resp.walks, 0u);
  EXPECT_LE(resp.epsilon, 0.3 + 1e-12);
  // Complete graph, generous budget: the estimate lands near n = 16.
  EXPECT_NEAR(resp.value, 16.0, 16.0 * resp.epsilon);
  EXPECT_TRUE(service.warmed());
}

// Acceptance (a): the cached response repeats the batch result EXACTLY —
// same bits, not merely close — along with its provenance.
TEST(EstimateService, CacheHitIsBitIdenticalToTheBatchResult) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  const EstimateResponse first = service.query(size_request());
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.cache_hit);
  clock.advance(1000);
  const EstimateResponse second = service.query(size_request());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.value, first.value);  // bit-for-bit, not NEAR
  EXPECT_EQ(second.epsilon, first.epsilon);
  EXPECT_EQ(second.walks, first.walks);
  EXPECT_EQ(second.graph_version, first.graph_version);
  EXPECT_EQ(second.age_us, 1000u);
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.batches"), 1u);
  EXPECT_EQ(counters.counter_or_zero("serve.cache_hits"), 1u);
}

// Acceptance (b): single-flight — N concurrent identical misses issue
// exactly one batch; everyone gets the same (bit-identical) answer.
TEST(EstimateService, SingleFlightCoalescesConcurrentIdenticalMisses) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  service.set_paused(true);  // hold the broker so the misses pile up
  constexpr int kCallers = 6;
  std::vector<std::future<EstimateResponse>> futures;
  for (int i = 0; i < kCallers; ++i)
    futures.push_back(service.submit(size_request()));
  EXPECT_EQ(service.queue_depth(), 1u);  // one batch despite six callers
  service.set_paused(false);
  std::vector<EstimateResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  int coalesced = 0;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, responses.front().value);
    EXPECT_FALSE(r.cache_hit);
    if (r.coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, kCallers - 1);  // everyone but the initiator rode
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.batches"), 1u);
  EXPECT_EQ(counters.counter_or_zero("serve.coalesced"),
            static_cast<std::uint64_t>(kCallers - 1));
}

// A pending tighter batch answers looser requests of both kinds: one batch
// runs, the riders are flagged coalesced, and a size rider gets the
// initiator's exact bits.
TEST(EstimateService, PendingTighterBatchAnswersLooserRequestsOfBothKinds) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  service.set_paused(true);
  auto initiator = service.submit(size_request(0.30));
  EstimateRequest degree_sum = size_request(0.40);
  degree_sum.kind = QueryKind::kDegreeSum;
  auto ds_rider = service.submit(degree_sum);
  auto size_rider = service.submit(size_request(0.35));
  EXPECT_EQ(service.queue_depth(), 1u);
  service.set_paused(false);
  const EstimateResponse first = initiator.get();
  const EstimateResponse ds = ds_rider.get();
  const EstimateResponse size = size_rider.get();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(size.ok());
  EXPECT_FALSE(first.coalesced);
  EXPECT_TRUE(ds.coalesced);
  EXPECT_TRUE(size.coalesced);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(size.value),
            std::bit_cast<std::uint64_t>(first.value));
  EXPECT_EQ(ds.walks, first.walks);
  // Sum of degrees of K16 is 16*15 = 240; generous half-width.
  EXPECT_NEAR(ds.value, 240.0, 240.0 * ds.epsilon);
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.batches"), 1u);
  EXPECT_EQ(counters.counter_or_zero("serve.coalesced"), 2u);
}

// A request never rides a batch queued at a later deadline than its own:
// a deadline request walks its own batch rather than wait behind a
// best-effort one, and a best-effort request rides the earliest-deadline
// batch that covers it.
TEST(EstimateService, RequestRidesOnlyBatchesQueuedNoLaterThanItsDeadline) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  service.set_paused(true);
  auto best_effort = service.submit(size_request(0.30));
  EstimateRequest urgent = size_request(0.35);
  urgent.deadline_us = 1'000'000'000;
  auto deadline = service.submit(urgent);
  EXPECT_EQ(service.queue_depth(), 2u);
  auto rider = service.submit(size_request(0.40));  // both batches cover it
  EXPECT_EQ(service.queue_depth(), 2u);
  service.set_paused(false);
  const EstimateResponse first = best_effort.get();
  const EstimateResponse second = deadline.get();
  const EstimateResponse third = rider.get();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(second.coalesced);
  EXPECT_TRUE(third.coalesced);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(third.value),
            std::bit_cast<std::uint64_t>(second.value));
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.batches"), 2u);
}

// The degree-sum answer is derived from a size batch: d_origin times the
// steps of the completed tours over their count. It must equal the
// generic-f reference run_tours(f = degree) on the same seed and m bit for
// bit, including when max_tour_steps truncates some tours.
TEST(EstimateService, DegreeSumEqualsTheRunToursReferenceBitForBit) {
  Rng graph_rng(11);
  const std::vector<Graph> graphs = {barabasi_albert(400, 3, graph_rng),
                                     balanced_random_graph(400, graph_rng)};
  for (const Graph& g : graphs) {
    for (const std::uint64_t max_steps : {~0ULL, 200ULL}) {
      TestClock clock;
      ServiceConfig config = fast_config(clock);
      config.lambda2_hint = 0.5;  // pin the budget; no Lanczos solve
      config.max_tour_steps = max_steps;
      EstimateService service(static_graph_source(g), config);
      EstimateRequest req = size_request(0.3);
      req.kind = QueryKind::kDegreeSum;
      const EstimateResponse resp = service.query(req);
      ASSERT_TRUE(resp.ok());
      // The first batch of a run draws the first seed of config.seed.
      Rng seeds(config.seed);
      ParallelRunner runner(2);
      const TourBatch ref = run_tours(
          g, 0, resp.walks,
          [&g](NodeId v) { return static_cast<double>(g.degree(v)); },
          seeds.next(), runner, max_steps);
      ASSERT_TRUE(ref.ok());
      if (max_steps != ~0ULL) {
        EXPECT_GT(ref.truncated, 0u) << "the cap must truncate some tours";
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(resp.value),
                std::bit_cast<std::uint64_t>(ref.mean()))
          << "max_steps " << max_steps;
    }
  }
}

// Acceptance (c): a full queue load-sheds with kRejected + retry hint;
// the queue depth never exceeds its bound.
TEST(EstimateService, AdmissionControlRejectsWhenQueueIsFull) {
  const Graph g = complete(16);
  TestClock clock;
  ServiceConfig config = fast_config(clock);
  config.queue_capacity = 2;
  EstimateService service(static_graph_source(g), config);
  service.set_paused(true);
  // Each epsilon tighter than the last, so no pending batch covers the
  // next request: each submission is its own batch, so the third must be
  // shed, not queued.
  auto f1 = service.submit(size_request(0.32));
  auto f2 = service.submit(size_request(0.31));
  auto f3 = service.submit(size_request(0.30));
  const EstimateResponse shed = f3.get();  // resolves immediately
  EXPECT_EQ(shed.status, ServeStatus::kRejected);
  EXPECT_FALSE(shed.ok());
  EXPECT_GT(shed.retry_after_us, 0u);
  EXPECT_EQ(service.queue_depth(), 2u);
  service.set_paused(false);
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.admission_rejects"), 1u);
}

TEST(EstimateService, AdmissionControlChargesExpectedSteps) {
  const Graph g = complete(16);
  TestClock clock;
  ServiceConfig config = fast_config(clock);
  config.max_outstanding_steps = 1;  // absurdly tight step budget
  EstimateService service(static_graph_source(g), config);
  // Before any profile exists the step charge is unknown (0): admitted.
  ASSERT_TRUE(service.query(size_request()).ok());
  // Now the profile prices the next batch far above 1 step: shed.
  service.set_paused(true);
  EstimateRequest req = size_request();
  req.allow_cached = false;  // force a batch despite the cached entry
  const EstimateResponse shed = service.submit(req).get();
  EXPECT_EQ(shed.status, ServeStatus::kRejected);
  service.set_paused(false);
}

// Acceptance (d): churn bumps DynamicGraph::version(); the next query sees
// the stale entry evicted and runs a fresh batch at the new version.
TEST(EstimateService, GraphVersionBumpInvalidatesCache) {
  DynamicGraph dg{ring(16)};
  std::mutex graph_mutex;
  TestClock clock;
  EstimateService service(dynamic_graph_source(dg, graph_mutex),
                          fast_config(clock));
  const EstimateResponse before = service.query(size_request());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(service.query(size_request()).cache_hit);  // warm entry
  {
    std::lock_guard lock(graph_mutex);
    dg.add_edge(0, 8);  // one churn event: version moves on
  }
  const EstimateResponse after = service.query(size_request());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cache_hit);  // stale entry could not be served
  EXPECT_GT(after.graph_version, before.graph_version);
  const auto counters = service.metrics().snapshot();
  EXPECT_GE(counters.counter_or_zero("serve.cache_invalidations"), 1u);
  EXPECT_EQ(counters.counter_or_zero("serve.batches"), 2u);
}

TEST(EstimateService, ExpiredDeadlineIsRefusedUpFront) {
  const Graph g = complete(16);
  TestClock clock;
  clock.advance(10'000);
  EstimateService service(static_graph_source(g), fast_config(clock));
  EstimateRequest req = size_request();
  req.deadline_us = 5'000;  // already in the past
  const EstimateResponse resp = service.query(req);
  EXPECT_EQ(resp.status, ServeStatus::kDeadlineMiss);
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.batches"), 0u);  // no walk spent
}

TEST(EstimateService, InvalidRequestsFailFast) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  EstimateRequest bad = size_request();
  bad.epsilon = 0.0;
  EXPECT_EQ(service.query(bad).status, ServeStatus::kFailed);
  // Sample & Collide cannot answer degree sums.
  EstimateRequest mismatch;
  mismatch.kind = QueryKind::kDegreeSum;
  mismatch.method = EstimateMethod::kSampleCollide;
  EXPECT_EQ(service.query(mismatch).status, ServeStatus::kFailed);
}

TEST(EstimateService, DegreeSumAndSampleCollideQueriesWork) {
  const Graph g = complete(16);
  TestClock clock;
  EstimateService service(static_graph_source(g), fast_config(clock));
  EstimateRequest degree_sum = size_request();
  degree_sum.kind = QueryKind::kDegreeSum;
  const EstimateResponse ds = service.query(degree_sum);
  ASSERT_TRUE(ds.ok());
  // Sum of degrees of K16 is 16*15 = 240; generous half-width.
  EXPECT_NEAR(ds.value, 240.0, 240.0 * ds.epsilon);

  EstimateRequest sc = size_request(/*epsilon=*/0.5, /*delta=*/0.3);
  sc.method = EstimateMethod::kSampleCollide;
  const EstimateResponse sr = service.query(sc);
  ASSERT_TRUE(sr.ok());
  EXPECT_GT(sr.value, 0.0);
  EXPECT_GT(sr.walks, 0u);
}

TEST(EstimateService, ResponsesAreIdenticalAcrossRunnerThreadCounts) {
  const Graph g = complete(16);
  auto run_sequence = [&](unsigned threads) {
    TestClock clock;
    EstimateService service(static_graph_source(g),
                            fast_config(clock, threads));
    std::vector<double> values;
    values.push_back(service.query(size_request()).value);
    EstimateRequest ds = size_request(0.4);
    ds.kind = QueryKind::kDegreeSum;
    values.push_back(service.query(ds).value);
    EstimateRequest fresh = size_request();
    fresh.allow_cached = false;
    values.push_back(service.query(fresh).value);
    return values;
  };
  const auto single = run_sequence(1);
  const auto quad = run_sequence(4);
  ASSERT_EQ(single.size(), quad.size());
  for (std::size_t i = 0; i < single.size(); ++i)
    EXPECT_EQ(single[i], quad[i]) << "query " << i;  // bit-for-bit
}

// Two batch loops pop the one queue concurrently: every distinct
// cache-bypassing request from every submitting thread runs as its own
// batch and resolves kOk.
TEST(EstimateService, BatchLoopsDrainOneQueueConcurrently) {
  const Graph g = complete(16);
  TestClock clock;
  ServiceConfig config = fast_config(clock);
  config.batch_loops = 2;
  config.queue_capacity = 64;
  EstimateService service(static_graph_source(g), config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::vector<std::future<EstimateResponse>> futures(kThreads * kPerThread);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int k = t * kPerThread + i;
        EstimateRequest req = size_request(0.3 + 0.005 * k);
        req.allow_cached = false;
        futures[static_cast<std::size_t>(k)] = service.submit(req);
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters.counter_or_zero("serve.batches"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(EstimateService, RefreshOnceRecomputesAgingEntries) {
  const Graph g = complete(16);
  TestClock clock;
  ServiceConfig config = fast_config(clock);
  config.freshness.base_ttl_us = 1'000'000;
  config.refresh_at_fraction = 0.5;
  EstimateService service(static_graph_source(g), config);
  ASSERT_TRUE(service.query(size_request()).ok());
  // Young entry: nothing to refresh yet.
  EXPECT_EQ(service.refresh_once(), 0u);
  clock.advance(600'000);  // past refresh_at_fraction * ttl, inside ttl
  EXPECT_EQ(service.refresh_once(), 1u);
  // The refresh runs in the background; wait for it by forcing a fresh
  // query and checking the refresh landed as a batch.
  EstimateRequest fresh = size_request();
  fresh.allow_cached = false;
  ASSERT_TRUE(service.query(fresh).ok());
  const auto counters = service.metrics().snapshot();
  EXPECT_GE(counters.counter_or_zero("serve.refreshes"), 1u);
}

TEST(EstimateService, StopFailsQueuedWaitersAndRejectsNewWork) {
  const Graph g = complete(16);
  TestClock clock;
  auto service = std::make_unique<EstimateService>(static_graph_source(g),
                                                   fast_config(clock));
  service->set_paused(true);
  auto queued = service->submit(size_request());
  service->stop();
  EXPECT_EQ(queued.get().status, ServeStatus::kFailed);
  EXPECT_EQ(service->submit(size_request()).get().status,
            ServeStatus::kRejected);
  service.reset();  // double-stop through the destructor is safe
}

}  // namespace
}  // namespace overcount
