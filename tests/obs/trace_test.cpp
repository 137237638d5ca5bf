// The tracing contract: installing a TraceRecorder changes NOTHING about
// the numbers any estimator produces (no instrumentation site touches an
// Rng), recording is bounded (per-thread rings overwrite their oldest
// events, never block), and the exported file is valid Chrome trace_event
// JSON with the span structure the instrumentation promises.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel.hpp"
#include "core/random_tour.hpp"
#include "core/sample_collide.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"
#include "walk/kernel.hpp"

namespace overcount {
namespace {

Graph test_graph() {
  Rng rng(77);
  return largest_component(balanced_random_graph(400, rng));
}

// Restores "no recorder installed" on scope exit even when a test fails,
// so a broken test cannot leave a dangling recorder for the next one.
struct Installed {
  explicit Installed(TraceRecorder& r) : rec(r) { rec.install(); }
  ~Installed() { rec.uninstall(); }
  TraceRecorder& rec;
};

std::size_t count_events(
    const std::vector<TraceEvent>& events, std::string_view name) {
  std::size_t n = 0;
  for (const auto& e : events)
    if (e.name != nullptr && name == e.name) ++n;
  return n;
}

TEST(TraceRecorder, InstallUninstallSwitchesActive) {
  ASSERT_EQ(TraceRecorder::active(), nullptr);
  TraceRecorder rec;
  rec.install();
  EXPECT_EQ(TraceRecorder::active(), &rec);
  rec.uninstall();
  EXPECT_EQ(TraceRecorder::active(), nullptr);
  // uninstall() of a recorder that is not installed must not clobber the
  // one that is.
  TraceRecorder other;
  other.install();
  rec.uninstall();
  EXPECT_EQ(TraceRecorder::active(), &other);
  other.uninstall();
}

TEST(TraceRecorder, CollectsCompleteAndInstantEvents) {
  TraceRecorder rec;
  rec.record_complete("cat", "span", 0, "k", 7);
  rec.record_instant("cat", "mark");
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "span");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_STREQ(events[0].arg_name, "k");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_STREQ(events[1].name, "mark");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(rec.thread_count(), 1u);
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder rec(4);  // already a power of two
  EXPECT_EQ(rec.capacity_per_thread(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record(TraceEvent{"e", "c", 'i', 0, /*ts_us=*/i, 0, "i", i});
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // The NEWEST four survive, oldest-first.
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_EQ(events[k].arg, 6u + k);
  EXPECT_EQ(rec.dropped_events(), 6u);
}

TEST(TraceRecorder, CapacityRoundsUpToPowerOfTwo) {
  TraceRecorder rec(5);
  EXPECT_EQ(rec.capacity_per_thread(), 8u);
}

TEST(TraceRecorder, EventsMergeSortedByTimestamp) {
  TraceRecorder rec;
  rec.record(TraceEvent{"late", "c", 'i', 0, 200, 0, nullptr, 0});
  rec.record(TraceEvent{"early", "c", 'i', 0, 100, 0, nullptr, 0});
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "late");
}

TEST(TraceSites, SpanAndHelpersRecordOnlyWhenInstalled) {
  TraceRecorder rec;
  {
    Installed guard(rec);
    EXPECT_TRUE(trace_active());
    {
      TraceSpan span("cat", "scope", "n", 1);
      span.set_arg(2);  // result only known at scope end
    }
    trace_instant("cat", "mark");
    trace_complete("cat", "late", trace_now_us());
  }
  EXPECT_FALSE(trace_active());
  trace_instant("cat", "after_uninstall");  // must be a no-op
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(count_events(events, "scope"), 1u);
  EXPECT_EQ(count_events(events, "mark"), 1u);
  EXPECT_EQ(count_events(events, "late"), 1u);
  EXPECT_EQ(count_events(events, "after_uninstall"), 0u);
  for (const auto& e : events) {
    if (std::string_view("scope") == e.name) {
      EXPECT_EQ(e.arg, 2u);
    }
  }
}

TEST(TraceSites, TourKernelEmitsOneSpanPerTour) {
  const Graph g = test_graph();
  constexpr std::size_t kWalks = 24;
  auto streams = derive_streams(3, kWalks);
  std::vector<TourEstimate> out(kWalks);
  auto f = [](NodeId) { return 1.0; };
  TraceRecorder rec;
  {
    Installed guard(rec);
    tour_kernel(g, 0, f, std::span<Rng>(streams),
                std::span<TourEstimate>(out), 8);
  }
  const auto events = rec.events();
  EXPECT_EQ(count_events(events, "tour"), kWalks);
  for (const auto& e : events)
    if (std::string_view("tour") == e.name) {
      EXPECT_STREQ(e.cat, "walk");
      EXPECT_EQ(e.phase, 'X');
      EXPECT_STREQ(e.arg_name, "steps");
      EXPECT_GT(e.arg, 0u);
    }
}

TEST(TraceSites, ScKernelEmitsTrialSpansAndCollisionInstants) {
  const Graph g = test_graph();
  constexpr std::size_t kTrials = 6;
  constexpr std::size_t kEll = 4;
  auto streams = derive_streams(11, kTrials);
  std::vector<ScTrialRaw> raw(kTrials);
  TraceRecorder rec;
  {
    Installed guard(rec);
    sc_kernel(g, 0, 5.0, kEll, std::span<Rng>(streams),
              std::span<ScTrialRaw>(raw), 4);
  }
  const auto events = rec.events();
  EXPECT_EQ(count_events(events, "sc.trial"), kTrials);
  // Every trial runs until exactly ell collisions.
  EXPECT_EQ(count_events(events, "sc.collision"), kTrials * kEll);

  // The sharded engine's trials report the same collision instants, with
  // and without segment stitching.
  const ShardedGraph sharded(g, make_shard_plan(g, 4));
  ParallelRunner runner(2);
  for (const bool stitched : {false, true}) {
    SCOPED_TRACE(stitched ? "engine S=4, stitched" : "engine S=4");
    SegmentStore store(sharded, StitchConfig{});
    ShardedWalkEngine engine(sharded, runner);
    if (stitched) engine.enable_stitching(store);
    TraceRecorder engine_rec(std::size_t{1} << 17);
    {
      Installed guard(engine_rec);
      engine.run_sc_trials(0, kTrials, 5.0, kEll, 11);
    }
    ASSERT_EQ(engine_rec.dropped_events(), 0u);
    EXPECT_EQ(count_events(engine_rec.events(), "sc.collision"),
              kTrials * kEll);
  }
}

TEST(TraceSites, ParallelRunnerEmitsDispatchAndTaskSpans) {
  ParallelRunner runner(4);
  TraceRecorder rec;
  {
    Installed guard(rec);
    runner.run<char>(100, [](std::size_t) { return char{0}; });
  }
  // run() returned, so every worker's writes happened-before this drain.
  const auto events = rec.events();
  EXPECT_EQ(count_events(events, "runner.task"), 100u);
  EXPECT_EQ(count_events(events, "runner.dispatch"), 1u);
  EXPECT_GE(rec.thread_count(), 1u);
  EXPECT_LE(rec.thread_count(), 5u);  // 4 workers + the dispatching thread
}

TEST(TraceDeterminism, TracedEstimatesBitIdenticalToUntraced) {
  const Graph g = test_graph();
  ParallelRunner runner(4);
  const auto plain = run_tours_size(g, 0, 96, 5, runner);
  const auto plain_sc = SampleCollideEstimator(g, 0, 5.0, 8, Rng(9))
                            .estimate();

  TraceRecorder rec;
  TourBatch traced;
  ScEstimate traced_sc;
  {
    Installed guard(rec);
    traced = run_tours_size(g, 0, 96, 5, runner);
    traced_sc = SampleCollideEstimator(g, 0, 5.0, 8, Rng(9)).estimate();
  }
  EXPECT_EQ(traced.sum, plain.sum);  // bitwise, not approximate
  EXPECT_EQ(traced.total_steps, plain.total_steps);
  EXPECT_EQ(traced.completed, plain.completed);
  EXPECT_EQ(traced.truncated, plain.truncated);
  EXPECT_EQ(traced_sc.simple, plain_sc.simple);
  EXPECT_EQ(traced_sc.ml, plain_sc.ml);
  EXPECT_EQ(traced_sc.hops, plain_sc.hops);
  EXPECT_FALSE(rec.events().empty());
}

TEST(TraceExport, ChromeTraceJsonParsesWithExpectedStructure) {
  TraceRecorder rec;
  rec.record_complete("cat", "work", 0, "n", 1);
  rec.record_instant("cat", "mark");
  std::ostringstream os;
  write_chrome_trace(os, rec, "unit");
  const JsonValue doc = parse_json(os.str());

  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_process_name = false;
  bool saw_span = false;
  bool saw_instant = false;
  for (const auto& e : events->as_array()) {
    const std::string& ph = e.find("ph")->as_string();
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    if (ph == "M" && e.find("name")->as_string() == "process_name") {
      saw_process_name = true;
      EXPECT_EQ(e.find("args")->find("name")->as_string(), "unit");
    }
    if (ph == "X") {
      saw_span = true;
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
      EXPECT_EQ(e.find("args")->find("n")->as_number(), 1.0);
    }
    if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.find("s")->as_string(), "t");
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);

  const JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->find("dropped_events")->as_number(), 0.0);
  EXPECT_EQ(other->find("recording_threads")->as_number(), 1.0);
}

}  // namespace
}  // namespace overcount
