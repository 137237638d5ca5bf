// Health drill: force a BSP superstep stall in the sharded walk engine and
// watch the whole alarm chain fire — heartbeat goes silent, the watchdog
// raises shard.superstep_stall (kCritical), and the flight recorder drops a
// self-contained post-mortem bundle (Chrome trace with cross-shard flow
// events, metrics snapshot, health-event JSONL, convergence windows) under
// OVERCOUNT_FLIGHT_DIR. This is the walkthrough in EXPERIMENTS.md and the
// first half of the CI health-smoke job (scripts/validate_flight.py checks
// the bundle's integrity).
//
//   $ OVERCOUNT_INJECT_SUPERSTEP_DELAY_US=40000 OVERCOUNT_FLIGHT_DIR=/tmp/flight ./health_drill
//
// Without the injected delay the drill runs the same instrumented batch,
// trips nothing, dumps nothing, and exits 0 — the health layer is silent on
// a healthy run. With it, the drill exits non-zero unless the stall was
// BOTH detected (>= 1 watchdog trip) and captured (>= 1 bundle).
//
// The drill also re-runs the identical (seed, m) batch on a bare engine —
// no recorder, no heartbeat, no metrics, no injected delay — and insists
// the estimates match BIT FOR BIT: the audit layer observes, it never
// perturbs, even while the engine is artificially wedged.
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/cost/cost.hpp"
#include "obs/health/flight.hpp"
#include "obs/health/health.hpp"
#include "obs/health/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(raw, nullptr, 10));
}

}  // namespace

int main() {
  using namespace overcount;

  // The engine reads the superstep delay itself (shard/engine.hpp); the
  // drill only needs to know whether an injection is on to pick its exit
  // contract.
  const std::uint64_t delay_us =
      env_u64("OVERCOUNT_INJECT_SUPERSTEP_DELAY_US", 0);
  // Stall threshold: half the injected delay (so every slept superstep is
  // a detectable stall), or 150 ms on a healthy run.
  const std::uint64_t stall_after_us =
      env_u64("OVERCOUNT_STALL_AFTER_US",
              delay_us > 0 ? std::max<std::uint64_t>(delay_us / 2, 1'000)
                           : 150'000);
  std::string flight_dir = FlightRecorder::env_dir();
  if (flight_dir.empty()) flight_dir = "flight-drill";

  const std::size_t nodes = env_u64("OVERCOUNT_N", 120);
  const std::size_t walks = env_u64("OVERCOUNT_M", 8);
  constexpr std::uint64_t kSeed = 0xFEEDBEEF;

  Rng rng(99);
  const Graph g = balanced_random_graph(nodes, rng);
  const ShardPlan plan = make_shard_plan(g, 4);
  const ShardedGraph sharded(g, plan);

  // The full audit stack, wired the way a long-running deployment would:
  // events and counters into one registry, trace + metrics + health +
  // convergence windows all attached to the flight recorder, bundles
  // auto-dumped on any critical event, fatal signals hooked.
  MetricsRegistry registry;
  HealthCenter center(&registry);
  center.install();
  TraceRecorder trace;
  trace.install();
  TimeSeriesRecorder series("size");
  // Cost ledger + one context for the drill's batch: the bundle's
  // profile.folded then carries "tenant=drill;query=1" attribution frames
  // above the engine spans, which is what scripts/flamegraph.py renders.
  CostLedger cost_ledger(&registry);
  cost_ledger.install();
  QueryContext drill_ctx;
  drill_ctx.tenant = "drill";
  drill_ctx.query_id = 1;
  drill_ctx.kind = "size";
  drill_ctx.method = "random_tour";
  drill_ctx.slo_class = "size.random_tour.besteffort";
  const std::uint32_t drill_cost = cost_ledger.open(std::move(drill_ctx));

  Heartbeat heartbeat;
  WatchdogConfig wcfg;
  wcfg.poll_period_us = std::max<std::uint64_t>(stall_after_us / 4, 1'000);
  Watchdog dog(&center, wcfg);
  dog.watch_heartbeat("shard.superstep_stall", "shard", &heartbeat,
                      stall_after_us);

  FlightRecorder flight(flight_dir);
  flight.attach_metrics(&registry);
  flight.attach_trace(&trace);
  flight.attach_health(&center);
  flight.attach_timeseries(&series);
  flight.attach_cost(&cost_ledger);
  flight.auto_dump_on(center, HealthSeverity::kCritical);
  flight.install_signal_dump();
  dog.start();

  ParallelRunner runner(4);
  ShardedWalkEngine engine(sharded, runner, &registry);
  engine.set_heartbeat(&heartbeat);
  const TourBatch batch = [&] {
    CostScope scope(drill_cost);
    return engine.run_tours(0, walks, [](NodeId) { return 1.0; }, kSeed);
  }();
  series.record(walks, batch.total_steps,
                batch.sum / static_cast<double>(walks), 0.0);

  dog.stop();

  // One final bundle so EVEN a run whose trips were all rate-limited away
  // leaves a complete post-mortem on disk (reason records why it exists).
  const std::string final_bundle =
      flight.dump(delay_us > 0 ? "drill.injected_stall" : "drill.baseline");

  // Bit-identity pin: same (seed, m) on a bare engine, injection disabled.
  // The ledger comes off first so the bare run is truly bare — otherwise
  // its steps would land on the sink and muddy the zero-residue story.
  cost_ledger.uninstall();
  ::unsetenv("OVERCOUNT_INJECT_SUPERSTEP_DELAY_US");
  ParallelRunner bare_runner(4);
  ShardedWalkEngine bare(sharded, bare_runner);
  const TourBatch reference =
      bare.run_tours(0, walks, [](NodeId) { return 1.0; }, kSeed);

  trace.uninstall();
  center.uninstall();

  const ShardRunStats& stats = engine.last_run_stats();
  std::cout << "injected delay    " << delay_us << " us/superstep\n"
            << "stall threshold   " << stall_after_us << " us\n"
            << "walks             " << stats.walks << "\n"
            << "supersteps        " << stats.rounds << "\n"
            << "handoffs          " << stats.handoffs << "\n"
            << "heartbeat beats   " << heartbeat.beats() << "\n"
            << "watchdog trips    " << dog.trips() << "\n"
            << "health events     " << center.total_raised() << "\n"
            << "bundles dumped    " << flight.dumps() << " (+"
            << flight.suppressed_dumps() << " rate-limited)\n"
            << "last bundle       " << final_bundle << "\n";

  if (batch.sum != reference.sum ||
      batch.total_steps != reference.total_steps) {
    std::cerr << "error: instrumented estimates diverged from the bare run\n";
    return 1;
  }
  std::cout << "bit-identity      instrumented == bare (sum "
            << batch.sum << ")\n";

  if (delay_us > 0) {
    if (dog.trips() == 0) {
      std::cerr << "error: injected stall was never detected\n";
      return 1;
    }
    if (flight.dumps() == 0) {
      std::cerr << "error: stall detected but no flight bundle landed\n";
      return 1;
    }
  } else if (dog.trips() != 0) {
    std::cerr << "error: watchdog tripped on a healthy run\n";
    return 1;
  }
  return 0;
}
