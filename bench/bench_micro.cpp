// Micro-benchmarks (google-benchmark): throughput of the primitives every
// experiment above is built from — walk steps, CTRW samples, full tours,
// DES events, the Lanczos spectral-gap computation, and the parallel batch
// runner's scaling across thread counts. The BM_RandomTour* trio checks the
// probe-hook overhead contract: NullProbe must match the bare walk (the
// hooks compile out), and even a live WalkStatsProbe should cost only a few
// percent.
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/overcount.hpp"
#include "des/simulator.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_runner.hpp"
#include "walk/kernel.hpp"
#include "walk/walkers.hpp"

namespace {

using namespace overcount;

const Graph& balanced_graph() {
  static const Graph g = [] {
    Rng rng(1);
    return largest_component(balanced_random_graph(20000, rng));
  }();
  return g;
}

// The end-to-end census shapes: a 200k balanced graph, whose CSR no longer
// fits in L2, and a 20k Barabasi-Albert graph (3 links per arrival).
const Graph& large_balanced_graph() {
  static const Graph g = [] {
    Rng rng(8);
    return largest_component(balanced_random_graph(200000, rng));
  }();
  return g;
}

const Graph& scale_free_graph() {
  static const Graph g = [] {
    Rng rng(9);
    return largest_component(barabasi_albert(20000, 3, rng));
  }();
  return g;
}

void BM_DtrwStep(benchmark::State& state) {
  const Graph& g = balanced_graph();
  Rng rng(2);
  DtrwWalker walker(g, 0);
  for (auto _ : state) benchmark::DoNotOptimize(walker.step(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DtrwStep);

void BM_RandomTour(benchmark::State& state) {
  const Graph& g = balanced_graph();
  Rng rng(3);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto e = random_tour_size(g, 0, rng);
    steps += e.steps;
    benchmark::DoNotOptimize(e.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps/tour"] =
      static_cast<double>(steps) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RandomTour);

// Explicit NullProbe: must be indistinguishable from BM_RandomTour — every
// hook sits behind `if constexpr (probe_enabled_v<P>)`.
void BM_RandomTourNullProbe(benchmark::State& state) {
  const Graph& g = balanced_graph();
  Rng rng(3);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto e = random_tour_size(g, 0, rng, ~0ULL, NullProbe{});
    steps += e.steps;
    benchmark::DoNotOptimize(e.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_RandomTourNullProbe);

// Live WalkStatsProbe: per-step histogram update plus a hash-set insert for
// revisit tracking. Same rng seed as BM_RandomTour, so the walks (and the
// estimates) are identical — only the instrumentation differs.
void BM_RandomTourProbed(benchmark::State& state) {
  const Graph& g = balanced_graph();
  Rng rng(3);
  WalkStats stats;
  WalkStatsProbe probe(stats);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto e = random_tour_size(g, 0, rng, ~0ULL, probe);
    steps += e.steps;
    benchmark::DoNotOptimize(e.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_RandomTourProbed);

// Interleaved walk kernel (walk/kernel.hpp) at a sweep of widths, same
// 20k balanced graph and walk workload as BM_RandomTour. width:1 measures
// the kernel harness running one lane (the round-robin overhead floor);
// width >= 8 must beat the scalar BM_RandomTour items/s — that delta is the
// whole point of the kernel, and the perf-smoke CI job pins it via the
// committed baseline artifact (bench/baselines/BENCH_micro.json).
void BM_RandomTourKernel(benchmark::State& state) {
  const Graph& g = balanced_graph();
  const auto width = static_cast<std::size_t>(state.range(0));
  const std::size_t walks = 64;
  const auto master = derive_streams(3, walks);
  std::vector<TourEstimate> out(walks);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    auto streams = master;  // identical walks every iteration
    tour_kernel(
        g, 0, [](NodeId) { return 1.0; }, std::span<Rng>(streams),
        std::span<TourEstimate>(out), width);
    for (const auto& t : out) steps += t.steps;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_RandomTourKernel)
    ->ArgName("width")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

// Same kernel workload as BM_RandomTourKernel at width 16, but with a live
// TraceRecorder installed, so every tour records a lifecycle span
// (obs/trace.hpp). The acceptance bound is <= 5% items/s below the untraced
// width:16 run — spans are per WALK (hundreds of steps), so two clock reads
// per tour must disappear into the DRAM noise. The headline value
// rt_kernel_trace_overhead records the measured fraction.
void BM_RandomTourKernelTraced(benchmark::State& state) {
  const Graph& g = balanced_graph();
  const std::size_t width = 16;
  const std::size_t walks = 64;
  const auto master = derive_streams(3, walks);
  std::vector<TourEstimate> out(walks);
  TraceRecorder* previous = TraceRecorder::active();
  TraceRecorder recorder;  // rings overwrite oldest: bounded regardless of
  recorder.install();      // how long the benchmark loops
  std::uint64_t steps = 0;
  for (auto _ : state) {
    auto streams = master;  // identical walks every iteration
    tour_kernel(
        g, 0, [](NodeId) { return 1.0; }, std::span<Rng>(streams),
        std::span<TourEstimate>(out), width);
    for (const auto& t : out) steps += t.steps;
    benchmark::DoNotOptimize(out.data());
  }
  if (previous != nullptr)
    previous->install();  // hand back to an OVERCOUNT_TRACE_JSON recorder
  else
    recorder.uninstall();
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["events_recorded"] =
      static_cast<double>(recorder.events().size());
}
BENCHMARK(BM_RandomTourKernelTraced);

// Kernel-vs-scalar pair for the Sample & Collide inner loop: the same 16
// trials, serially one-by-one (scalar path) vs interleaved in one band
// (sc_kernel). Items are CTRW hops.
void BM_ScTrialsScalar(benchmark::State& state) {
  const Graph& g = balanced_graph();
  const std::size_t trials = 16, ell = 10;
  std::uint64_t seed = 5000;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    auto streams = derive_streams(seed++, trials);
    for (std::size_t i = 0; i < trials; ++i) {
      SampleCollideEstimator estimator(g, 0, 6.0, ell, streams[i]);
      const auto e = estimator.estimate();
      hops += e.hops;
      benchmark::DoNotOptimize(e.simple);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_ScTrialsScalar);

void BM_ScTrialsKernel(benchmark::State& state) {
  const Graph& g = balanced_graph();
  const std::size_t trials = 16, ell = 10;
  std::uint64_t seed = 5000;  // same trials as BM_ScTrialsScalar
  std::vector<ScTrialRaw> raw(trials);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    auto streams = derive_streams(seed++, trials);
    sc_kernel(g, 0, 6.0, ell, std::span<Rng>(streams),
              std::span<ScTrialRaw>(raw), trials);
    for (const auto& t : raw) hops += t.hops;
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_ScTrialsKernel);

// Batch of 64 independent tours fanned over a ParallelRunner pool; Arg is
// the thread count. Results are bit-identical across thread counts, so
// threads only buy wall-clock, never different numbers. Measured on a
// shared 4-vCPU VM (medians of 5 runs): 12.2 ms at 1 thread and 6.8 ms at 4
// on this 20k graph, 207 and 116 ms on the 200k one (EXPERIMENTS.md,
// "Parallel batch execution"). Four threads stay below 2x because a 64-tour
// batch cannot finish before its longest tour, and tour lengths are
// heavy-tailed.
void tour_batch_parallel(benchmark::State& state, const Graph& g) {
  const auto threads = static_cast<unsigned>(state.range(0));
  ParallelRunner runner(threads);
  const std::size_t batch_size = 64;
  std::uint64_t seed = 1000;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto batch = run_tours_size(g, 0, batch_size, seed++, runner);
    steps += batch.total_steps;
    benchmark::DoNotOptimize(batch.sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["tours/batch"] = static_cast<double>(batch_size);
}

void BM_TourBatchParallel(benchmark::State& state) {
  tour_batch_parallel(state, balanced_graph());
}
BENCHMARK(BM_TourBatchParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same batch on the 200k balanced graph: the 20k graph's CSR fits in
// L2, so only here does every step pay the memory latency the lanes hide.
void BM_TourBatchParallel200k(benchmark::State& state) {
  tour_batch_parallel(state, large_balanced_graph());
}
BENCHMARK(BM_TourBatchParallel200k)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// perfbench census's Sample & Collide batch: 16 trials of ell = 16 on the
// 20k BA graph, CTRW horizon 1.5 ln(n). Sixteen trials are one kernel band,
// so at 4 threads the derived width is 4 lanes per worker. Items are CTRW
// hops; Arg is the thread count.
void BM_ScBatchParallel(benchmark::State& state) {
  const Graph& g = scale_free_graph();
  const auto threads = static_cast<unsigned>(state.range(0));
  ParallelRunner runner(threads);
  const std::size_t trials = 16, ell = 16;
  const double timer = 1.5 * std::log(static_cast<double>(g.num_nodes()));
  std::uint64_t seed = 3000;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto batch =
        run_sc_trials(g, 0, trials, timer, ell, seed++, runner);
    hops += batch.total_hops;
    benchmark::DoNotOptimize(batch.sum_simple);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_ScBatchParallel)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same scaling probe for a batch of CTRW samples (the S&C inner loop).
void BM_SampleBatchParallel(benchmark::State& state) {
  const Graph& g = balanced_graph();
  const auto threads = static_cast<unsigned>(state.range(0));
  ParallelRunner runner(threads);
  const std::size_t batch_size = 256;
  std::uint64_t seed = 2000;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto batch = run_samples(g, 0, batch_size, 6.0, seed++, runner);
    hops += batch.total_hops;
    benchmark::DoNotOptimize(batch.samples.back().node);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_SampleBatchParallel)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CtrwSample(benchmark::State& state) {
  const Graph& g = balanced_graph();
  Rng rng(4);
  const auto timer = static_cast<double>(state.range(0));
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto s = ctrw_sample(g, 0, timer, rng);
    hops += s.hops;
    benchmark::DoNotOptimize(s.node);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_CtrwSample)->Arg(2)->Arg(8);

void BM_SampleCollide(benchmark::State& state) {
  const Graph& g = balanced_graph();
  Rng rng(5);
  SampleCollideEstimator estimator(g, 0, 6.0,
                                   static_cast<std::size_t>(state.range(0)),
                                   rng.split());
  for (auto _ : state) benchmark::DoNotOptimize(estimator.estimate().simple);
}
BENCHMARK(BM_SampleCollide)->Arg(5)->Arg(20);

void BM_DesEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule_after(1.0, tick);
    };
    sim.schedule_at(0.0, tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 10000));
}
BENCHMARK(BM_DesEventLoop);

void BM_SpectralGapLanczos(benchmark::State& state) {
  Rng rng(6);
  const Graph g = largest_component(
      balanced_random_graph(static_cast<std::size_t>(state.range(0)), rng));
  for (auto _ : state)
    benchmark::DoNotOptimize(spectral_gap_lanczos(g, 80));
}
BENCHMARK(BM_SpectralGapLanczos)->Arg(2000)->Arg(8000);

void BM_BalancedGeneration(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        balanced_random_graph(static_cast<std::size_t>(state.range(0)), rng)
            .num_edges());
}
BENCHMARK(BM_BalancedGeneration)->Arg(10000);

// Mirrors each finished benchmark into the telemetry report on top of the
// normal console table: `bm.<name>.real_time` (in the benchmark's own time
// unit) plus every finalized counter as `bm.<name>.<counter>` — notably
// items_per_second, which the perf-smoke baseline diff
// (scripts/validate_bench_json.py --baseline) compares across commits.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      overcount::bench::record_value("bm." + name + ".real_time",
                                     run.GetAdjustedRealTime());
      for (const auto& [counter_name, counter] : run.counters) {
        overcount::bench::record_value("bm." + name + "." + counter_name,
                                       counter.value);
        if (counter_name == "items_per_second")
          items_per_second_[name] = counter.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Finalized items/s of a benchmark by full name, NaN when absent.
  double items_per_second(const std::string& name) const {
    const auto it = items_per_second_.find(name);
    return it == items_per_second_.end()
               ? std::numeric_limits<double>::quiet_NaN()
               : it->second;
  }

 private:
  std::map<std::string, double> items_per_second_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace overcount;
  using namespace overcount::bench;

  preamble("micro",
           "google-benchmark microbenchmarks: walk, DES, spectral, batch "
           "scaling, probe overhead");

  // In fast mode shrink the measurement window so CI smoke runs stay quick.
  std::vector<char*> args(argv, argv + argc);
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (fast_mode()) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;

  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Headline number for the interleaved kernel: items/s at width 16 over
  // the scalar tour loop. The committed perf baseline records this, so a
  // kernel regression that only shows up relative to scalar still fails the
  // baseline diff.
  const double scalar_rate = reporter.items_per_second("BM_RandomTour");
  const double kernel_rate =
      reporter.items_per_second("BM_RandomTourKernel/width:16");
  if (scalar_rate > 0.0 && kernel_rate > 0.0)
    record_value("rt_kernel_speedup_width16", kernel_rate / scalar_rate);

  // Tracing overhead headline: fraction of width-16 kernel throughput lost
  // with a live recorder (acceptance: <= 0.05 plus measurement noise). Kept
  // out of the committed baseline's diffed counters — the baseline diff
  // reports new counters as informational only.
  const double traced_rate =
      reporter.items_per_second("BM_RandomTourKernelTraced");
  if (kernel_rate > 0.0 && traced_rate > 0.0)
    record_value("rt_kernel_trace_overhead",
                 (kernel_rate - traced_rate) / kernel_rate);

  // A small probed batch so the micro artifact also carries histogram and
  // walk-stats sections (the same schema the figure benches emit).
  WalkStats walk;
  ParallelRunner runner(worker_threads());
  const auto batch =
      run_tours_size_probed(balanced_graph(), 0, 64, 42, runner, walk);
  emit_batch("rt_probed_batch", batch);
  emit_walk_stats("rt_probed_batch", walk);

  benchmark::Shutdown();
  return 0;
}
