// Batch front-ends for the paper's estimators, fanned across a
// ParallelRunner (src/runtime/): a batch of m independent Random Tours,
// CTRW samples, Sample & Collide trials, or Metropolis walks, each walk on
// the `Rng::split()` stream indexed by its position in the batch.
//
// Reproducibility contract: for a fixed (graph, origin, parameters, seed)
// the returned batch — every per-trial result AND every reduced aggregate —
// is bit-identical for any runner thread count, including 1. Per-trial
// results are stored by walk index and floating-point aggregates go through
// the fixed pairwise tree reduction of runtime/parallel_runner.hpp, so
// scheduling never leaks into the numbers.
//
// Truncated tours (a `max_steps` abort) are excluded from the reduced
// aggregates and reported via TourBatch::truncated instead of silently
// biasing the mean — see TourEstimate::completed.
//
// One batch path: every tour, CTRW-sample and S&C batch (probed or not, and
// the monitored runs of core/convergence.hpp) goes through detail::
// run_lanes: one drive_lanes call per worker, min(threads, m) workers, whose
// lanes claim walk indices from one shared atomic cursor and refill from it
// until the batch is drained. The interleave width is derived, not set:
// min(kDefaultKernelWidth, ceil(m / workers)), so a batch smaller than
// threads x 16 still spreads over every thread, and a one-thread batch keeps
// its lanes full across the whole batch. Every call runs the interleaved
// prefetching kernel of walk/kernel.hpp, whose lanes walk on their own
// copies of the batch's streams and replay the scalar per-walk draw order
// exactly, so each result equals the scalar reference (random_tour,
// ctrw_sample, SampleCollideEstimator) bit for bit whichever worker claims
// the walk, and probed batches fold the same per-walk WalkStats
// (tests/walk/kernel_equivalence_test.cpp). Origins are validated
// unconditionally at batch entry; the per-step degree checks inside the
// walks compile out of plain Release builds (OVERCOUNT_HOT_CHECKS,
// util/contracts.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/random_tour.hpp"
#include "core/sample_collide.hpp"
#include "core/sampling.hpp"
#include "obs/cost/cost.hpp"
#include "obs/probe.hpp"
#include "runtime/parallel_runner.hpp"
#include "walk/kernel.hpp"
#include "walk/metropolis.hpp"
#include "walk/walkers.hpp"

namespace overcount {

/// A batch of Random Tours from one origin.
struct TourBatch {
  std::vector<TourEstimate> tours;  ///< all m tours, task-index order
  std::size_t completed = 0;        ///< tours that returned to the origin
  std::size_t truncated = 0;        ///< tours aborted by max_steps (dropped)
  double sum = 0.0;            ///< tree-reduced sum of COMPLETED estimates
  std::uint64_t total_steps = 0;  ///< walk steps across all tours
  BatchStats stats;

  /// True when at least one tour completed, i.e. mean() is a usable size
  /// estimate. A batch where EVERY tour hit max_steps has no unbiased
  /// information at all.
  bool ok() const noexcept { return completed > 0; }

  /// Mean of the completed (unbiased) estimates. NaN when every tour was
  /// truncated — deliberately not 0.0, so a failed batch can never be
  /// mistaken for a tiny size estimate downstream; check ok() first.
  double mean() const noexcept {
    return ok() ? sum / static_cast<double>(completed)
                : std::numeric_limits<double>::quiet_NaN();
  }
};

/// A batch of sampling walks (CTRW or Metropolis) from one origin.
struct SampleBatch {
  std::vector<SampleResult> samples;  ///< task-index order
  std::uint64_t total_hops = 0;
  BatchStats stats;
};

/// A batch of independent Sample & Collide measurements from one origin.
struct ScBatch {
  std::vector<ScEstimate> trials;  ///< task-index order
  double sum_simple = 0.0;         ///< tree-reduced sum of C^2/(2l) values
  double sum_ml = 0.0;             ///< tree-reduced sum of ML estimates
  std::uint64_t total_hops = 0;
  BatchStats stats;

  /// True when at least one trial ran, i.e. the means are usable size
  /// estimates.
  bool ok() const noexcept { return !trials.empty(); }

  /// Means of the simple and ML estimates. NaN on an empty batch, like
  /// TourBatch::mean — never 0.0, which reads as a tiny size; check ok()
  /// first.
  double mean_simple() const noexcept { return mean_of(sum_simple); }
  double mean_ml() const noexcept { return mean_of(sum_ml); }

 private:
  double mean_of(double sum) const noexcept {
    return ok() ? sum / static_cast<double>(trials.size())
                : std::numeric_limits<double>::quiet_NaN();
  }
};

namespace detail {

/// Deterministic fold of per-task WalkStats, in task-index order. Integer
/// counters and histogram buckets are order-independent sums; the one
/// floating-point field (sojourn_time) goes through the same pairwise tree
/// reduction as every batch aggregate, so the merged stats are bit-identical
/// at any thread count.
inline WalkStats fold_walk_stats(std::span<const WalkStats> parts) {
  WalkStats out;
  std::vector<double> sojourns;
  sojourns.reserve(parts.size());
  for (const auto& p : parts) {
    out.merge_counts(p);
    sojourns.push_back(p.sojourn_time);
  }
  out.sojourn_time = tree_sum(sojourns);
  return out;
}

/// Applies the Section 4 estimator math to one raw kernel trial. The trial
/// stopped at exactly `ell` collisions, so this reproduces bit-identically
/// what SampleCollideEstimator::estimate computes from its tracker.
inline ScEstimate finalize_sc_trial(const ScTrialRaw& raw, std::size_t ell) {
  ScEstimate out;
  out.samples = raw.samples;
  out.hops = raw.hops;
  out.replies = raw.samples;
  const auto collisions = static_cast<std::uint64_t>(ell);
  out.ml = sc_ml_estimate(raw.samples, collisions);
  out.simple = sc_simple_estimate(raw.samples, collisions);
  const auto bracket = sc_bracket(raw.samples, collisions);
  out.n_minus = bracket.n_minus;
  out.n_plus = bracket.n_plus;
  return out;
}

/// The one dispatch skeleton every batch runs through. Walks [begin, end)
/// are claimed from one atomic cursor by min(threads, m) workers, each running
/// `lanes(begin, m, width, cursor, probes)` once — one drive_lanes call of
/// `width` = min(kDefaultKernelWidth, ceil(m / workers)) lanes over walks
/// [begin, begin + m). For an enabled probe type P, `probes` holds one P per
/// walk, each recording into its own WalkStats, and `walk_out` receives
/// their deterministic fold; for NullProbe the span is empty and `walk_out`
/// unused. `stats` receives the dispatch counters, with `tasks` counting
/// walks, not workers.
template <WalkProbe P, typename Lanes>
void run_lanes(ParallelRunner& runner, std::size_t begin, std::size_t end,
               const Lanes& lanes, BatchStats& stats,
               WalkStats* walk_out = nullptr) {
  const std::size_t m = end - begin;
  const std::size_t workers = std::min<std::size_t>(runner.thread_count(), m);
  const std::size_t width =
      workers == 0 ? 1
                   : std::min(kDefaultKernelWidth, (m + workers - 1) / workers);
  std::vector<WalkStats> per_walk(probe_enabled_v<P> ? m : 0);
  std::vector<P> probes;
  if constexpr (probe_enabled_v<P>) {
    probes.reserve(m);
    for (WalkStats& w : per_walk) probes.emplace_back(w);
  }
  // Every worker's lanes bump the cursor, once per walk: keep it off the
  // cache lines of the caller's other locals.
  alignas(64) std::atomic<std::size_t> cursor{0};
  runner.run<char>(
      workers,
      [&](std::size_t) {
        lanes(begin, m, width, cursor, std::span<P>(probes));
        return char{0};
      },
      &stats);
  stats.tasks = m;
  if constexpr (probe_enabled_v<P>) *walk_out = fold_walk_stats(per_walk);
}

/// Lane bodies for run_lanes: walks [first, first + count) on their own
/// streams, results into their own slots.
template <OverlayTopology G, typename F>
auto tour_lanes(const G& g, NodeId origin, F& f, std::span<const Rng> streams,
                std::span<TourEstimate> out, std::uint64_t max_steps) {
  return [&g, origin, &f, streams, out, max_steps](
             std::size_t first, std::size_t count, std::size_t width,
             std::atomic<std::size_t>& cursor, auto probes) {
    tour_kernel(g, origin, f, streams.subspan(first, count),
                out.subspan(first, count), width, max_steps, probes, &cursor);
  };
}

template <OverlayTopology G>
auto ctrw_lanes(const G& g, NodeId origin, double timer,
                std::span<const Rng> streams, std::span<SampleResult> out) {
  return [&g, origin, timer, streams, out](std::size_t first,
                                           std::size_t count,
                                           std::size_t width,
                                           std::atomic<std::size_t>& cursor,
                                           auto probes) {
    ctrw_kernel(g, origin, timer, streams.subspan(first, count),
                out.subspan(first, count), width, probes, &cursor);
  };
}

/// S&C trials write raw (C_ell, hops) statistics into one batch-wide buffer,
/// one slot per trial; finalize_sc_trial turns them into estimates once the
/// trials have run.
template <OverlayTopology G>
auto sc_lanes(const G& g, NodeId origin, double timer, std::size_t ell,
              std::span<const Rng> streams, std::span<ScTrialRaw> raw) {
  return [&g, origin, timer, ell, streams, raw](
             std::size_t first, std::size_t count, std::size_t width,
             std::atomic<std::size_t>& cursor, auto probes) {
    sc_kernel(g, origin, timer, ell, streams.subspan(first, count),
              raw.subspan(first, count), width, probes, &cursor);
  };
}

/// Batch epilogue shared by every batch: records the walk steps and charges
/// steps, walks and CPU to the caller's cost context (the CostScope serve
/// batches set; a no-op without an active ledger). Once per batch, never
/// per step, and only after `stats` carries the batch's tasks and timings.
inline void finish_batch_stats(BatchStats& stats, std::uint64_t steps) {
  stats.steps = steps;
  cost_charge_batch(stats.steps, stats.tasks, stats.cpu_seconds);
}

/// Fills the reduced tail of each batch kind from its per-walk results.
inline void finish_tour_batch(TourBatch& batch) {
  std::vector<double> completed_values;
  completed_values.reserve(batch.tours.size());
  for (const auto& t : batch.tours) {
    batch.total_steps += t.steps;
    if (t.completed) {
      ++batch.completed;
      completed_values.push_back(t.value);
    } else {
      ++batch.truncated;
    }
  }
  batch.sum = tree_sum(completed_values);
  finish_batch_stats(batch.stats, batch.total_steps);
}

inline void finish_sample_batch(SampleBatch& batch) {
  for (const auto& s : batch.samples) batch.total_hops += s.hops;
  finish_batch_stats(batch.stats, batch.total_hops);
}

inline void finish_sc_batch(ScBatch& batch) {
  std::vector<double> simple, ml;
  simple.reserve(batch.trials.size());
  ml.reserve(batch.trials.size());
  for (const auto& t : batch.trials) {
    batch.total_hops += t.hops;
    simple.push_back(t.simple);
    ml.push_back(t.ml);
  }
  batch.sum_simple = tree_sum(simple);
  batch.sum_ml = tree_sum(ml);
  finish_batch_stats(batch.stats, batch.total_hops);
}

template <WalkProbe P, OverlayTopology G, typename F>
TourBatch tour_batch(const G& g, NodeId origin, std::size_t m, F& f,
                     std::uint64_t seed, ParallelRunner& runner,
                     std::uint64_t max_steps, WalkStats* walk_out) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  TourBatch batch;
  batch.tours.resize(m);
  const auto streams = derive_streams(seed, m);
  run_lanes<P>(runner, 0, m,
               tour_lanes(g, origin, f, streams, batch.tours, max_steps),
               batch.stats, walk_out);
  finish_tour_batch(batch);
  return batch;
}

template <WalkProbe P, OverlayTopology G>
SampleBatch sample_batch(const G& g, NodeId origin, std::size_t m,
                         double timer, std::uint64_t seed,
                         ParallelRunner& runner, WalkStats* walk_out) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  SampleBatch batch;
  batch.samples.resize(m);
  const auto streams = derive_streams(seed, m);
  run_lanes<P>(runner, 0, m,
               ctrw_lanes(g, origin, timer, streams, batch.samples),
               batch.stats, walk_out);
  finish_sample_batch(batch);
  return batch;
}

template <WalkProbe P, OverlayTopology G>
ScBatch sc_batch(const G& g, NodeId origin, std::size_t trials, double timer,
                 std::size_t ell, std::uint64_t seed, ParallelRunner& runner,
                 WalkStats* walk_out) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  ScBatch batch;
  const auto streams = derive_streams(seed, trials);
  std::vector<ScTrialRaw> raw(trials);
  run_lanes<P>(runner, 0, trials,
               sc_lanes(g, origin, timer, ell, streams, raw), batch.stats,
               walk_out);
  batch.trials.reserve(trials);
  for (const ScTrialRaw& r : raw)
    batch.trials.push_back(finalize_sc_trial(r, ell));
  finish_sc_batch(batch);
  return batch;
}

}  // namespace detail

/// m independent Random Tours estimating sum_j f(j).
template <OverlayTopology G, typename F>
TourBatch run_tours(const G& g, NodeId origin, std::size_t m, F f,
                    std::uint64_t seed, ParallelRunner& runner,
                    std::uint64_t max_steps = ~0ULL) {
  return detail::tour_batch<NullProbe>(g, origin, m, f, seed, runner,
                                       max_steps, nullptr);
}

/// m independent Random Tour size estimates (f = 1).
template <OverlayTopology G>
TourBatch run_tours_size(const G& g, NodeId origin, std::size_t m,
                         std::uint64_t seed, ParallelRunner& runner,
                         std::uint64_t max_steps = ~0ULL) {
  return run_tours(
      g, origin, m, [](NodeId) { return 1.0; }, seed, runner, max_steps);
}

/// m independent Random Tours with per-walk probe statistics: each walk
/// records into its own WalkStats (one WalkStatsProbe per tour, so revisit
/// tracking stays walk-local) and `walk_out` receives the deterministic
/// fold. The batch itself — every tour, the reduced sum, BatchStats — is
/// bit-identical to the unprobed run_tours of the same (seed, m): probes
/// observe the walk, they never draw from its stream.
template <OverlayTopology G, typename F>
TourBatch run_tours_probed(const G& g, NodeId origin, std::size_t m, F f,
                           std::uint64_t seed, ParallelRunner& runner,
                           WalkStats& walk_out,
                           std::uint64_t max_steps = ~0ULL) {
  return detail::tour_batch<WalkStatsProbe>(g, origin, m, f, seed, runner,
                                            max_steps, &walk_out);
}

/// Probed Random Tour size batch (f = 1).
template <OverlayTopology G>
TourBatch run_tours_size_probed(const G& g, NodeId origin, std::size_t m,
                                std::uint64_t seed, ParallelRunner& runner,
                                WalkStats& walk_out,
                                std::uint64_t max_steps = ~0ULL) {
  return run_tours_probed(
      g, origin, m, [](NodeId) { return 1.0; }, seed, runner, walk_out,
      max_steps);
}

/// m independent CTRW samples (paper Section 4.1) from `origin`.
template <OverlayTopology G>
SampleBatch run_samples(const G& g, NodeId origin, std::size_t m,
                        double timer, std::uint64_t seed,
                        ParallelRunner& runner) {
  return detail::sample_batch<NullProbe>(g, origin, m, timer, seed, runner,
                                         nullptr);
}

/// m independent CTRW samples with per-walk probe statistics (see
/// run_tours_probed for the determinism contract).
template <OverlayTopology G>
SampleBatch run_samples_probed(const G& g, NodeId origin, std::size_t m,
                               double timer, std::uint64_t seed,
                               ParallelRunner& runner, WalkStats& walk_out) {
  return detail::sample_batch<WalkStatsProbe>(g, origin, m, timer, seed,
                                              runner, &walk_out);
}

/// `trials` independent Sample & Collide measurements, each sampling until
/// `ell` collisions on its own stream.
template <OverlayTopology G>
ScBatch run_sc_trials(const G& g, NodeId origin, std::size_t trials,
                      double timer, std::size_t ell, std::uint64_t seed,
                      ParallelRunner& runner) {
  return detail::sc_batch<NullProbe>(g, origin, trials, timer, ell, seed,
                                     runner, nullptr);
}

/// `trials` probed Sample & Collide measurements: the fold additionally
/// carries the collision-interarrival histogram (see run_tours_probed for
/// the determinism contract).
template <OverlayTopology G>
ScBatch run_sc_trials_probed(const G& g, NodeId origin, std::size_t trials,
                             double timer, std::size_t ell,
                             std::uint64_t seed, ParallelRunner& runner,
                             WalkStats& walk_out) {
  return detail::sc_batch<WalkStatsProbe>(g, origin, trials, timer, ell,
                                          seed, runner, &walk_out);
}

/// m independent Metropolis-Hastings samples of `steps` transitions each.
/// No interleaved kernel exists for this walk: one scalar walk per task.
template <OverlayTopology G>
SampleBatch run_metropolis_samples(const G& g, NodeId origin, std::size_t m,
                                   std::uint64_t steps, std::uint64_t seed,
                                   ParallelRunner& runner) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  SampleBatch batch;
  auto streams = derive_streams(seed, m);
  batch.samples = runner.run<SampleResult>(
      m,
      [&](std::size_t i) {
        MetropolisSampler sampler(g, steps, streams[i]);
        return sampler.sample(origin);
      },
      &batch.stats);
  detail::finish_sample_batch(batch);
  return batch;
}

}  // namespace overcount
