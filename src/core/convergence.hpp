// Monitored batch runs: the core/parallel.hpp estimator batches, executed
// in recording intervals with a convergence snapshot between intervals.
//
// The point of watching a run converge is to compare the observed error
// against the paper's predicted envelope:
//  * Random Tours (Section 3.4): after m tours the relative half-width at
//    confidence 1-delta is eps(m) = sqrt(2 d_bar / (lambda2 m delta)) —
//    Chebyshev over the per-tour variance bound of Prop. 2.
//  * Sample & Collide (Section 4, Lemma 2): one trial of accuracy ell has
//    relative MSE ~ 1/ell, so the average of k independent trials has
//    relative standard error ~ 1/sqrt(ell k); the recorded half-width is
//    the z=1.96 normal interval 1.96/sqrt(ell k).
//
// Determinism contract (tests/obs/timeseries_test.cpp): the streams are
// derived ONCE for the whole batch (derive_streams(seed, m)) and each walk
// runs on its own stream exactly as in the unmonitored batch, so every
// per-walk result and every reduced aggregate of the returned batch is
// BIT-IDENTICAL to run_tours_size / run_sc_trials of the same (seed, m) —
// at any thread count and recording interval. Only the BatchStats timings
// differ (the monitored run stops the clock to record). Like the plain
// batch, a monitored run charges its steps, walks and CPU to the caller's
// cost context once, at the end.
// Running estimates at interior points use the same pairwise tree reduction
// over the task-order prefix, so the trajectory itself is reproducible too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "obs/timeseries.hpp"

namespace overcount {

/// Knobs for a monitored run. The theory inputs are optional: when
/// lambda2/avg_degree (Random Tours) are unset the recorded half-width is
/// NaN and the trajectory is still useful against `truth`.
struct ConvergenceOptions {
  /// Walks per recording interval; 0 picks ~50 snapshots across the batch
  /// (at least kDefaultKernelWidth walks per interval, so each interval
  /// gives the drive_lanes calls a full band to share).
  std::size_t interval = 0;
  double delta = 0.05;       ///< confidence failure probability (RT bound)
  double lambda2 = 0.0;      ///< spectral gap of the overlay, when known
  double avg_degree = 0.0;   ///< d_bar, when known
  /// Ground-truth size for reporting (copied into the recorder); NaN = none.
  double truth = std::numeric_limits<double>::quiet_NaN();
};

namespace detail {

inline std::size_t resolve_interval(std::size_t configured, std::size_t m) {
  if (configured != 0) return configured;
  const std::size_t by_count = (m + 49) / 50;  // ~50 snapshots
  return std::max(kDefaultKernelWidth, by_count);
}

/// eps(m) = sqrt(2 d_bar / (lambda2 m delta)); NaN when inputs are unknown.
inline double rt_half_width(const ConvergenceOptions& opts,
                            std::uint64_t walks) {
  if (opts.lambda2 <= 0.0 || opts.avg_degree <= 0.0 || opts.delta <= 0.0 ||
      walks == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return std::sqrt(2.0 * opts.avg_degree /
                   (opts.lambda2 * static_cast<double>(walks) * opts.delta));
}

/// 1.96 / sqrt(ell k): normal interval on the mean of k S&C trials.
inline double sc_half_width(std::size_t ell, std::uint64_t trials) {
  if (ell == 0 || trials == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return 1.96 / std::sqrt(static_cast<double>(ell) *
                          static_cast<double>(trials));
}

/// Runs walks [0, m) through run_lanes one recording interval at a time,
/// each interval one cursor over its walks, calling `record(done)` after
/// each. Each walk runs on its own stream exactly as in the plain batch, so
/// the interval boundaries cannot perturb any walk; `stats` accumulates the
/// dispatch timings of every interval.
template <typename Lanes, typename Record>
void run_intervals(ParallelRunner& runner, std::size_t m,
                   std::size_t interval, const Lanes& lanes,
                   BatchStats& stats, Record&& record) {
  for (std::size_t done = 0; done < m;) {
    const std::size_t group = std::min(interval, m - done);
    BatchStats group_stats;
    run_lanes<NullProbe>(runner, done, done + group, lanes, group_stats);
    done += group;
    stats.wall_seconds += group_stats.wall_seconds;
    stats.cpu_seconds += group_stats.cpu_seconds;
    stats.threads = group_stats.threads;
    record(done);
  }
  stats.tasks = m;
}

}  // namespace detail

/// Random Tour size batch with convergence recording: bit-identical batch
/// results to run_tours_size(g, origin, m, seed, runner, max_steps), plus
/// one recorded point per interval. The recorder's kind/truth are set here.
template <OverlayTopology G>
TourBatch run_tours_size_converging(const G& g, NodeId origin, std::size_t m,
                                    std::uint64_t seed,
                                    ParallelRunner& runner,
                                    TimeSeriesRecorder& recorder,
                                    const ConvergenceOptions& opts = {},
                                    std::uint64_t max_steps = ~0ULL) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  recorder = TimeSeriesRecorder("random_tour", opts.truth);
  TourBatch batch;
  batch.tours.resize(m);
  const auto streams = derive_streams(seed, m);
  auto f = [](NodeId) { return 1.0; };
  std::uint64_t steps_spent = 0;
  std::vector<double> completed_prefix;  // completed estimates, task order
  completed_prefix.reserve(m);
  std::size_t next_prefix = 0;
  detail::run_intervals(
      runner, m, detail::resolve_interval(opts.interval, m),
      detail::tour_lanes(g, origin, f, streams, batch.tours, max_steps),
      batch.stats, [&](std::size_t done) {
        for (; next_prefix < done; ++next_prefix) {
          steps_spent += batch.tours[next_prefix].steps;
          if (batch.tours[next_prefix].completed)
            completed_prefix.push_back(batch.tours[next_prefix].value);
        }
        const double estimate =
            completed_prefix.empty()
                ? std::numeric_limits<double>::quiet_NaN()
                : tree_sum(completed_prefix) /
                      static_cast<double>(completed_prefix.size());
        recorder.record(done, steps_spent, estimate,
                        detail::rt_half_width(opts, done));
      });
  detail::finish_tour_batch(batch);
  return batch;
}

/// Sample & Collide trial batch with convergence recording: bit-identical
/// batch results to run_sc_trials(g, origin, trials, timer, ell, seed,
/// runner), plus one recorded point per interval. The running estimate is
/// the mean of the simple C^2/(2 ell) estimates over the trials so far (the
/// statistic the paper's own evaluation plots).
template <OverlayTopology G>
ScBatch run_sc_converging(const G& g, NodeId origin, std::size_t trials,
                          double timer, std::size_t ell, std::uint64_t seed,
                          ParallelRunner& runner,
                          TimeSeriesRecorder& recorder,
                          const ConvergenceOptions& opts = {}) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  recorder = TimeSeriesRecorder("sample_collide", opts.truth);
  ScBatch batch;
  batch.trials.resize(trials);
  const auto streams = derive_streams(seed, trials);
  std::vector<ScTrialRaw> raw(trials);
  std::uint64_t hops_spent = 0;
  std::vector<double> simple_prefix;
  simple_prefix.reserve(trials);
  std::size_t next_prefix = 0;
  detail::run_intervals(
      runner, trials, detail::resolve_interval(opts.interval, trials),
      detail::sc_lanes(g, origin, timer, ell, streams, raw), batch.stats,
      [&](std::size_t done) {
        for (; next_prefix < done; ++next_prefix) {
          batch.trials[next_prefix] =
              detail::finalize_sc_trial(raw[next_prefix], ell);
          hops_spent += batch.trials[next_prefix].hops;
          simple_prefix.push_back(batch.trials[next_prefix].simple);
        }
        recorder.record(done, hops_spent,
                        tree_sum(simple_prefix) /
                            static_cast<double>(simple_prefix.size()),
                        detail::sc_half_width(ell, done));
      });
  detail::finish_sc_batch(batch);
  return batch;
}

}  // namespace overcount
