// Convergence time series: periodic snapshots of a running estimate.
//
// The paper's guarantees are asymptotic — a Random Tour batch of m tours has
// relative error eps(m) ~ sqrt(2 d_bar / (lambda2 m delta)) (Section 3,
// Chebyshev + Prop. 2) and a Sample & Collide average over k trials of
// accuracy ell has relative standard error ~ 1/sqrt(ell k) (Lemma 2, Fisher
// information I(N) ~ ell/N^2). What a practitioner actually wants to SEE is
// the trajectory: how the estimate approaches the truth as walk steps are
// spent, and whether the observed error stays inside the predicted envelope.
// TimeSeriesRecorder captures that trajectory — one ConvergencePoint per
// recording interval with the running estimate, the theory half-width, the
// cumulative step bill and the wall clock — and timeseries.cpp exports it as
// versioned JSON for scripts/report_convergence.py.
//
// Recording happens BETWEEN recording intervals (core/convergence.hpp), never
// inside a walk, and touches no Rng: a monitored run returns estimates
// bit-identical to the plain batch of the same (seed, m), pinned by
// tests/obs/timeseries_test.cpp.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace overcount {

/// One snapshot of a converging estimate.
struct ConvergencePoint {
  std::uint64_t walks = 0;      ///< walks (tours / trials) folded in so far
  std::uint64_t steps = 0;      ///< cumulative walk steps / hops spent
  double estimate = 0.0;        ///< running estimate after `walks` walks
  double half_width = 0.0;      ///< predicted relative half-width (NaN if
                                ///< the theory inputs are unknown)
  double wall_seconds = 0.0;    ///< wall time since the recorder started
};

/// Accumulates ConvergencePoints for one monitored run. `kind` names the
/// estimator ("random_tour", "sample_collide", ...); `truth` is the known
/// population size when the experiment has one (NaN otherwise) and is only
/// used for reporting, never by the estimator.
class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(
      std::string kind = "",
      double truth = std::numeric_limits<double>::quiet_NaN())
      : kind_(std::move(kind)),
        truth_(truth),
        start_(std::chrono::steady_clock::now()) {}

  /// Appends one point, stamping wall time since construction.
  void record(std::uint64_t walks, std::uint64_t steps, double estimate,
              double half_width) {
    points_.push_back(
        {walks, steps, estimate, half_width, elapsed_seconds()});
  }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  const std::string& kind() const noexcept { return kind_; }
  double truth() const noexcept { return truth_; }
  bool has_truth() const noexcept { return truth_ == truth_; }
  const std::vector<ConvergencePoint>& points() const noexcept {
    return points_;
  }
  bool empty() const noexcept { return points_.empty(); }

  /// Index of the first point whose estimate is within `rel_tol` of the
  /// truth AND never leaves that band again — the practical "converged at"
  /// reading of the trajectory. Returns points().size() when the run never
  /// settles (or no truth is known).
  std::size_t settled_at(double rel_tol) const noexcept {
    if (!has_truth() || truth_ == 0.0) return points_.size();
    std::size_t settled = points_.size();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const double rel =
          std::abs(points_[i].estimate - truth_) / std::abs(truth_);
      if (rel <= rel_tol) {
        if (settled == points_.size()) settled = i;
      } else {
        settled = points_.size();
      }
    }
    return settled;
  }

 private:
  std::string kind_;
  double truth_;
  std::chrono::steady_clock::time_point start_;
  std::vector<ConvergencePoint> points_;
};

class JsonWriter;

/// Versioned JSON object for one recorded trajectory:
/// {schema: 1, kind, truth (null when unknown), points: [{walks, steps,
/// estimate, half_width, wall_s}, ...]}. Consumed by
/// scripts/report_convergence.py.
void write_json(JsonWriter& w, const TimeSeriesRecorder& recorder);

/// write_json into `path`; returns false (with a stderr note) when the file
/// cannot be opened.
bool write_timeseries_file(const std::string& path,
                           const TimeSeriesRecorder& recorder);

}  // namespace overcount
