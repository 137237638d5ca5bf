// The workload interface main.cpp runs, and the per-phase
// record every workload fills.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The measured window is cut into kSlices equal slices; each time metric
/// is the median of its per-slice values, so a burst of interference from
/// outside the benchmark moves at most a minority of the slices.
constexpr int kSlices = 5;

/// What one measured window produced, in the terms of the end-to-end
/// metrics. An operation is one request (serve workloads) or one estimate
/// batch (census workloads).
struct Phase {
  explicit Phase(double window_seconds = 0.0) : seconds(window_seconds) {}

  double seconds;                  ///< length of the measured window
  std::uint64_t attempted = 0;     ///< operations issued
  std::uint64_t ok = 0;            ///< operations answered OK
  std::uint64_t deadline_hits = 0; ///< OK and within the class deadline
  std::uint64_t failed = 0;        ///< transport errors and kFailed answers
  /// Latency (ms) of the operations answered in each slice; answers after
  /// the window (the drain) count in the last slice.
  LogHistogram latency_ms[kSlices];
  /// (seconds, cumulative walk steps) marks, ascending, over a window of
  /// step_seconds (the measured window unless a workload says otherwise).
  std::vector<std::pair<double, double>> steps;
  double step_seconds = 0.0;
  std::vector<Scored> estimates;   ///< distinct estimates, scored

  /// Records an operation answered `done` seconds into the window.
  void answer(double done, double ms) {
    const int k = seconds > 0 ? static_cast<int>(done / seconds * kSlices) : 0;
    latency_ms[std::clamp(k, 0, kSlices - 1)].record(ms);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input and every piece of the system under test from
  /// scratch (main.cpp times several calls and keeps the last state).
  virtual void setup() = 0;
  /// Runs the workload for `seconds` and returns the window's record.
  /// Layer statistics restart with each call.
  virtual Phase measure(double seconds) = 0;
  /// Per-layer metrics of the most recent measure() call.
  virtual void report_layers(Report& report) = 0;
};

std::unique_ptr<Workload> make_census(const Options& opts, bool sharded);
std::unique_ptr<Workload> make_serve(const Options& opts);

}  // namespace perfbench
