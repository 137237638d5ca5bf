// Shared vocabulary of the end-to-end benchmark: run options, the metric
// report, percentile helpers, the accuracy scorer and span recording.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using overcount::Graph;
using overcount::NodeId;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Input-size multiplier; below 1 only for the toy-scale self-test.
  double scale = 1.0;
  /// Multiplies every true size the scorer compares against. 1 in real
  /// runs; the self-test sets it to prove the accuracy gate can fail.
  double truth_skew = 1.0;
  /// Per-tenant request rate limit (and burst) of serve_hot; 0 = none. The
  /// self-test sets it to force rate-limit rejects.
  double tenant_rate = 0.0;
  /// Where the traced run writes its span file (inside the checkout).
  std::string out_dir = ".bench_build/out";
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deterministic input generator (splitmix64): every graph and request
/// stream the benchmark feeds the system comes from one of these, seeded
/// from --seed, so equal seeds give equal inputs. It is the benchmark's own,
/// so a change to the library's Rng cannot change inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0 (multiply-shift; bias below 2^-32 here).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// An independent stream (for a second thread or a second input).
  InputRng split() { return InputRng(next()); }

 private:
  std::uint64_t state_;
};

/// Metrics of one run, in emission order, plus the correctness verdict.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect; `why` goes to stderr.
  void fail(const std::string& why);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

/// q-quantile by nearest rank (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> xs, double q);

/// Fixed-memory histogram of positive values with 1% relative resolution
/// (log-spaced buckets from 1e-3 to 1e9 units); values outside the range
/// land in the end buckets.
class LogHistogram {
 public:
  LogHistogram() : buckets_(kBuckets, 0) {}
  void record(double v);
  std::uint64_t count() const { return count_; }
  /// q-quantile by nearest rank, interpolated inside its bucket; 0 when
  /// empty.
  double percentile(double q) const;

 private:
  static constexpr double kMin = 1e-3;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2800;  // kMin * 1.01^2800 > 1e9
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// One estimate scored against the truth the harness knows.
struct Scored {
  int group = 0;   ///< estimates of one group share an estimator and input
  double value = 0.0;
  double truth = 0.0;        ///< true value at the estimate's graph version
  double other_truth = 0.0;  ///< true value of the other kind, same version
};

struct Accuracy {
  std::size_t estimates = 0;
  double rel_rmse = 0.0;    ///< RMS of value/truth - 1
  double mean_ratio = 0.0;  ///< mean of value/truth
  double std_error = 0.0;   ///< standard error of that mean
};

/// Scores distinct estimates and fails the report on a non-finite value, a
/// kind mismatch, or a group whose mean ratio is further from 1 than the
/// gate allows.
Accuracy score_estimates(const std::vector<Scored>& estimates, Report& report);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Records a complete span on the installed TraceRecorder (no-op when none
/// is installed). `cat` and `name` must be string literals.
void record_span(const char* cat, const char* name, Clock::time_point start,
                 Clock::time_point end);

/// Runs `setup` `times` times and returns the median wall time in seconds.
/// Each call must build its state from scratch; the last one is kept.
double median_setup_seconds(int times, const std::function<void()>& setup);

}  // namespace perfbench
