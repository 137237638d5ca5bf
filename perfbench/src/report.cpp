#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (Entry& e : metrics_)
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: FAIL: " << why << "\n";
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Report::get(const std::string& name) const {
  for (const Entry& e : metrics_)
    if (e.name == name) return e.value;
  return 0.0;
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  const std::size_t idx = std::min(xs.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

void LogHistogram::record(double v) {
  const double idx =
      v > kMin ? std::floor(std::log(v / kMin) / std::log(kGrowth)) : 0.0;
  ++buckets_[std::min(kBuckets - 1, static_cast<std::size_t>(idx))];
  ++count_;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i < kBuckets && seen + buckets_[i] < rank; ++i) seen += buckets_[i];
  // Interpolate by rank inside the bucket, on the log scale.
  const double within = (static_cast<double>(rank - seen) - 0.5) /
                        static_cast<double>(buckets_[i]);
  return kMin * std::pow(kGrowth, static_cast<double>(i) + within);
}

namespace {

struct Moments {
  double n = 0, sum = 0, sum_sq = 0;
  void add(double x) {
    n += 1;
    sum += x;
    sum_sq += x * x;
  }
  double mean() const { return n > 0 ? sum / n : 0.0; }
  double std_error() const {
    if (n < 2) return 0.0;
    const double var = std::max(0.0, (sum_sq - n * mean() * mean()) / (n - 1));
    return std::sqrt(var / n);
  }
};

}  // namespace

Accuracy score_estimates(const std::vector<Scored>& estimates,
                         Report& report) {
  Accuracy acc;
  Moments all;
  std::map<int, Moments> groups;
  double err_sq = 0.0;
  std::size_t mismatches = 0, non_finite = 0;
  for (const Scored& e : estimates) {
    if (!std::isfinite(e.value) || !(e.value > 0.0)) {
      ++non_finite;
      continue;
    }
    // A size answered with a degree sum (or the reverse) sits a factor of
    // the average degree away from its own truth.
    if (std::fabs(std::log(e.value / e.other_truth)) <
        std::fabs(std::log(e.value / e.truth)))
      ++mismatches;
    const double ratio = e.value / e.truth;
    all.add(ratio);
    groups[e.group].add(ratio);
    err_sq += (ratio - 1.0) * (ratio - 1.0);
  }
  if (non_finite > 0)
    report.fail(std::to_string(non_finite) +
                " non-finite or non-positive estimates");
  if (mismatches > 0)
    report.fail(std::to_string(mismatches) +
                " estimates closer to the other kind's truth (kind mismatch)");
  if (all.n == 0) {
    report.fail("no estimate to score");
    return acc;
  }
  acc.estimates = static_cast<std::size_t>(all.n);
  acc.rel_rmse = std::sqrt(err_sq / all.n);
  acc.mean_ratio = all.mean();
  acc.std_error = all.std_error();
  // Unbiasedness gate per group: Random Tours are unbiased and Sample &
  // Collide is within a few percent at ell = 16, so each group's mean ratio
  // must sit within five standard errors (plus that allowance) of 1. A
  // standard error from fewer than eight estimates is itself too noisy.
  for (const auto& [group, m] : groups) {
    const double allowed = 5.0 * m.std_error() + 0.03;
    if (m.n >= 8 && std::fabs(m.mean() - 1.0) > allowed) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "group %d: mean estimate/truth %.4f over %.0f estimates "
                    "is off 1 by more than %.4f",
                    group, m.mean(), m.n, allowed);
      report.fail(buf);
    }
  }
  return acc;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kib = 0;
      std::sscanf(line.c_str(), "VmHWM: %" SCNu64, &kib);
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return 0.0;
}

void record_span(const char* cat, const char* name, Clock::time_point start,
                 Clock::time_point end) {
  overcount::TraceRecorder* rec = overcount::TraceRecorder::active();
  if (rec == nullptr) return;
  const auto us = [](Clock::duration d) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::microseconds>(d).count()));
  };
  const std::uint64_t now_us = rec->now_us();
  const std::uint64_t ago = us(Clock::now() - start);
  overcount::TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.ts_us = now_us > ago ? now_us - ago : 0;
  e.dur_us = us(end - start);
  rec->record(e);
}

double median_setup_seconds(int times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    setup();
    walls.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

}  // namespace perfbench
