// Self-consistency auditors: online checks that the system's DELIVERED
// accuracy matches the PROMISED one.
//
// The paper's estimators come with (epsilon, delta) envelopes — a Random
// Tour batch sized by eps(m) ~ sqrt(2 d_bar / (lambda2 m delta)) promises
// |estimate/truth - 1| <= eps with probability >= 1 - delta, and Sample &
// Collide's averaged trials promise a ~1/sqrt(ell k) relative standard
// error. The serve layer plans budgets from those formulas, but nothing
// checked at runtime that reality agrees. The EstimateAuditor does, with the
// only truth proxy available online: agreement of repeated estimates with
// each other.
//
// Per (kind, method) stream it keeps a window of recent estimates AT ONE
// TOPOLOGY VERSION (a churn tick changes the truth, so the window resets on
// version change) and runs three checks:
//  1. Confidence audit — each estimate promised |x/truth - 1| <= eps w.p.
//     1 - delta. Using the window mean as the truth proxy, the number of
//     window entries with |x_i - mean|/|mean| > eps_i should be Binomial(n,
//     ~delta); we trip when it exceeds mean + 3 sigma of that binomial
//     (plus 1 for proxy slop).
//  2. Split-sample variance audit — even- and odd-indexed halves of the
//     window are independent estimates of the same truth; each half-mean of
//     k entries has relative scale ~ eps_bar/sqrt(k), so
//     |m_even - m_odd| > slack * eps_bar * |mean| * sqrt(2/k) means the
//     empirical variance exceeds the promised envelope.
//  3. Method divergence — two methods ("random_tour" vs "sample_collide")
//     estimating the same quantity at the same version must agree within
//     their combined envelopes: |m_a - m_b| > slack * (eps_a + eps_b) *
//     midpoint trips audit.method_divergence.
// Trips raise kWarn HealthEvents and bump audit.* counters; per-stream
// gauges (audit.<kind>.<method>.mean / .rel_spread) expose the window state
// to /metrics. These are alarms, not proofs: thresholds carry a
// configurable slack because the truth proxy is itself noisy.
//
// SloLedger is the serving-side ledger: per request class it tracks the
// deadline-hit rate over a sliding window against a target objective and
// converts misses into error-budget burn (burn 1.0 = the whole miss
// allowance of the window is spent). Crossing burn 1.0 raises a kCritical
// serve.slo_breach event — the flight-recorder trigger for "we are now
// violating the SLO", not just "one request was late".
//
// Both classes only ever READ delivered estimates and response outcomes —
// no Rng, no feedback into planning — so audited runs stay bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health/health.hpp"

namespace overcount {

class AtomicHistogram;
class Counter;
class Gauge;
class MetricsRegistry;

struct AuditConfig {
  std::size_t window = 64;       ///< estimates retained per stream
  std::size_t min_samples = 8;   ///< no verdicts before this many
  double slack = 3.0;            ///< multiplier on theory envelopes
};

class EstimateAuditor {
 public:
  /// `metrics` receives the audit.* stream; `health` (nullptr = use the
  /// installed HealthCenter at trip time) receives trip events.
  explicit EstimateAuditor(MetricsRegistry* metrics = nullptr,
                           HealthCenter* health = nullptr,
                           AuditConfig config = {});

  EstimateAuditor(const EstimateAuditor&) = delete;
  EstimateAuditor& operator=(const EstimateAuditor&) = delete;

  /// Feeds one delivered estimate into the (kind, method) stream. `epsilon`
  /// and `delta` are the promise it was served under; `version` is the
  /// topology version it was computed at. Thread-safe; cold path (one call
  /// per served batch, never per walk).
  void observe(std::string_view kind, std::string_view method,
               double estimate, double epsilon, double delta,
               std::uint64_t version);

  std::uint64_t confidence_trips() const;
  std::uint64_t variance_trips() const;
  std::uint64_t divergence_trips() const;
  std::uint64_t observations() const;

 private:
  struct Entry {
    double value;
    double epsilon;
    double delta;
  };
  struct Stream {
    std::string kind;
    std::string method;
    std::uint64_t version = 0;
    std::vector<Entry> window;  ///< oldest first, bounded by config.window
    Gauge* mean_m = nullptr;
    Gauge* rel_spread_m = nullptr;
  };

  void check_stream(Stream& s);
  void check_divergence(const Stream& s);
  void trip(const char* code, const std::string& message, double value,
            double threshold);

  AuditConfig config_;
  HealthCenter* health_;
  MetricsRegistry* metrics_;

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, Stream> streams_;
  std::uint64_t observations_ = 0;
  std::uint64_t confidence_trips_ = 0;
  std::uint64_t variance_trips_ = 0;
  std::uint64_t divergence_trips_ = 0;

  Counter* observations_m_ = nullptr;
  Counter* confidence_m_ = nullptr;
  Counter* variance_m_ = nullptr;
  Counter* divergence_m_ = nullptr;
};

struct SloPolicy {
  double target = 0.99;         ///< deadline-hit-rate objective per class
  std::size_t window = 256;     ///< sliding window (requests) for burn
  std::size_t min_requests = 20;  ///< no breach verdicts before this many
};

/// How one request resolved, from the ledger's point of view.
enum class SloOutcome : std::uint8_t {
  kOk,            ///< delivered within its deadline (or had none)
  kDeadlineMiss,  ///< delivered/abandoned past its deadline
  kRejected,      ///< load-shed at admission (tracked, not budget burn)
  kFailed,        ///< batch threw
};

class SloLedger {
 public:
  explicit SloLedger(MetricsRegistry* metrics = nullptr,
                     HealthCenter* health = nullptr, SloPolicy policy = {});

  SloLedger(const SloLedger&) = delete;
  SloLedger& operator=(const SloLedger&) = delete;

  /// Records one resolved request of `cls` (e.g. "size.random_tour.deadline"
  /// — callers pick the class taxonomy). `latency_us` lands in
  /// serve.slo.<cls>.latency_us unless the request was rejected.
  /// Thread-safe.
  void record(std::string_view cls, SloOutcome outcome,
              std::uint64_t latency_us);

  /// Hit rate over the class's sliding window (NaN before any request).
  /// Rejected requests are load-shedding, visible in serve.slo.*.rejected
  /// but excluded from the hit-rate denominator.
  double hit_rate(std::string_view cls) const;

  /// Fraction of the window's miss allowance consumed: window_misses /
  /// ((1 - target) * window_size). >= 1.0 means the objective is violated
  /// over the window.
  double budget_burn(std::string_view cls) const;

  std::uint64_t breaches() const;

 private:
  struct ClassState {
    Counter* requests_m = nullptr;
    Counter* ok_m = nullptr;
    Counter* miss_m = nullptr;
    Counter* rejected_m = nullptr;
    Counter* failed_m = nullptr;
    Gauge* hit_rate_m = nullptr;
    Gauge* burn_m = nullptr;
    AtomicHistogram* latency_m = nullptr;
    std::vector<bool> violations;  ///< ring over counted requests
    std::size_t next = 0;
    std::size_t filled = 0;
    std::size_t window_misses = 0;
    bool breached = false;  ///< raise once per episode (hysteresis at 0.5)
  };

  ClassState& state_for(std::string_view cls);
  double burn_of(const ClassState& st) const;

  SloPolicy policy_;
  HealthCenter* health_;
  MetricsRegistry* metrics_;

  mutable std::mutex mutex_;
  std::map<std::string, ClassState, std::less<>> classes_;
  std::uint64_t breaches_ = 0;
};

}  // namespace overcount
