#include "obs/health/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace overcount {

namespace {

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

}  // namespace

EstimateAuditor::EstimateAuditor(MetricsRegistry* metrics,
                                 HealthCenter* health, AuditConfig config)
    : config_(config), health_(health), metrics_(metrics) {
  if (metrics_ != nullptr) {
    observations_m_ = &metrics_->counter("audit.observations");
    confidence_m_ = &metrics_->counter("audit.confidence_trips");
    variance_m_ = &metrics_->counter("audit.variance_trips");
    divergence_m_ = &metrics_->counter("audit.divergence_trips");
  }
}

void EstimateAuditor::observe(std::string_view kind, std::string_view method,
                              double estimate, double epsilon, double delta,
                              std::uint64_t version) {
  if (!std::isfinite(estimate)) return;  // all-truncated batches audit nothing
  const std::lock_guard<std::mutex> lock(mutex_);
  ++observations_;
  if (observations_m_ != nullptr) observations_m_->inc();

  const auto key = std::make_pair(std::string(kind), std::string(method));
  Stream& s = streams_[key];
  if (s.kind.empty()) {
    s.kind = key.first;
    s.method = key.second;
    if (metrics_ != nullptr) {
      const std::string base = "audit." + s.kind + "." + s.method;
      s.mean_m = &metrics_->gauge(base + ".mean");
      s.rel_spread_m = &metrics_->gauge(base + ".rel_spread");
    }
  }
  // A topology change moves the truth: estimates across versions are not
  // comparable, so the window restarts.
  if (s.version != version) {
    s.version = version;
    s.window.clear();
  }
  s.window.push_back({estimate, epsilon, delta});
  if (s.window.size() > config_.window) s.window.erase(s.window.begin());

  const std::size_t n = s.window.size();
  double sum = 0.0;
  for (const Entry& e : s.window) sum += e.value;
  const double mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (const Entry& e : s.window) var += (e.value - mean) * (e.value - mean);
  var = n > 1 ? var / static_cast<double>(n - 1) : 0.0;
  const double rel_spread =
      mean != 0.0 ? std::sqrt(var) / std::abs(mean)
                  : std::numeric_limits<double>::quiet_NaN();
  if (s.mean_m != nullptr) {
    s.mean_m->set(mean);
    s.rel_spread_m->set(rel_spread);
  }

  if (n >= config_.min_samples && mean != 0.0) {
    check_stream(s);
    check_divergence(s);
  }
}

void EstimateAuditor::check_stream(Stream& s) {
  const std::size_t n = s.window.size();
  double sum = 0.0, eps_sum = 0.0, delta_sum = 0.0;
  for (const Entry& e : s.window) {
    sum += e.value;
    eps_sum += e.epsilon;
    delta_sum += e.delta;
  }
  const double mean = sum / static_cast<double>(n);
  const double eps_bar = eps_sum / static_cast<double>(n);
  const double delta_bar =
      std::clamp(delta_sum / static_cast<double>(n), 1e-6, 0.5);

  // Confidence audit: exceedances of the per-entry promise should be
  // Binomial(n, ~delta); mean + 3 sigma (+1 for the truth-proxy slop) is
  // the alarm line.
  std::size_t exceed = 0;
  for (const Entry& e : s.window)
    if (std::abs(e.value - mean) > e.epsilon * std::abs(mean)) ++exceed;
  const double allowance =
      static_cast<double>(n) * delta_bar +
      3.0 * std::sqrt(static_cast<double>(n) * delta_bar * (1.0 - delta_bar)) +
      1.0;
  if (static_cast<double>(exceed) > allowance) {
    ++confidence_trips_;
    if (confidence_m_ != nullptr) confidence_m_->inc();
    std::ostringstream msg;
    msg << s.kind << "/" << s.method << ": " << exceed << " of " << n
        << " window estimates exceed their promised eps (allowance "
        << allowance << ")";
    trip("audit.confidence_envelope", msg.str(), static_cast<double>(exceed),
         allowance);
    s.window.clear();  // alarm once per episode, not once per observation
    return;
  }

  // Split-sample variance audit: even/odd half-means are independent
  // estimates of the same truth with relative scale ~ eps_bar / sqrt(k).
  std::vector<double> even, odd;
  for (std::size_t i = 0; i < n; ++i)
    (i % 2 == 0 ? even : odd).push_back(s.window[i].value);
  const std::size_t k = std::min(even.size(), odd.size());
  if (k < 2) return;
  const double gap = std::abs(mean_of(even) - mean_of(odd));
  const double envelope = config_.slack * eps_bar * std::abs(mean) *
                          std::sqrt(2.0 / static_cast<double>(k));
  if (gap > envelope) {
    ++variance_trips_;
    if (variance_m_ != nullptr) variance_m_->inc();
    std::ostringstream msg;
    msg << s.kind << "/" << s.method << ": split-sample half-means differ by "
        << gap << " against a promised envelope of " << envelope
        << " (empirical variance exceeds the (eps, delta) promise)";
    trip("audit.variance_envelope", msg.str(), gap, envelope);
    s.window.clear();
  }
}

void EstimateAuditor::check_divergence(const Stream& s) {
  double sum = 0.0, eps_sum = 0.0;
  for (const Entry& e : s.window) {
    sum += e.value;
    eps_sum += e.epsilon;
  }
  const double m_a = sum / static_cast<double>(s.window.size());
  const double eps_a = eps_sum / static_cast<double>(s.window.size());

  for (auto& kv : streams_) {
    Stream& other = kv.second;
    if (&other == &s || other.kind != s.kind) continue;
    if (other.version != s.version ||
        other.window.size() < config_.min_samples)
      continue;
    double osum = 0.0, oeps = 0.0;
    for (const Entry& e : other.window) {
      osum += e.value;
      oeps += e.epsilon;
    }
    const double m_b = osum / static_cast<double>(other.window.size());
    const double eps_b = oeps / static_cast<double>(other.window.size());
    // Both window means lie within their envelope of the same truth, so
    // their gap is bounded by the summed envelopes (times slack for the
    // residual sampling noise of the means themselves).
    const double mid = 0.5 * (std::abs(m_a) + std::abs(m_b));
    const double envelope = config_.slack * (eps_a + eps_b) * mid;
    if (std::abs(m_a - m_b) > envelope) {
      ++divergence_trips_;
      if (divergence_m_ != nullptr) divergence_m_->inc();
      std::ostringstream msg;
      msg << s.kind << ": methods " << s.method << " and " << other.method
          << " disagree (" << m_a << " vs " << m_b << ", envelope "
          << envelope << ")";
      trip("audit.method_divergence", msg.str(), std::abs(m_a - m_b),
           envelope);
      // One alarm per episode: the other stream re-fills before it can
      // re-trigger the comparison.
      other.window.clear();
    }
  }
}

void EstimateAuditor::trip(const char* code, const std::string& message,
                           double value, double threshold) {
  HealthCenter* center = health_ != nullptr ? health_ : HealthCenter::active();
  if (center != nullptr)
    center->raise(HealthSeverity::kWarn, code, "audit", message, value,
                  threshold);
}

std::uint64_t EstimateAuditor::confidence_trips() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return confidence_trips_;
}
std::uint64_t EstimateAuditor::variance_trips() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return variance_trips_;
}
std::uint64_t EstimateAuditor::divergence_trips() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return divergence_trips_;
}
std::uint64_t EstimateAuditor::observations() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return observations_;
}

SloLedger::SloLedger(MetricsRegistry* metrics, HealthCenter* health,
                     SloPolicy policy)
    : policy_(policy), health_(health), metrics_(metrics) {
  if (policy_.window == 0) policy_.window = 1;
}

SloLedger::ClassState& SloLedger::state_for(std::string_view cls) {
  auto it = classes_.find(cls);
  if (it != classes_.end()) return it->second;
  ClassState st;
  if (metrics_ != nullptr) {
    const std::string base = "serve.slo." + std::string(cls);
    st.requests_m = &metrics_->counter(base + ".requests");
    st.ok_m = &metrics_->counter(base + ".ok");
    st.miss_m = &metrics_->counter(base + ".deadline_misses");
    st.rejected_m = &metrics_->counter(base + ".rejected");
    st.failed_m = &metrics_->counter(base + ".failed");
    st.hit_rate_m = &metrics_->gauge(base + ".hit_rate");
    st.burn_m = &metrics_->gauge(base + ".budget_burn");
    st.latency_m = &metrics_->histogram(base + ".latency_us");
  }
  return classes_.emplace(std::string(cls), std::move(st)).first->second;
}

double SloLedger::burn_of(const ClassState& st) const {
  // The window's miss allowance; a target of 1.0 means any miss breaches.
  const double budget = std::max(
      (1.0 - policy_.target) * static_cast<double>(policy_.window), 1e-9);
  return static_cast<double>(st.window_misses) / budget;
}

void SloLedger::record(std::string_view cls, SloOutcome outcome,
                       std::uint64_t latency_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ClassState& st = state_for(cls);
  if (st.requests_m != nullptr) {
    st.requests_m->inc();
    switch (outcome) {
      case SloOutcome::kOk:
        st.ok_m->inc();
        break;
      case SloOutcome::kDeadlineMiss:
        st.miss_m->inc();
        break;
      case SloOutcome::kRejected:
        st.rejected_m->inc();
        break;
      case SloOutcome::kFailed:
        st.failed_m->inc();
        break;
    }
  }
  // Rejections are load-shedding: visible above, but they neither hit nor
  // miss a deadline, so they stay out of the latency histogram and the
  // budget window.
  if (outcome == SloOutcome::kRejected) return;
  if (st.latency_m != nullptr) st.latency_m->record(latency_us);

  const bool violation = outcome != SloOutcome::kOk;
  if (st.violations.size() < policy_.window) {
    st.violations.push_back(violation);
    if (violation) ++st.window_misses;
  } else {
    if (st.violations[st.next]) --st.window_misses;
    st.violations[st.next] = violation;
    if (violation) ++st.window_misses;
    st.next = (st.next + 1) % policy_.window;
  }

  const std::size_t counted = st.violations.size();
  const double hit = 1.0 - static_cast<double>(st.window_misses) /
                               static_cast<double>(counted);
  const double burn = burn_of(st);
  if (st.hit_rate_m != nullptr) {
    st.hit_rate_m->set(hit);
    st.burn_m->set(burn);
  }

  if (counted >= policy_.min_requests && burn >= 1.0 && !st.breached) {
    st.breached = true;
    ++breaches_;
    HealthCenter* center =
        health_ != nullptr ? health_ : HealthCenter::active();
    if (center != nullptr) {
      std::ostringstream msg;
      msg << "class " << cls << ": error budget exhausted (hit rate " << hit
          << " against target " << policy_.target << " over the last "
          << counted << " requests)";
      center->raise(HealthSeverity::kCritical, "serve.slo_breach", "serve",
                    msg.str(), burn, 1.0);
    }
  } else if (st.breached && burn < 0.5) {
    st.breached = false;  // hysteresis: a new episode may alarm again
  }
}

double SloLedger::hit_rate(std::string_view cls) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = classes_.find(cls);
  if (it == classes_.end() || it->second.violations.empty())
    return std::numeric_limits<double>::quiet_NaN();
  return 1.0 - static_cast<double>(it->second.window_misses) /
                   static_cast<double>(it->second.violations.size());
}

double SloLedger::budget_burn(std::string_view cls) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = classes_.find(cls);
  if (it == classes_.end()) return 0.0;
  return burn_of(it->second);
}

std::uint64_t SloLedger::breaches() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return breaches_;
}

}  // namespace overcount
