// EstimateAuditor: the delivered-accuracy checks must stay silent on a
// stream that honours its (epsilon, delta) promise, trip when the empirical
// scatter exceeds the promised envelope, reset on topology churn (a version
// bump changes the truth), and flag two methods that disagree about the
// same quantity. SloLedger: window hit-rate and error-budget-burn math,
// one kCritical serve.slo_breach per episode with hysteresis re-arm, and
// rejections tracked without burning budget.
#include "obs/health/audit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/health/health.hpp"
#include "obs/metrics.hpp"

namespace overcount {
namespace {

AuditConfig tight_audit() {
  AuditConfig config;
  config.window = 32;
  config.min_samples = 8;
  config.slack = 3.0;
  return config;
}

TEST(EstimateAuditor, HonestStreamNeverTrips) {
  MetricsRegistry registry;
  EstimateAuditor auditor(&registry, nullptr, tight_audit());
  // Estimates scattered well inside a generous envelope: +-2% around 1000
  // under an eps=0.3 promise.
  const double values[] = {990, 1010, 1005, 995, 1000, 1008, 992, 1001,
                           998,  1012, 988,  1003};
  for (const double v : values)
    auditor.observe("size", "random_tour", v, 0.3, 0.2, 1);
  EXPECT_EQ(auditor.observations(), 12u);
  EXPECT_EQ(auditor.confidence_trips(), 0u);
  EXPECT_EQ(auditor.variance_trips(), 0u);
  EXPECT_EQ(auditor.divergence_trips(), 0u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero("audit.observations"), 12u);
  // The per-stream window gauges expose the state the checks ran against.
  double mean = 0.0;
  bool found = false;
  for (const auto& [name, v] : snap.gauges)
    if (name == "audit.size.random_tour.mean") {
      mean = v;
      found = true;
    }
  ASSERT_TRUE(found);
  EXPECT_NEAR(mean, 1000.0, 15.0);
}

TEST(EstimateAuditor, GrossExceedanceTripsTheConfidenceAudit) {
  HealthCenter center;
  EstimateAuditor auditor(nullptr, &center, tight_audit());
  // A stream promising eps=0.01 (1%) but swinging +-33% around its mean:
  // every window entry exceeds its promised envelope, far beyond the
  // Binomial(n, delta) allowance.
  for (int i = 0; i < 16; ++i)
    auditor.observe("size", "random_tour", i % 2 == 0 ? 100.0 : 200.0, 0.01,
                    0.05, 1);
  EXPECT_GE(auditor.confidence_trips(), 1u);
  bool saw = false;
  for (const HealthEvent& e : center.recent()) {
    EXPECT_EQ(e.severity, HealthSeverity::kWarn);  // alarms, not crashes
    EXPECT_EQ(e.subsystem, "audit");
    if (e.code == "audit.confidence_envelope") saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(EstimateAuditor, CorrelatedHalvesTripTheVarianceAudit) {
  HealthCenter center;
  EstimateAuditor auditor(nullptr, &center, tight_audit());
  // Each entry individually honours its eps=0.1 promise (deviation 9% of
  // the mean), so the confidence audit stays quiet — but the deviations are
  // perfectly correlated with parity, so the even/odd half-means sit a full
  // 18% apart while independent halves of k entries should differ by
  // ~ eps * sqrt(2/k). The split-sample check is what catches this.
  for (int i = 0; i < 16; ++i)
    auditor.observe("size", "random_tour", i % 2 == 0 ? 91.0 : 109.0, 0.1,
                    0.3, 1);
  EXPECT_GE(auditor.variance_trips(), 1u);
  EXPECT_EQ(auditor.confidence_trips(), 0u);
  bool saw = false;
  for (const HealthEvent& e : center.recent())
    if (e.code == "audit.variance_envelope") saw = true;
  EXPECT_TRUE(saw);
}

TEST(EstimateAuditor, NoVerdictsBelowMinSamples) {
  EstimateAuditor auditor(nullptr, nullptr, tight_audit());
  // Seven wildly inconsistent estimates — one short of min_samples, so the
  // auditor must withhold judgement.
  for (int i = 0; i < 7; ++i)
    auditor.observe("size", "random_tour", i % 2 == 0 ? 1.0 : 1000.0, 0.01,
                    0.05, 1);
  EXPECT_EQ(auditor.confidence_trips(), 0u);
  EXPECT_EQ(auditor.variance_trips(), 0u);
}

TEST(EstimateAuditor, TopologyVersionBumpResetsTheWindow) {
  EstimateAuditor auditor(nullptr, nullptr, tight_audit());
  // Six tight estimates at version 1, then six around a DIFFERENT mean at
  // version 2. Mixed they would trip everything; with the reset, neither
  // epoch reaches min_samples, so no verdicts.
  for (int i = 0; i < 6; ++i)
    auditor.observe("size", "random_tour", 100.0, 0.01, 0.05, 1);
  for (int i = 0; i < 6; ++i)
    auditor.observe("size", "random_tour", 500.0, 0.01, 0.05, 2);
  EXPECT_EQ(auditor.confidence_trips(), 0u);
  EXPECT_EQ(auditor.variance_trips(), 0u);
  // The version-2 window keeps filling: once it alone crosses min_samples
  // with honest data, it still stays quiet.
  for (int i = 0; i < 6; ++i)
    auditor.observe("size", "random_tour", 500.0, 0.01, 0.05, 2);
  EXPECT_EQ(auditor.confidence_trips(), 0u);
  EXPECT_EQ(auditor.variance_trips(), 0u);
}

TEST(EstimateAuditor, DisagreeingMethodsTripDivergence) {
  HealthCenter center;
  EstimateAuditor auditor(nullptr, &center, tight_audit());
  // Each method is perfectly self-consistent (no variance/confidence trips)
  // but they disagree by 2x — far beyond their combined eps=0.05 envelopes.
  for (int i = 0; i < 8; ++i)
    auditor.observe("size", "random_tour", 100.0, 0.05, 0.1, 1);
  for (int i = 0; i < 8; ++i)
    auditor.observe("size", "sample_collide", 200.0, 0.05, 0.1, 1);
  EXPECT_GE(auditor.divergence_trips(), 1u);
  EXPECT_EQ(auditor.variance_trips(), 0u);
  bool saw = false;
  for (const HealthEvent& e : center.recent())
    if (e.code == "audit.method_divergence") saw = true;
  EXPECT_TRUE(saw);
}

SloPolicy tight_slo() {
  SloPolicy policy;
  policy.target = 0.9;  // one miss allowed per 10-request window
  policy.window = 10;
  policy.min_requests = 5;
  return policy;
}

TEST(SloLedger, HitRateAndBurnFollowTheWindow) {
  MetricsRegistry registry;
  SloLedger ledger(&registry, nullptr, tight_slo());
  EXPECT_TRUE(std::isnan(ledger.hit_rate("size.random_tour.deadline")));
  for (int i = 0; i < 8; ++i)
    ledger.record("size.random_tour.deadline", SloOutcome::kOk, 1000);
  EXPECT_EQ(ledger.hit_rate("size.random_tour.deadline"), 1.0);
  EXPECT_EQ(ledger.budget_burn("size.random_tour.deadline"), 0.0);
  ledger.record("size.random_tour.deadline", SloOutcome::kDeadlineMiss, 9000);
  // 1 miss in a 10-slot window at target 0.9: the whole allowance is spent.
  EXPECT_NEAR(ledger.hit_rate("size.random_tour.deadline"), 8.0 / 9.0, 1e-12);
  EXPECT_NEAR(ledger.budget_burn("size.random_tour.deadline"), 1.0, 1e-12);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(
      snap.counter_or_zero("serve.slo.size.random_tour.deadline.requests"),
      9u);
  EXPECT_EQ(snap.counter_or_zero("serve.slo.size.random_tour.deadline.ok"),
            8u);
  EXPECT_EQ(snap.counter_or_zero(
                "serve.slo.size.random_tour.deadline.deadline_misses"),
            1u);
}

TEST(SloLedger, BreachRaisesOncePerEpisodeWithHysteresis) {
  HealthCenter center;
  SloLedger ledger(nullptr, &center, tight_slo());
  const char* cls = "size.random_tour.deadline";
  for (int i = 0; i < 5; ++i) ledger.record(cls, SloOutcome::kOk, 1000);
  ledger.record(cls, SloOutcome::kDeadlineMiss, 9000);  // burn hits 1.0
  EXPECT_EQ(ledger.breaches(), 1u);
  // Further misses inside the same breached episode raise nothing new.
  ledger.record(cls, SloOutcome::kDeadlineMiss, 9000);
  ledger.record(cls, SloOutcome::kDeadlineMiss, 9000);
  EXPECT_EQ(ledger.breaches(), 1u);
  // Recovery: a full window of hits pushes burn to 0 (< 0.5 re-arm point)…
  for (int i = 0; i < 10; ++i) ledger.record(cls, SloOutcome::kOk, 1000);
  EXPECT_EQ(ledger.budget_burn(cls), 0.0);
  // …so the next budget exhaustion is a NEW episode.
  ledger.record(cls, SloOutcome::kDeadlineMiss, 9000);
  EXPECT_EQ(ledger.breaches(), 2u);
  std::size_t critical = 0;
  for (const HealthEvent& e : center.recent())
    if (e.code == "serve.slo_breach") {
      EXPECT_EQ(e.severity, HealthSeverity::kCritical);
      EXPECT_EQ(e.subsystem, "serve");
      ++critical;
    }
  EXPECT_EQ(critical, 2u);
}

TEST(SloLedger, RejectionsAreTrackedButBurnNoBudget) {
  MetricsRegistry registry;
  SloLedger ledger(&registry, nullptr, tight_slo());
  const char* cls = "size.random_tour.besteffort";
  for (int i = 0; i < 20; ++i) ledger.record(cls, SloOutcome::kRejected, 0);
  // Load-shedding is not an SLO violation: no hit-rate sample, no burn, no
  // breach — but the request/rejected counters say it happened.
  EXPECT_TRUE(std::isnan(ledger.hit_rate(cls)));
  EXPECT_EQ(ledger.budget_burn(cls), 0.0);
  EXPECT_EQ(ledger.breaches(), 0u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero(
                "serve.slo.size.random_tour.besteffort.rejected"),
            20u);
  EXPECT_EQ(snap.counter_or_zero(
                "serve.slo.size.random_tour.besteffort.requests"),
            20u);
  EXPECT_EQ(
      snap.counter_or_zero("serve.slo.size.random_tour.besteffort.ok"), 0u);
  // Rejections carry no service latency: the class histogram stays empty.
  std::uint64_t latency_samples = 0;
  for (const auto& [name, h] : snap.histograms)
    if (name == "serve.slo.size.random_tour.besteffort.latency_us")
      latency_samples = h.count;
  EXPECT_EQ(latency_samples, 0u);
}

}  // namespace
}  // namespace overcount
