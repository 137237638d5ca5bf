// Per-tenant admission control for the estimate front end.
//
// Three layers, cheapest first, all driven by an injected microsecond clock
// so tests are deterministic:
//
//   1. registration — a tenant must Hello before sending requests; the
//      Hello binds it to an SLO class (epsilon, delta, deadline) and the
//      class's rate limits.
//   2. token bucket  — per-tenant average-rate + burst cap. Refusals carry
//      the exact retry_after_us until the next token matures.
//   3. deficit round robin — a fair-share layer that only bites while the
//      server's broker queue is saturated. Each tenant earns
//      `quantum` request credits per `round_us`; a flooding tenant exhausts
//      its deficit and is deferred to its next round while polite tenants'
//      credits keep them admitted. Under light load the deficit is still
//      debited (clamped at zero) so a tenant that floods *before* overload
//      arrives hits the fair-share wall already drained.
//
// The DRR layer sits in front of the EDF DeadlineQueue: EDF orders admitted
// work by urgency; DRR decides *whose* work is admitted when there is not
// room for everyone. Jain's fairness index over per-tenant admitted counts
// is the pinned metric (tests/net/tenant_test.cpp).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace overcount::net {

/// An SLO class: accuracy target, deadline, and rate envelope shared by all
/// tenants registered under it.
struct SloClassSpec {
  std::string name;
  double epsilon = 0.3;
  double delta = 0.2;
  std::uint64_t deadline_us = 0;  ///< 0 = best effort (no deadline).
  double rate_per_sec = 1000.0;   ///< token bucket refill rate.
  double burst = 100.0;           ///< token bucket capacity.
};

/// Gold/silver/bronze defaults used by the server, the soak bench, and the
/// examples when the caller does not supply its own classes.
std::vector<SloClassSpec> default_slo_classes();

/// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair,
/// 1/n = one tenant got everything. Empty input yields 0.
double jain_index(const std::vector<double>& xs);

enum class AdmitResult : std::uint8_t {
  kAdmit,
  kUnknownTenant,
  kRateLimited,
  kFairShare,
};

struct AdmitDecision {
  AdmitResult result = AdmitResult::kAdmit;
  std::uint64_t retry_after_us = 0;
};

struct DrrConfig {
  double quantum = 16.0;          ///< request credits earned per round.
  std::uint64_t round_us = 10'000;
  double deficit_cap_rounds = 4;  ///< idle tenants bank at most this many
                                  ///< rounds of quantum.
};

/// Registry of tenants and their admission state. Thread-safe; all time is
/// caller-supplied microseconds so behaviour is replayable.
class TenantRegistry {
 public:
  TenantRegistry(std::vector<SloClassSpec> classes, DrrConfig drr);

  const std::vector<SloClassSpec>& classes() const { return classes_; }

  /// Registers (or re-attaches) `name` under `class_id`. Returns the wire
  /// tenant id, or 0 if class_id is out of range. Re-Hello with a
  /// different class rebinds the tenant.
  std::uint32_t hello(const std::string& name, std::uint8_t class_id,
                      std::uint64_t now_us);

  /// Full admission decision for one request. `saturated` tells the DRR
  /// layer whether the target shard is near queue capacity.
  AdmitDecision admit(std::uint32_t tenant_id, std::uint64_t now_us,
                      bool saturated);

  /// Class spec for a registered tenant (nullptr if unknown).
  const SloClassSpec* spec_for(std::uint32_t tenant_id) const;
  /// Tenant name for a registered id (empty if unknown).
  std::string name_for(std::uint32_t tenant_id) const;

  std::size_t tenant_count() const;

 private:
  struct TenantState {
    std::string name;
    std::uint8_t class_id = 0;
    double tokens = 0.0;             ///< token bucket level.
    std::uint64_t bucket_us = 0;     ///< last bucket refill time.
    double deficit = 0.0;            ///< DRR credit.
    std::uint64_t drr_round = 0;     ///< last round the deficit was topped up.
  };

  void refill_locked(TenantState& t, const SloClassSpec& spec,
                     std::uint64_t now_us);

  std::vector<SloClassSpec> classes_;
  DrrConfig drr_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::unordered_map<std::uint32_t, TenantState> tenants_;
  std::uint32_t next_id_ = 1;
};

}  // namespace overcount::net
