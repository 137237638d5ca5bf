// Confidence-aware result cache for the estimate service.
//
// One slot per EstimateMethod: a Random Tour entry answers both query
// kinds (QueryKind), a Sample & Collide entry answers size only.
//
// An entry is served only while THREE conditions hold at once:
//  * accuracy — the entry covers the request (covers() below): a looser
//    request can ride a tighter batch, never the reverse;
//  * version — the entry was computed at the CURRENT topology version; a
//    version bump (graph/dynamic_graph.hpp) invalidates it outright;
//  * freshness — the entry's age is within the TTL, which shrinks as
//    observed churn grows. The cache tracks an EWMA of version bumps per
//    second and scales the TTL by 1 / (1 + rate * sensitivity): a quiet
//    overlay serves entries for base_ttl_us, a churning one re-estimates
//    sooner even between the version checks (an estimate of a graph that
//    churned THROUGH version v back to v is stale even though the version
//    matches — the TTL is the backstop for what versions cannot see).
//
// Lookups classify the miss (empty slot / stale version / expired /
// epsilon too loose) so the service can count invalidations separately
// from cold misses. The cache is NOT thread-safe: the service accesses it
// only under its own mutex (single-threaded broker determinism).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>

#include "serve/types.hpp"

namespace overcount {

/// The one coverage rule of the serving path: a result computed to
/// (have_epsilon, have_delta) answers a request for (epsilon, delta) when it
/// is at least as tight on both. The cache lookup, the insert rule,
/// single-flight and the dispatch-time re-check all decide with it.
constexpr bool covers(double have_epsilon, double have_delta, double epsilon,
                      double delta) noexcept {
  return have_epsilon <= epsilon && have_delta <= delta;
}

struct CacheEntry {
  double value = 0.0;  ///< size estimate (batch mean)
  /// Degree-sum estimate of the same Random Tour batch (NaN for S&C). The
  /// two answers are correlated: each meets (epsilon, delta) on its own;
  /// no joint claim is made.
  double degree_sum = std::numeric_limits<double>::quiet_NaN();
  double epsilon = 0.0;  ///< half-width the stored batch achieved
  double delta = 0.0;    ///< confidence failure prob it was planned for
  std::uint64_t walks = 0;
  std::uint64_t graph_version = 0;
  std::uint64_t computed_at_us = 0;
  std::uint64_t seed = 0;  ///< batch seed, for bit-identical replay checks

  double answer(QueryKind kind) const noexcept {
    return kind == QueryKind::kSize ? value : degree_sum;
  }
  std::uint64_t age_us(std::uint64_t now_us) const noexcept {
    return now_us >= computed_at_us ? now_us - computed_at_us : 0;
  }
};

enum class CacheOutcome : std::uint8_t {
  kHit,
  kMissEmpty,         ///< nothing cached under the key
  kMissStaleVersion,  ///< topology moved on; the entry was evicted
  kMissExpired,       ///< TTL ran out under the current churn rate
  kMissEpsilon,       ///< cached batch is looser than the request
};

struct FreshnessPolicy {
  std::uint64_t base_ttl_us = 5'000'000;  ///< TTL on a churn-free overlay
  std::uint64_t min_ttl_us = 50'000;      ///< floor under heavy churn
  /// TTL = max(min, base / (1 + churn_per_sec * sensitivity)): one bump
  /// per second with sensitivity 1 halves the TTL.
  double churn_sensitivity = 1.0;
  /// EWMA smoothing window for the churn rate, in microseconds.
  std::uint64_t churn_window_us = 10'000'000;
};

class EstimateCache {
 public:
  explicit EstimateCache(FreshnessPolicy policy = {}) : policy_(policy) {}

  struct Lookup {
    CacheOutcome outcome = CacheOutcome::kMissEmpty;
    std::optional<CacheEntry> entry;  ///< set only on kHit
    std::uint64_t age_us = 0;         ///< set only on kHit
    bool hit() const noexcept { return outcome == CacheOutcome::kHit; }
  };

  /// Feeds one observation of the topology version into the churn EWMA.
  /// Call on every query (and refresh tick) BEFORE find(): the TTL used by
  /// the lookup reflects churn up to and including this observation.
  void observe_version(std::uint64_t version, std::uint64_t now_us);

  /// Serves `method`'s slot if its entry covers (epsilon, delta) at
  /// `current_version` within the churn-scaled TTL. Stale-version entries
  /// are evicted as a side effect (and reported as kMissStaleVersion).
  Lookup find(EstimateMethod method, double epsilon, double delta,
              std::uint64_t current_version, std::uint64_t now_us);

  /// Stores `entry` unless the slot holds an unexpired entry at the same
  /// version that is strictly tighter (covers `entry`, not vice versa), so
  /// a looser batch landing later never evicts it. Returns whether stored.
  bool insert(EstimateMethod method, const CacheEntry& entry);

  /// Peeks at the stored entry without freshness checks (refresher uses
  /// this to decide whether an entry is nearing expiry).
  const CacheEntry* peek(EstimateMethod method) const;

  /// Every stored entry by method; the refresher sweeps this to find
  /// entries nearing expiry.
  const std::map<EstimateMethod, CacheEntry>& items() const noexcept {
    return entries_;
  }

  /// Current churn-scaled TTL, exported as a gauge.
  std::uint64_t current_ttl_us() const;

  /// Smoothed version bumps per second, exported as a gauge.
  double churn_per_sec() const noexcept { return churn_per_sec_; }

  std::size_t size() const noexcept { return entries_.size(); }
  const FreshnessPolicy& policy() const noexcept { return policy_; }

 private:
  FreshnessPolicy policy_;
  std::map<EstimateMethod, CacheEntry> entries_;
  std::uint64_t last_version_ = 0;
  std::uint64_t last_observation_us_ = 0;
  bool observed_ = false;
  double churn_per_sec_ = 0.0;
};

}  // namespace overcount
