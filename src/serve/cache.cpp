#include "serve/cache.hpp"

#include <algorithm>
#include <cmath>

namespace overcount {

void EstimateCache::observe_version(std::uint64_t version,
                                    std::uint64_t now_us) {
  if (!observed_) {
    observed_ = true;
    last_version_ = version;
    last_observation_us_ = now_us;
    return;
  }
  const std::uint64_t bumps =
      version >= last_version_ ? version - last_version_ : 0;
  const std::uint64_t dt_us =
      now_us >= last_observation_us_ ? now_us - last_observation_us_ : 0;
  last_version_ = version;
  last_observation_us_ = now_us;
  if (dt_us == 0) {
    // Same-instant observations (deterministic test clocks advance in
    // jumps) still count their bumps: fold them in as if dt were one tick.
    if (bumps > 0) churn_per_sec_ += static_cast<double>(bumps);
    return;
  }
  const double dt_s = static_cast<double>(dt_us) * 1e-6;
  const double instant_rate = static_cast<double>(bumps) / dt_s;
  const double window_s =
      static_cast<double>(std::max<std::uint64_t>(policy_.churn_window_us, 1))
      * 1e-6;
  // Irregular-interval EWMA: weight decays with the time actually elapsed.
  const double alpha = 1.0 - std::exp(-dt_s / window_s);
  churn_per_sec_ += alpha * (instant_rate - churn_per_sec_);
}

std::uint64_t EstimateCache::current_ttl_us() const {
  const double scale = 1.0 + churn_per_sec_ * policy_.churn_sensitivity;
  const double ttl = static_cast<double>(policy_.base_ttl_us) / scale;
  return std::max(policy_.min_ttl_us,
                  static_cast<std::uint64_t>(std::llround(ttl)));
}

EstimateCache::Lookup EstimateCache::find(EstimateMethod method,
                                          double epsilon, double delta,
                                          std::uint64_t current_version,
                                          std::uint64_t now_us) {
  Lookup result;
  auto it = entries_.find(method);
  if (it == entries_.end()) {
    result.outcome = CacheOutcome::kMissEmpty;
    return result;
  }
  const CacheEntry& entry = it->second;
  if (entry.graph_version != current_version) {
    entries_.erase(it);  // can never become valid again: version is monotone
    result.outcome = CacheOutcome::kMissStaleVersion;
    return result;
  }
  const std::uint64_t age_us = entry.age_us(now_us);
  if (age_us > current_ttl_us()) {
    result.outcome = CacheOutcome::kMissExpired;
    return result;  // kept: a refresh may supersede it in the same slot
  }
  if (!covers(entry.epsilon, entry.delta, epsilon, delta)) {
    result.outcome = CacheOutcome::kMissEpsilon;
    return result;  // kept: looser requests can still ride it
  }
  result.outcome = CacheOutcome::kHit;
  result.entry = entry;
  result.age_us = age_us;
  return result;
}

bool EstimateCache::insert(EstimateMethod method, const CacheEntry& entry) {
  auto [it, inserted] = entries_.try_emplace(method, entry);
  if (inserted) return true;
  const CacheEntry& held = it->second;
  const bool held_strictly_tighter =
      covers(held.epsilon, held.delta, entry.epsilon, entry.delta) &&
      !covers(entry.epsilon, entry.delta, held.epsilon, held.delta);
  if (held_strictly_tighter && held.graph_version == entry.graph_version &&
      held.age_us(entry.computed_at_us) <= current_ttl_us())
    return false;
  it->second = entry;
  return true;
}

const CacheEntry* EstimateCache::peek(EstimateMethod method) const {
  auto it = entries_.find(method);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace overcount
