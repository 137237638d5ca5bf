// EstimateCache contract: hits require accuracy AND version AND freshness
// at once; misses are classified; version-stale entries are evicted; a
// looser insert never evicts a tighter live entry at the same version; the
// TTL shrinks under observed churn and recovers when churn stops.
#include "serve/cache.hpp"

#include <gtest/gtest.h>

namespace overcount {
namespace {

/// The Random Tour slot, which answers size (and degree-sum) queries.
EstimateMethod size_key() { return EstimateMethod::kRandomTour; }

CacheEntry entry_at(std::uint64_t version, std::uint64_t now_us,
                    double epsilon = 0.1, double delta = 0.05) {
  CacheEntry e;
  e.value = 123.0;
  e.epsilon = epsilon;
  e.delta = delta;
  e.walks = 64;
  e.graph_version = version;
  e.computed_at_us = now_us;
  e.seed = 99;
  return e;
}

TEST(EstimateCache, EmptyLookupClassifiesAsMissEmpty) {
  EstimateCache cache;
  auto r = cache.find(size_key(), 0.2, 0.05, /*version=*/0, /*now=*/0);
  EXPECT_EQ(r.outcome, CacheOutcome::kMissEmpty);
  EXPECT_FALSE(r.hit());
}

TEST(EstimateCache, FreshMatchingEntryHitsWithAge) {
  EstimateCache cache;
  cache.observe_version(5, 1000);
  cache.insert(size_key(), entry_at(5, 1000));
  auto r = cache.find(size_key(), 0.2, 0.05, 5, 1500);
  ASSERT_TRUE(r.hit());
  EXPECT_DOUBLE_EQ(r.entry->value, 123.0);
  EXPECT_EQ(r.age_us, 500u);
}

TEST(EstimateCache, LooserRequestRidesTighterEntryButNotViceVersa) {
  EstimateCache cache;
  cache.insert(size_key(), entry_at(5, 0, /*epsilon=*/0.1, /*delta=*/0.05));
  // Looser target than the stored batch: hit.
  EXPECT_TRUE(cache.find(size_key(), 0.3, 0.1, 5, 10).hit());
  // Tighter epsilon than the stored batch delivers: miss, entry retained.
  auto tighter = cache.find(size_key(), 0.05, 0.05, 5, 10);
  EXPECT_EQ(tighter.outcome, CacheOutcome::kMissEpsilon);
  // Tighter delta, same epsilon: also a miss.
  auto surer = cache.find(size_key(), 0.1, 0.01, 5, 10);
  EXPECT_EQ(surer.outcome, CacheOutcome::kMissEpsilon);
  EXPECT_NE(cache.peek(size_key()), nullptr);
}

TEST(EstimateCache, VersionBumpInvalidatesAndEvicts) {
  EstimateCache cache;
  cache.insert(size_key(), entry_at(5, 0));
  auto stale = cache.find(size_key(), 0.2, 0.05, /*version=*/6, /*now=*/10);
  EXPECT_EQ(stale.outcome, CacheOutcome::kMissStaleVersion);
  // Evicted outright: the version is monotone, the entry can never match
  // again, so the next lookup is a cold miss.
  EXPECT_EQ(cache.peek(size_key()), nullptr);
  auto again = cache.find(size_key(), 0.2, 0.05, 6, 10);
  EXPECT_EQ(again.outcome, CacheOutcome::kMissEmpty);
}

TEST(EstimateCache, ExpiresAfterTtlButKeepsTheEntry) {
  FreshnessPolicy policy;
  policy.base_ttl_us = 1000;
  policy.min_ttl_us = 10;
  EstimateCache cache(policy);
  cache.insert(size_key(), entry_at(5, 0));
  EXPECT_TRUE(cache.find(size_key(), 0.2, 0.05, 5, 999).hit());
  auto expired = cache.find(size_key(), 0.2, 0.05, 5, 1500);
  EXPECT_EQ(expired.outcome, CacheOutcome::kMissExpired);
  EXPECT_NE(cache.peek(size_key()), nullptr);  // refresh may supersede it
}

TEST(EstimateCache, ChurnShrinksTtlAndQuietRecoversIt) {
  FreshnessPolicy policy;
  policy.base_ttl_us = 1'000'000;
  policy.min_ttl_us = 1000;
  policy.churn_sensitivity = 1.0;
  policy.churn_window_us = 1'000'000;
  EstimateCache cache(policy);
  cache.observe_version(0, 0);
  EXPECT_EQ(cache.current_ttl_us(), policy.base_ttl_us);
  // 10 bumps/sec sustained for several windows: TTL collapses.
  std::uint64_t now = 0;
  std::uint64_t version = 0;
  for (int i = 0; i < 50; ++i) {
    now += 100'000;  // 0.1 s
    version += 1;    // 10 bumps per second
    cache.observe_version(version, now);
  }
  EXPECT_GT(cache.churn_per_sec(), 5.0);
  const std::uint64_t churning_ttl = cache.current_ttl_us();
  EXPECT_LT(churning_ttl, policy.base_ttl_us / 5);
  EXPECT_GE(churning_ttl, policy.min_ttl_us);
  // Quiet period: the EWMA decays and the TTL recovers towards base.
  for (int i = 0; i < 50; ++i) {
    now += 100'000;
    cache.observe_version(version, now);  // no bumps
  }
  EXPECT_LT(cache.churn_per_sec(), 0.5);
  EXPECT_GT(cache.current_ttl_us(), churning_ttl * 4);
}

TEST(EstimateCache, KeysSeparateMethodsButNotKinds) {
  EstimateCache cache;
  CacheEntry tours = entry_at(1, 0);
  tours.degree_sum = 456.0;
  cache.insert(EstimateMethod::kRandomTour, tours);
  // One Random Tour slot answers both kinds from the same batch.
  const auto hit = cache.find(EstimateMethod::kRandomTour, 0.2, 0.05, 1, 0);
  ASSERT_TRUE(hit.hit());
  EXPECT_EQ(hit.entry->answer(QueryKind::kSize), 123.0);
  EXPECT_EQ(hit.entry->answer(QueryKind::kDegreeSum), 456.0);
  // Sample & Collide keeps its own slot.
  EXPECT_EQ(cache.find(EstimateMethod::kSampleCollide, 0.2, 0.05, 1, 0).outcome,
            CacheOutcome::kMissEmpty);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.items().size(), 1u);
}

TEST(EstimateCache, LooserInsertKeepsTighterEntryAtSameVersion) {
  EstimateCache cache;
  cache.insert(size_key(), entry_at(5, 0, /*epsilon=*/0.3, /*delta=*/0.2));
  // A looser batch landing later at the same version is not stored: the
  // tighter entry still answers both requests.
  CacheEntry looser = entry_at(5, 10, /*epsilon=*/0.4, /*delta=*/0.2);
  looser.value = 7.0;
  EXPECT_FALSE(cache.insert(size_key(), looser));
  ASSERT_NE(cache.peek(size_key()), nullptr);
  EXPECT_EQ(cache.peek(size_key())->epsilon, 0.3);
  EXPECT_EQ(cache.peek(size_key())->value, 123.0);
  EXPECT_TRUE(cache.find(size_key(), 0.3, 0.2, 5, 20).hit());
  // An equal result replaces the entry (a refresh at the achieved target).
  CacheEntry equal = entry_at(5, 30, /*epsilon=*/0.3, /*delta=*/0.2);
  equal.value = 8.0;
  EXPECT_TRUE(cache.insert(size_key(), equal));
  EXPECT_EQ(cache.peek(size_key())->value, 8.0);
  // A newer version replaces it even when looser.
  CacheEntry newer = entry_at(6, 40, /*epsilon=*/0.4, /*delta=*/0.2);
  newer.value = 9.0;
  EXPECT_TRUE(cache.insert(size_key(), newer));
  EXPECT_EQ(cache.peek(size_key())->graph_version, 6u);
  EXPECT_EQ(cache.peek(size_key())->value, 9.0);
}

TEST(EstimateCache, LooserInsertReplacesAnExpiredTighterEntry) {
  FreshnessPolicy policy;
  policy.base_ttl_us = 1000;
  policy.min_ttl_us = 10;
  EstimateCache cache(policy);
  cache.insert(size_key(), entry_at(5, 0, /*epsilon=*/0.3, /*delta=*/0.2));
  CacheEntry looser = entry_at(5, 1500, /*epsilon=*/0.4, /*delta=*/0.2);
  EXPECT_TRUE(cache.insert(size_key(), looser));
  EXPECT_EQ(cache.peek(size_key())->epsilon, 0.4);
}

}  // namespace
}  // namespace overcount
