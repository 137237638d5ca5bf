// Serve-layer cost attribution: every admitted query gets its own ledger
// context carrying (tenant, query, kind, method, SLO class); batch work,
// cache hits and misses are charged to the causing tenant; the ledger's
// step total reconciles exactly with the serve-side walk.steps counter;
// and /costs on MetricsHttpServer serves the ranked JSON view of it all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "graph/generators.hpp"
#include "obs/cost/cost.hpp"
#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/source.hpp"

namespace overcount {
namespace {

struct TestClock {
  std::shared_ptr<std::atomic<std::uint64_t>> us =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::function<std::uint64_t()> fn() const {
    auto ptr = us;
    return [ptr] { return ptr->load(std::memory_order_relaxed); };
  }
  void advance(std::uint64_t delta) {
    us->fetch_add(delta, std::memory_order_relaxed);
  }
};

ServiceConfig fast_config(const TestClock& clock) {
  ServiceConfig config;
  config.threads = 2;
  config.queue_capacity = 8;
  config.lambda2_hint = 0.0;
  config.seed = 7;
  config.now_us = clock.fn();
  return config;
}

EstimateRequest tenant_request(std::string tenant, double epsilon = 0.3) {
  EstimateRequest req;
  req.kind = QueryKind::kSize;
  req.method = EstimateMethod::kRandomTour;
  req.epsilon = epsilon;
  req.delta = 0.2;
  req.tenant = std::move(tenant);
  return req;
}

/// The ledger must outlive the service (the broker charges on shutdown),
/// so every test builds this pair in order.
struct Harness {
  MetricsRegistry cost_registry;
  CostLedger ledger{&cost_registry};
  Graph g = complete(16);
  TestClock clock;
  EstimateService service;

  Harness() : service(static_graph_source(g), fast_config(clock)) {
    ledger.install();
  }
  ~Harness() { ledger.uninstall(); }
};

TEST(CostServe, TenantsLandOnSeparateLedgerRowsWithFullContext) {
  Harness h;
  // The second request is TIGHTER than the first's cached answer (the
  // cache serves looser requests from tighter entries), so each tenant
  // runs a real batch of its own.
  const EstimateResponse ra = h.service.query(tenant_request("acme", 0.30));
  const EstimateResponse rb = h.service.query(tenant_request("bee", 0.25));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_FALSE(ra.cache_hit);
  ASSERT_FALSE(rb.cache_hit);

  ASSERT_EQ(h.ledger.contexts(), 3u);  // sink + one per admitted query
  const CostRecord acme = h.ledger.fold(1);
  const CostRecord bee = h.ledger.fold(2);
  EXPECT_EQ(acme.context.tenant, "acme");
  EXPECT_EQ(bee.context.tenant, "bee");
  EXPECT_EQ(acme.context.kind, "size");
  EXPECT_EQ(acme.context.method, "random_tour");
  EXPECT_EQ(acme.context.slo_class, "size.random_tour.besteffort");
  EXPECT_NE(acme.context.query_id, bee.context.query_id);

  for (const CostRecord* row : {&acme, &bee}) {
    EXPECT_GT(row->steps(), 0u);
    EXPECT_GT(row->get(CostField::kWalks), 0u);
    EXPECT_EQ(row->get(CostField::kBatches), 1u);
    EXPECT_EQ(row->get(CostField::kCacheMisses), 1u);
    EXPECT_EQ(row->get(CostField::kCacheHits), 0u);
  }

  // Ledger steps reconcile exactly with the ledger-independent anchor the
  // service bumps from each batch result.
  const MetricsSnapshot serve_snap = h.service.metrics().snapshot();
  EXPECT_EQ(h.ledger.totals().steps(),
            serve_snap.counter_or_zero("walk.steps"));
  EXPECT_EQ(serve_snap.counter_or_zero("serve.steps"),
            serve_snap.counter_or_zero("walk.steps"));
  // And with the mirror in the ledger's own registry.
  EXPECT_EQ(h.cost_registry.snapshot().counter_or_zero("cost.steps"),
            h.ledger.totals().steps());
  // Zero residue: every serve-path charge had a context.
  EXPECT_EQ(h.ledger.unattributed().steps(), 0u);
  EXPECT_EQ(h.ledger.unattributed().get(CostField::kBatches), 0u);
}

TEST(CostServe, CacheHitIsChargedToTheHittingTenant) {
  Harness h;
  ASSERT_TRUE(h.service.query(tenant_request("acme")).ok());
  h.clock.advance(1000);
  // Same cache key, different tenant: bee rides acme's cached batch (the
  // tenant never partitions the cache) but the HIT bills to bee.
  const EstimateResponse hit = h.service.query(tenant_request("bee"));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);

  const CostRecord acme = h.ledger.fold(1);
  const CostRecord bee = h.ledger.fold(2);
  EXPECT_EQ(bee.context.tenant, "bee");
  EXPECT_EQ(bee.get(CostField::kCacheHits), 1u);
  EXPECT_EQ(bee.steps(), 0u);  // the walks were acme's
  EXPECT_EQ(bee.get(CostField::kBatches), 0u);
  EXPECT_EQ(acme.get(CostField::kCacheMisses), 1u);
  EXPECT_GT(acme.steps(), 0u);
}

TEST(CostServe, AnonymousTenantAccountsUnderAnonymous) {
  Harness h;
  ASSERT_TRUE(h.service.query(tenant_request("")).ok());
  EXPECT_EQ(h.ledger.fold(1).context.tenant, "anonymous");
  EXPECT_GT(h.ledger.fold(1).steps(), 0u);
}

TEST(CostServe, CostsEndpointServesRankedLedgerJson) {
  Harness h;
  ASSERT_TRUE(h.service.query(tenant_request("acme", 0.30)).ok());
  ASSERT_TRUE(h.service.query(tenant_request("bee", 0.25)).ok());

  MetricsHttpServer server(h.cost_registry, 0);
  ASSERT_NE(server.port(), 0);

  // Without a ledger attached the route 404s instead of serving nonsense.
  int status = 0;
  http_get_body(server.port(), "/costs", &status);
  EXPECT_EQ(status, 404);

  server.set_cost_ledger(&h.ledger);
  const std::string body = http_get_body(server.port(), "/costs", &status);
  EXPECT_EQ(status, 200);
  const JsonValue doc = parse_json(body);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_number(), 1.0);
  EXPECT_EQ(doc.find("contexts")->as_number(), 3.0);
  const auto& tenants = doc.find("top_tenants")->find("by_steps")->as_array();
  ASSERT_EQ(tenants.size(), 2u);
  const std::string first = tenants[0].find("tenant")->as_string();
  EXPECT_TRUE(first == "acme" || first == "bee");
  EXPECT_DOUBLE_EQ(tenants[1].find("cum_share")->as_number(), 1.0);

  // ?k=1 truncates the rankings; junk parameters keep the default.
  const JsonValue k1 =
      parse_json(http_get_body(server.port(), "/costs?k=1", &status));
  EXPECT_EQ(k1.find("k")->as_number(), 1.0);
  EXPECT_EQ(k1.find("top_tenants")->find("by_steps")->as_array().size(), 1u);
  const JsonValue junk =
      parse_json(http_get_body(server.port(), "/costs?k=zero", &status));
  EXPECT_EQ(junk.find("k")->as_number(), 10.0);

  // The JSON endpoint is a snapshot: explicit charset, never cacheable.
  const std::string raw = http_get_response(server.port(), "/costs");
  EXPECT_NE(raw.find("Content-Type: application/json; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(raw.find("Cache-Control: no-store"), std::string::npos);
}

}  // namespace
}  // namespace overcount
