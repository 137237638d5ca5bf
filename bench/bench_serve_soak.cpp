// Million-request soak of the multi-tenant socket front end: closed-loop
// then open-loop load over real loopback connections against an
// EstimateNetServer (one broker with two batch loops + token-bucket/DRR
// admission), with DynamicGraph churn running concurrently the whole time.
//
// Scale knobs (on top of the usual OVERCOUNT_N/SEED/FAST/THREADS/JSON):
//   OVERCOUNT_SOAK_REQUESTS  total requests        (default 1'000'000)
//   OVERCOUNT_SOAK_TENANTS   simulated tenants     (default 1'000)
//   OVERCOUNT_SOAK_CONNS     client connections    (default 8)
//   OVERCOUNT_SOAK_CHURN_MS  churn cadence, 0 = off (default 1000)
// OVERCOUNT_FAST shrinks the defaults to a 50k-request / 100-tenant smoke
// (the committed baseline scale).
//
// Phase 1 (70% of the budget) is closed-loop: each connection keeps a
// pipelining window of requests in flight and sends as fast as responses
// return. Phase 2 (30%) is open-loop at 1.15x the measured closed-loop
// rate: arrivals are scheduled on the clock, and when the window is full
// at an arrival instant the client must block (counted as backpressure) —
// the classic open-loop overload probe.
//
// Headline values in BENCH_soak.json: per-SLO-class p50/p90/p99 latency
// and deadline hit-rate, the Jain fairness index over per-tenant served
// fractions, reject/shed rates, and per-class/per-tenant cost.* rollups
// from the cost ledger. Exit is non-zero when any deadline class's
// hit-rate drops below 95% or Jain drops below 0.9 — the soak is a gate,
// not just a report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "graph/dynamic_graph.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/cost/cost.hpp"
#include "serve/service.hpp"
#include "serve/source.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace overcount;
using namespace overcount::bench;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return parsed;
}

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The three soak SLO classes. Rate limits are sized out of the way on
/// purpose: the soak measures the serving path and the fair-share layer
/// under overload, not per-tenant throttling (pinned separately in
/// tests/net/). Deadlines: gold 2 s, silver 4 s, bronze best-effort.
std::vector<net::SloClassSpec> soak_classes() {
  return {
      {"gold", 0.30, 0.2, 2'000'000, 50'000.0, 10'000.0},
      {"silver", 0.40, 0.2, 4'000'000, 50'000.0, 10'000.0},
      {"bronze", 0.50, 0.3, 0, 50'000.0, 10'000.0},
  };
}

constexpr int kClasses = 3;

struct Sent {
  std::uint32_t tenant_idx = 0;
  std::uint8_t class_id = 0;
  std::uint64_t t_us = 0;
};

struct ConnTally {
  std::vector<double> latencies_us[kClasses];  ///< kOk only, per class
  std::uint64_t sent = 0;
  std::uint64_t ok[kClasses] = {0, 0, 0};
  std::uint64_t deadline_missed[kClasses] = {0, 0, 0};
  std::uint64_t failed[kClasses] = {0, 0, 0};
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;  ///< kQueueFull subset of rejected
  std::uint64_t backpressure = 0;
  std::uint64_t transport_errors = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> offered_by_tenant;
  std::unordered_map<std::uint32_t, std::uint64_t> ok_by_tenant;
  double closed_rate_rps = 0.0;  ///< measured in phase 1
};

}  // namespace

int main() {
  preamble("soak",
           "multi-tenant socket front end soak: closed+open-loop load over "
           "loopback connections, SLO-class latency/deadline health, Jain "
           "fairness, reject/shed rates, per-tenant cost rollups, with "
           "concurrent churn");
  paper_note(
      "the per-request walk budget from eps = sqrt(2 d_bar / (lambda2 m "
      "delta)) (Prop. 2) is cheap enough, amortised by the serve cache, "
      "that the socket front end -- not the walk kernel -- is the layer "
      "under test at this request volume");

  const bool fast = fast_mode();
  const std::uint64_t total_requests = env_u64(
      "OVERCOUNT_SOAK_REQUESTS", fast ? 1'000'000 / 20 : 1'000'000);
  const std::uint32_t tenants = static_cast<std::uint32_t>(
      env_u64("OVERCOUNT_SOAK_TENANTS", fast ? 100 : 1000));
  const unsigned conns = static_cast<unsigned>(
      env_u64("OVERCOUNT_SOAK_CONNS", 8));
  std::cout << "# soak: " << total_requests << " requests, " << tenants
            << " tenants, " << conns << " connections\n";

  Rng master(master_seed());
  Rng graph_rng = master.split();
  Rng churn_rng = master.split();
  DynamicGraph graph(make_balanced(graph_rng));
  std::mutex graph_mutex;
  const std::size_t base_alive = graph.num_alive();

  // Per-tenant cost attribution rides the whole soak: every request names
  // its tenant, so the ledger folds into per-class and per-tenant rollups
  // below. Declared before the server so it outlives the broker.
  CostLedger ledger;
  ledger.install();

  MetricsRegistry registry;
  net::NetServerConfig server_config;
  server_config.acceptors = conns;
  server_config.shards = 2;  // batch loops sharing one queue and cache
  server_config.classes = soak_classes();
  server_config.metrics = &registry;
  server_config.service.threads = worker_threads();
  server_config.service.queue_capacity = 64;
  // Skip the per-version Lanczos profile: under churn every version bump
  // would otherwise pay a spectral solve before the first walk, and the
  // soak measures the serving path, not gap estimation (pinned elsewhere).
  server_config.service.lambda2_hint = 0.5;
  server_config.service.freshness.base_ttl_us = 2'000'000;
  // One reused ledger context per (tenant, class): per-query contexts would
  // overflow the ledger's 16k table long before a million requests and the
  // overflow would bill to the unattributed sink, breaking reconciliation.
  server_config.service.cost_aggregate_contexts = true;
  server_config.service.seed = master_seed() + 1;
  net::EstimateNetServer server(dynamic_graph_source(graph, graph_mutex),
                                server_config);

  // Every version bump re-dirties every cached key, and a miss batch is
  // hundreds of ms of walk work at full overlay size on one core — the
  // cadence keeps recompute below saturation while still exercising
  // invalidation continuously. The broker's EDF queue serves the deadline
  // classes' recomputes first, which is what keeps their hit-rate
  // gates honest even when a bump lands mid-run.
  const std::uint64_t churn_ms = env_u64("OVERCOUNT_SOAK_CHURN_MS", 1000);
  std::atomic<bool> churning{churn_ms != 0};
  std::thread churn([&] {
    Rng local = churn_rng;
    while (churning.load(std::memory_order_relaxed)) {
      {
        std::lock_guard lock(graph_mutex);
        churn_join(graph, TopologyKind::kBalanced, local, 2, 8);
        if (graph.num_alive() > base_alive) churn_leave(graph, local);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(churn_ms));
    }
  });

  const std::uint64_t per_conn = total_requests / conns;
  const std::uint64_t closed_budget = per_conn * 7 / 10;
  constexpr std::size_t kWindow = 32;
  std::vector<ConnTally> tallies(conns);

  auto conn_worker = [&](unsigned conn_idx) {
    ConnTally& tally = tallies[conn_idx];
    Rng rng(master_seed() + 1000 + conn_idx);
    net::NetClient client;
    if (!client.connect(server.port())) {
      ++tally.transport_errors;
      return;
    }
    // This connection speaks for every tenant with idx % conns == conn_idx
    // (the server multiplexes tenants per connection).
    std::vector<std::uint32_t> my_tenants;     // tenant idx
    std::vector<std::uint32_t> my_tenant_ids;  // wire ids, same order
    for (std::uint32_t t = conn_idx; t < tenants; t += conns) {
      char name[16];
      std::snprintf(name, sizeof(name), "t%06u", t);
      auto welcome = client.hello(name, static_cast<std::uint8_t>(t % 3));
      if (!welcome.has_value()) {
        ++tally.transport_errors;
        return;
      }
      my_tenants.push_back(t);
      my_tenant_ids.push_back(welcome->tenant_id);
    }
    if (my_tenants.empty()) return;

    std::unordered_map<std::uint64_t, Sent> outstanding;
    outstanding.reserve(kWindow * 2);
    std::uint64_t next_id = 1;

    auto absorb_frame = [&](const net::Frame& frame) -> bool {
      std::uint64_t request_id = 0;
      bool is_reject = false;
      std::uint8_t status = 0;
      std::uint8_t reason = 0;
      if (frame.type() == net::FrameType::kResponse) {
        auto msg = net::decode_response(frame);
        if (!msg) return false;
        request_id = msg->request_id;
        status = msg->status;
      } else if (frame.type() == net::FrameType::kReject) {
        auto msg = net::decode_reject(frame);
        if (!msg) return false;
        request_id = msg->request_id;
        is_reject = true;
        reason = msg->reason;
      } else {
        return false;
      }
      auto it = outstanding.find(request_id);
      if (it == outstanding.end()) return false;
      const Sent sent = it->second;
      outstanding.erase(it);
      const std::size_t cls = sent.class_id;
      if (is_reject) {
        ++tally.rejected;
        if (reason == static_cast<std::uint8_t>(net::RejectReason::kQueueFull))
          ++tally.shed;
        return true;
      }
      switch (static_cast<ServeStatus>(status)) {
        case ServeStatus::kOk:
          ++tally.ok[cls];
          ++tally.ok_by_tenant[sent.tenant_idx];
          tally.latencies_us[cls].push_back(
              static_cast<double>(steady_us() - sent.t_us));
          break;
        case ServeStatus::kRejected:  // travels as kReject frames instead
        case ServeStatus::kDeadlineMiss:
          ++tally.deadline_missed[cls];
          break;
        case ServeStatus::kFailed:
          ++tally.failed[cls];
          break;
      }
      return true;
    };

    auto drain_one = [&]() -> bool {
      auto frame = client.read_frame(60'000);
      if (!frame.has_value()) {
        ++tally.transport_errors;
        return false;
      }
      return absorb_frame(*frame);
    };

    auto send_one = [&]() -> bool {
      const std::size_t pick = rng.uniform_below(my_tenants.size());
      const std::uint32_t tenant_idx = my_tenants[pick];
      const std::uint8_t class_id = static_cast<std::uint8_t>(tenant_idx % 3);
      net::RequestMsg req;
      req.request_id = next_id++;
      req.tenant_id = my_tenant_ids[pick];
      req.flags = net::kReqAllowCached | net::kReqExplicitTarget;
      // Class-shaped queries with a small epsilon spread: a handful of
      // targets per class. Gold and silver share the Random Tour slot and
      // its batches (the tightest pending or cached target covers the
      // looser ones), so the soak exercises hit, miss and coalesce paths.
      const double spread = 0.05 * static_cast<double>(rng.uniform_below(3));
      switch (class_id) {
        case 0:
          req.kind = 0;  // size / random tour
          req.method = 0;
          req.epsilon = 0.30 + spread;
          req.delta = 0.2;
          break;
        case 1:
          req.kind = 1;  // degree sum / random tour
          req.method = 0;
          req.epsilon = 0.40 + spread;
          req.delta = 0.2;
          break;
        default:
          req.kind = 0;  // size / sample & collide, best effort
          req.method = 1;
          req.epsilon = 0.50 + spread;
          req.delta = 0.3;
          break;
      }
      if (!client.send_request(req)) {
        ++tally.transport_errors;
        return false;
      }
      outstanding.emplace(req.request_id, Sent{tenant_idx, class_id,
                                               steady_us()});
      ++tally.sent;
      ++tally.offered_by_tenant[tenant_idx];
      return true;
    };

    // ---- Phase 1: closed loop (window-limited, self-clocked).
    const std::uint64_t t0 = steady_us();
    for (std::uint64_t i = 0; i < closed_budget; ++i) {
      if (outstanding.size() >= kWindow && !drain_one()) return;
      if (!send_one()) return;
    }
    while (!outstanding.empty()) {
      if (!drain_one()) return;
    }
    const std::uint64_t t1 = steady_us();
    tally.closed_rate_rps =
        t1 > t0 ? static_cast<double>(closed_budget) * 1e6 /
                      static_cast<double>(t1 - t0)
                : 0.0;

    // ---- Phase 2: open loop at 1.15x the measured closed-loop rate.
    // Arrivals are scheduled on the clock; a full window at an arrival
    // instant means the generator is ahead of the service and must block
    // (counted, not silently absorbed).
    const double rate = std::max(tally.closed_rate_rps * 1.15, 1000.0);
    const double interval_us = 1e6 / rate;
    double next_send = static_cast<double>(steady_us());
    for (std::uint64_t i = closed_budget; i < per_conn; ++i) {
      next_send += interval_us;
      while (static_cast<double>(steady_us()) < next_send) {
        if (outstanding.size() >= kWindow / 2) {
          if (!drain_one()) return;  // use the wait to drain replies
        } else {
          std::this_thread::yield();
        }
      }
      if (outstanding.size() >= kWindow) {
        ++tally.backpressure;
        if (!drain_one()) return;
      }
      if (!send_one()) return;
    }
    while (!outstanding.empty()) {
      if (!drain_one()) return;
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  SerialTimer load_timer;
  std::vector<std::thread> workers;
  for (unsigned c = 0; c < conns; ++c) workers.emplace_back(conn_worker, c);
  for (auto& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  churning.store(false, std::memory_order_relaxed);
  churn.join();
  server.stop();
  ledger.uninstall();  // broker joined: the ledger is quiesced, fold away

  // ---- Aggregate.
  const std::vector<net::SloClassSpec> classes = soak_classes();
  std::uint64_t sent_total = 0, rejected = 0, shed = 0, backpressure = 0,
                transport_errors = 0;
  std::uint64_t ok[kClasses] = {0, 0, 0};
  std::uint64_t missed[kClasses] = {0, 0, 0};
  std::uint64_t failed[kClasses] = {0, 0, 0};
  std::vector<double> latencies[kClasses];
  std::map<std::uint32_t, double> offered_by_tenant, ok_by_tenant;
  double closed_rate_total = 0.0;
  for (const ConnTally& t : tallies) {
    sent_total += t.sent;
    rejected += t.rejected;
    shed += t.shed;
    backpressure += t.backpressure;
    transport_errors += t.transport_errors;
    closed_rate_total += t.closed_rate_rps;
    for (int c = 0; c < kClasses; ++c) {
      ok[c] += t.ok[c];
      missed[c] += t.deadline_missed[c];
      failed[c] += t.failed[c];
      latencies[c].insert(latencies[c].end(), t.latencies_us[c].begin(),
                          t.latencies_us[c].end());
    }
    for (const auto& [tenant, n] : t.offered_by_tenant)
      offered_by_tenant[tenant] += static_cast<double>(n);
    for (const auto& [tenant, n] : t.ok_by_tenant)
      ok_by_tenant[tenant] += static_cast<double>(n);
  }
  std::uint64_t ok_total = 0, missed_total = 0, failed_total = 0;
  for (int c = 0; c < kClasses; ++c) {
    ok_total += ok[c];
    missed_total += missed[c];
    failed_total += failed[c];
  }

  // Jain fairness over per-tenant served fractions (ok / offered): every
  // registered tenant that offered load counts, so a starved tenant drags
  // the index down even though the busy ones look healthy.
  std::vector<double> served_fraction;
  for (const auto& [tenant, offered] : offered_by_tenant) {
    if (offered <= 0.0) continue;
    const auto it = ok_by_tenant.find(tenant);
    const double got = it == ok_by_tenant.end() ? 0.0 : it->second;
    served_fraction.push_back(got / offered);
  }
  const double jain = net::jain_index(served_fraction);

  // Fold the cost ledger by tenant and by class (tenant "t%06u" has class
  // idx % 3 by construction; "(refresh)" and other system contexts fold
  // into the "system" bucket).
  struct CostRoll {
    std::uint64_t steps = 0, walks = 0, cpu_us = 0, cache_hits = 0;
  };
  CostRoll by_class[kClasses];
  CostRoll system_cost;
  std::uint64_t tenant_steps_max = 0;
  double tenant_steps_sum = 0.0;
  std::map<std::string, std::uint64_t> steps_by_tenant;
  for (const CostRecord& row : ledger.snapshot()) {
    if (row.ctx == 0) continue;
    CostRoll* roll = &system_cost;
    const std::string& tenant = row.context.tenant;
    if (tenant.size() > 1 && tenant[0] == 't') {
      char* end = nullptr;
      const unsigned long idx = std::strtoul(tenant.c_str() + 1, &end, 10);
      if (end != nullptr && *end == '\0') {
        roll = &by_class[idx % kClasses];
      }
    }
    roll->steps += row.steps();
    roll->walks += row.get(CostField::kWalks);
    roll->cpu_us += row.cpu_us();
    roll->cache_hits += row.get(CostField::kCacheHits);
    if (roll != &system_cost) {
      steps_by_tenant[tenant] += row.steps();
    }
  }
  for (const auto& [tenant, steps] : steps_by_tenant) {
    tenant_steps_max = std::max(tenant_steps_max, steps);
    tenant_steps_sum += static_cast<double>(steps);
  }
  const CostRecord cost_totals = ledger.totals();

  const auto snap = registry.snapshot();
  const double steps = snap.counter_or_zero("serve.steps");
  emit_batch("soak.load",
             load_timer.finish(static_cast<std::size_t>(ok_total),
                               static_cast<std::uint64_t>(steps)));

  TextTable table({"metric", "value"});
  table.add_row({"requests sent", format_double(
      static_cast<double>(sent_total), 0)});
  table.add_row({"ok", format_double(static_cast<double>(ok_total), 0)});
  table.add_row({"rejected", format_double(static_cast<double>(rejected), 0)});
  table.add_row({"shed (queue full)",
                 format_double(static_cast<double>(shed), 0)});
  table.add_row({"deadline missed",
                 format_double(static_cast<double>(missed_total), 0)});
  table.add_row({"failed", format_double(static_cast<double>(failed_total),
                                         0)});
  table.add_row({"open-loop backpressure",
                 format_double(static_cast<double>(backpressure), 0)});
  table.add_row({"throughput (rps)",
                 format_double(wall_s > 0.0
                                   ? static_cast<double>(sent_total) / wall_s
                                   : 0.0,
                               0)});
  table.add_row({"jain fairness", format_double(jain, 4)});

  record_value("soak.requests", static_cast<double>(sent_total));
  record_value("soak.ok", static_cast<double>(ok_total));
  record_value("soak.rejected", static_cast<double>(rejected));
  record_value("soak.rejected_rate",
               sent_total > 0 ? static_cast<double>(rejected) /
                                    static_cast<double>(sent_total)
                              : 0.0);
  record_value("soak.shed_rate",
               sent_total > 0 ? static_cast<double>(shed) /
                                    static_cast<double>(sent_total)
                              : 0.0);
  record_value("soak.deadline_missed", static_cast<double>(missed_total));
  record_value("soak.failed", static_cast<double>(failed_total));
  record_value("soak.backpressure", static_cast<double>(backpressure));
  record_value("soak.transport_errors",
               static_cast<double>(transport_errors));
  record_value("soak.tenants", static_cast<double>(tenants));
  record_value("soak.connections", static_cast<double>(conns));
  record_value("soak.throughput_rps",
               wall_s > 0.0 ? static_cast<double>(sent_total) / wall_s : 0.0);
  record_value("soak.closed_loop_rps", closed_rate_total);
  record_value("soak.jain_fairness", jain);

  bool gates_ok = transport_errors == 0;
  if (transport_errors != 0) {
    std::cerr << "error: " << transport_errors << " transport errors\n";
  }
  for (int c = 0; c < kClasses; ++c) {
    const std::string prefix = "soak.class." + classes[c].name + ".";
    std::sort(latencies[c].begin(), latencies[c].end());
    const double p50 = percentile(latencies[c], 0.50);
    const double p90 = percentile(latencies[c], 0.90);
    const double p99 = percentile(latencies[c], 0.99);
    const std::uint64_t counted = ok[c] + missed[c] + failed[c];
    // Hit rate over COUNTED requests: rejects are load shedding, reported
    // separately, same convention as SloLedger.
    const double hit_rate =
        counted > 0 ? static_cast<double>(ok[c]) /
                          static_cast<double>(counted)
                    : 1.0;
    record_value(prefix + "requests", static_cast<double>(counted));
    record_value(prefix + "ok", static_cast<double>(ok[c]));
    record_value(prefix + "hit_rate", hit_rate);
    record_value(prefix + "latency_p50_us", p50);
    record_value(prefix + "latency_p90_us", p90);
    record_value(prefix + "latency_p99_us", p99);
    Log2Histogram hist;
    for (double v : latencies[c])
      hist.record(static_cast<std::uint64_t>(v));
    emit_histogram(prefix + "latency_us", hist);

    table.add_row({classes[c].name + " hit rate",
                   format_double(hit_rate, 4)});
    table.add_row({classes[c].name + " p50/p99 (us)",
                   format_double(p50, 0) + " / " + format_double(p99, 0)});

    // The gate: deadline classes must hold 95%. Best-effort classes have
    // no deadline to miss, but a failure spike still trips via kFailed.
    const bool has_deadline = classes[c].deadline_us != 0;
    const double bar = has_deadline ? 0.95 : 0.99;
    if (counted > 0 && hit_rate < bar) {
      std::cerr << "error: class " << classes[c].name << " hit rate "
                << hit_rate << " below " << bar << "\n";
      gates_ok = false;
    }

    const std::string cost_prefix = "cost.class." + classes[c].name + ".";
    record_value(cost_prefix + "steps",
                 static_cast<double>(by_class[c].steps));
    record_value(cost_prefix + "walks",
                 static_cast<double>(by_class[c].walks));
    record_value(cost_prefix + "cpu_us",
                 static_cast<double>(by_class[c].cpu_us));
    record_value(cost_prefix + "cache_hits",
                 static_cast<double>(by_class[c].cache_hits));
  }
  if (jain < 0.9) {
    std::cerr << "error: jain fairness " << jain << " below 0.9\n";
    gates_ok = false;
  }

  record_value("cost.steps", static_cast<double>(cost_totals.steps()));
  record_value("cost.cpu_us", static_cast<double>(cost_totals.cpu_us()));
  record_value("cost.contexts", static_cast<double>(ledger.contexts()));
  record_value("cost.unattributed_steps",
               static_cast<double>(ledger.unattributed().steps()));
  record_value("cost.unattributed_walks",
               static_cast<double>(ledger.unattributed().get(
                   CostField::kWalks)));
  record_value("cost.unattributed_batches",
               static_cast<double>(ledger.unattributed().get(
                   CostField::kBatches)));
  record_value("cost.dropped_contexts",
               static_cast<double>(ledger.dropped_contexts()));
  record_value("cost.system.steps", static_cast<double>(system_cost.steps));
  record_value("cost.tenant.steps_max",
               static_cast<double>(tenant_steps_max));
  record_value("cost.tenant.steps_mean",
               steps_by_tenant.empty()
                   ? 0.0
                   : tenant_steps_sum /
                         static_cast<double>(steps_by_tenant.size()));

  // net.* front-end counters and the broker's batch / coalesce counts ride
  // into the artifact for baseline context.
  for (const auto& [name, v] : snap.counters)
    if (name.rfind("net.", 0) == 0 || name == "serve.batches" ||
        name == "serve.coalesced")
      record_value(name, static_cast<double>(v));

  table.print(std::cout);
  std::cout << "# soak: " << (gates_ok ? "PASS" : "FAIL") << " ("
            << format_double(wall_s, 1) << " s, "
            << format_double(wall_s > 0.0
                                 ? static_cast<double>(sent_total) / wall_s
                                 : 0.0,
                             0)
            << " rps)\n";

  // Reconciliation: every walk step the broker spent must be attributed
  // (same contract estimate_server pins).
  if (static_cast<double>(cost_totals.steps()) != steps) {
    std::cerr << "error: cost ledger holds " << cost_totals.steps()
              << " steps but the broker spent " << steps << "\n";
    return 1;
  }
  if (ledger.unattributed().steps() != 0) {
    std::cerr << "error: " << ledger.unattributed().steps()
              << " walk steps escaped attribution\n";
    return 1;
  }
  return gates_ok ? 0 : 1;
}
