// serve_hot: estimate requests over loopback TCP against an in-process
// EstimateNetServer, driven by one load-generator thread that multiplexes
// every client connection with ppoll(). Churn is off.
//
// An accuracy pass first asks for fresh (cache-bypassing) estimates, two in
// flight per connection; then a closed loop keeps a fixed pipelining window
// on every connection while nearly every request is a cache hit. Every
// distinct answer is scored against the true size (or degree sum) of the
// origin's component.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/cost/cost.hpp"
#include "obs/metrics.hpp"
#include "serve/source.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace overcount;

constexpr std::size_t kNodes = 20'000;
// One load-generator thread plus one acceptor per connection leaves one of
// the 4 cores the benchmark is sized for free, so that outside load does
// not preempt the closed loop and make its p99 bimodal.
constexpr unsigned kConnections = 2;
constexpr unsigned kTenants = 96;  // tenant t: class t % 3,
                                   // connection (t / 3) % kConnections
constexpr unsigned kServerShards = 2;
constexpr unsigned kWalkThreadsPerShard = 1;
constexpr std::size_t kWindow = 16;     // closed-loop pipelining window
// Accuracy pass: two fresh requests in flight per connection keep both
// shards' walkers busy whichever shard round-robin picks.
constexpr std::size_t kAccuracyWindow = 2;
constexpr double kAccuracyShare = 0.5;  // accuracy pass share of the window
constexpr double kLambda2Hint = 0.5;    // spectral gap the planner uses
constexpr int kDrainTimeoutMs = 20'000;
constexpr int kVariants = 3;            // ε spread: +0, +0.05, +0.10

/// The three soak SLO classes (bench/bench_serve_soak.cpp), each asking one
/// (kind, method) at the class ε plus a spread of 0, 0.05 or 0.10.
struct ClassShape {
  const char* name;
  std::uint8_t kind;    // QueryKind on the wire
  std::uint8_t method;  // EstimateMethod on the wire
  double epsilon;
  double delta;
  std::uint64_t deadline_us;  // 0 = best effort
};
constexpr ClassShape kClasses[3] = {
    {"gold", 0, 0, 0.30, 0.2, 2'000'000},
    {"silver", 1, 0, 0.40, 0.2, 4'000'000},
    {"bronze", 0, 1, 0.50, 0.3, 0},
};

double epsilon_of(const ClassShape& c, int variant) {
  return c.epsilon + 0.05 * variant;
}

struct Truth {
  double nodes = 0;
  double degree_sum = 0;
  double origin_degree = 0;
};

/// Size and degree sum of node 0's component.
Truth component_truth(const DynamicGraph& g) {
  Truth t;
  std::vector<char> seen(g.num_slots(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    t.nodes += 1;
    t.degree_sum += static_cast<double>(g.degree(v));
    for (NodeId u : g.neighbors(v))
      if (!seen[u]) {
        seen[u] = 1;
        stack.push_back(u);
      }
  }
  t.origin_degree = static_cast<double>(g.degree(0));
  return t;
}

/// Times snapshot() and counts version() calls of the graph source the
/// server reads, without changing what either returns.
struct GraphProbe {
  std::atomic<std::uint64_t> version_calls{0};
  std::mutex mu;
  std::vector<double> snapshot_ms;  // guarded by mu
};

GraphSource probed(GraphSource inner, GraphProbe& probe) {
  GraphSource out;
  out.snapshot = [inner, &probe] {
    const auto t0 = Clock::now();
    GraphSnapshot snap = inner.snapshot();
    const auto t1 = Clock::now();
    record_span("bench.graph", "graph.snapshot", t0, t1);
    std::lock_guard lock(probe.mu);
    probe.snapshot_ms.push_back(1e3 * seconds_between(t0, t1));
    return snap;
  };
  out.version = [inner, &probe] {
    probe.version_calls.fetch_add(1, std::memory_order_relaxed);
    return inner.version();
  };
  return out;
}

/// A fresh estimate as the client first saw it.
struct Fresh {
  int cls = 0;
  int variant = 0;
  double value = 0;
  std::uint64_t walks = 0;
};

enum class Mode { kAccuracy, kClosed };

class Serve final : public Workload {
 public:
  explicit Serve(const Options& opts) : opts_(opts) {}
  ~Serve() override { teardown(); }

  void setup() override {
    teardown();
    InputRng rng(opts_.seed);
    InputRng graph_rng = rng.split();
    requests_rng_ = rng.split();
    const Overlay overlay = balanced_overlay(
        std::max<std::size_t>(
            64, static_cast<std::size_t>(static_cast<double>(kNodes) *
                                         opts_.scale)),
        graph_rng);
    graph_ = std::make_unique<DynamicGraph>(overlay.graph);
    truth_ = component_truth(*graph_);
    probe_ = std::make_unique<GraphProbe>();
    registry_ = std::make_unique<MetricsRegistry>();
    if (opts_.trace) {
      // Cost attribution gives the per-(kind, method) step split the
      // cost-model row needs; only the traced run pays for it.
      ledger_ = std::make_unique<CostLedger>();
      ledger_->install();
    }

    net::NetServerConfig cfg;
    cfg.acceptors = kConnections;
    cfg.shards = kServerShards;
    cfg.metrics = registry_.get();
    // Rate limits stay out of the way unless the self-test asks for them.
    const double rate = opts_.tenant_rate > 0 ? opts_.tenant_rate : 1e7;
    const double burst = opts_.tenant_rate > 0 ? opts_.tenant_rate : 1e6;
    for (const ClassShape& c : kClasses)
      cfg.classes.push_back(
          {c.name, c.epsilon, c.delta, c.deadline_us, rate, burst});
    cfg.service.threads = kWalkThreadsPerShard;
    cfg.service.lambda2_hint = kLambda2Hint;
    cfg.service.cost_aggregate_contexts = true;
    cfg.service.seed = opts_.seed ^ 0x5e77eULL;
    // The graph never changes, so entries live for the whole run: after the
    // warm-up, misses come only from the accuracy pass's bypassing requests.
    cfg.service.freshness.base_ttl_us = 3'600'000'000ULL;
    cfg.service.freshness.churn_sensitivity = 0.0;
    server_ = std::make_unique<net::EstimateNetServer>(
        probed(dynamic_graph_source(*graph_, graph_mutex_, 0), *probe_), cfg);

    for (unsigned c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Conn>();
      if (!conn->client.connect(server_->port()))
        throw std::runtime_error("cannot connect to the estimate server");
      conns_.push_back(std::move(conn));
    }
    for (unsigned t = 0; t < kTenants; ++t) {
      Conn& conn = *conns_[(t / 3) % kConnections];
      char name[16];
      std::snprintf(name, sizeof(name), "t%03u", t);
      const auto welcome =
          conn.client.hello(name, static_cast<std::uint8_t>(t % 3));
      if (!welcome) throw std::runtime_error("tenant hello failed");
      conn.tenants.push_back({welcome->tenant_id, static_cast<int>(t % 3)});
    }
    warm();
  }

  Phase measure(double seconds) override {
    layers_ = Layers{};
    const auto counters_before = registry_->snapshot();
    const auto ledger_before = ledger_rows();
    probe_->version_calls.store(0);
    {
      std::lock_guard lock(probe_->mu);
      probe_->snapshot_ms.clear();
    }
    seen_.clear();
    // The accuracy pass is timed on its own: its fresh batches are the only
    // walks serve_hot runs, so they define walk_steps_per_s.
    Phase accuracy = run(Mode::kAccuracy, seconds * kAccuracyShare);
    warm();
    Phase phase = run(Mode::kClosed, seconds * (1.0 - kAccuracyShare));
    // serve.steps moves once per finished batch, in lumps of up to a few
    // hundred milliseconds of walking, so the rate is taken over the whole
    // pass, drain included, instead of per slice.
    const auto [elapsed, walked] = accuracy.steps.back();
    phase.steps = {{0.0, 0.0}, {elapsed, walked}};
    phase.step_seconds = elapsed;
    phase.failed += accuracy.failed;
    score(phase);
    const auto counters_after = registry_->snapshot();
    layers_.counters = diff_counters(counters_before, counters_after);
    layers_.batch_wall =
        diff_histogram(counters_before, counters_after, "serve.batch_wall_us");
    layers_.ledger = subtract(ledger_rows(), ledger_before);
    layers_.version_calls = probe_->version_calls.load();
    {
      std::lock_guard lock(probe_->mu);
      layers_.snapshot_ms = probe_->snapshot_ms;
    }
    return phase;
  }

  void report_layers(Report& r) override {
    const Layers& l = layers_;
    const double answers = std::max<double>(1.0, l.server_us.count());
    r.set("net.overhead_us.p50", l.overhead_us.percentile(0.50), "us");
    r.set("net.overhead_us.p99", l.overhead_us.percentile(0.99), "us");
    for (const char* reason : {"unknown_tenant", "rate_limited", "fair_share",
                               "queue_full", "shutting_down", "bad_request"}) {
      const std::string name = std::string("net.rejects.") + reason;
      r.set(name, counter(l.counters, name), "count");
    }
    r.set("serve.latency_us.p50", l.server_us.percentile(0.50), "us");
    r.set("serve.latency_us.p99", l.server_us.percentile(0.99), "us");
    r.set("serve.hit_ratio", l.hits / answers, "ratio");
    r.set("serve.coalesced_ratio", l.coalesced / answers, "ratio");
    const double miss_p99 = l.miss_ms.percentile(0.99);
    const double wall_p99 =
        l.batch_wall.empty() ? 0.0 : l.batch_wall.percentile(0.99) / 1e3;
    r.set("serve.miss_latency_ms.p50", l.miss_ms.percentile(0.50), "ms");
    r.set("serve.miss_latency_ms.p99", miss_p99, "ms");
    r.set("serve.batch_wall_ms.p99", wall_p99, "ms");
    r.set("serve.queue_wait_ms.p99", std::max(0.0, miss_p99 - wall_p99), "ms");
    r.set("serve.batches", counter(l.counters, "serve.batches"), "count");
    r.set("serve.dup_batches", l.dup_batches, "count");
    r.set("graph.snapshot_ms.p50", percentile(l.snapshot_ms, 0.50), "ms");
    r.set("graph.snapshot_ms.p99", percentile(l.snapshot_ms, 0.99), "ms");
    r.set("graph.version_calls_per_req",
          static_cast<double>(l.version_calls) / answers, "ratio");
    r.set("core.batch_ms.p50",
          l.batch_wall.empty() ? 0.0 : l.batch_wall.percentile(0.50) / 1e3,
          "ms");
    r.set("core.batch_ms.p99", wall_p99, "ms");

    // Steps per estimator from the cost ledger.
    double tour_steps = 0, tour_walks = 0, steps = 0;
    for (const auto& [key, row] : l.ledger) {
      steps += row.steps;
      if (key.second == "random_tour") {
        tour_steps += row.steps;
        tour_walks += row.walks;
      }
    }
    // The ledger's CPU time is process-wide (it includes the acceptors and
    // the load generator), so CPU-based walk metrics stay unreported here.
    const double wall_s = static_cast<double>(l.batch_wall.sum) / 1e6;

    // Paper cost model over the fresh Random Tour batches: steps per tour
    // against 2|E|/d_origin, planned walks against Prop. 2's m, and the
    // predicted miss cost against the measured miss latency.
    double model_steps = 0, model_walks = 0, prop2 = 0, pred_ms = 0, n = 0;
    const double steps_per_s = wall_s > 0 ? steps / wall_s : 0.0;
    const double per_tour = truth_.degree_sum / truth_.origin_degree;
    const double d_bar = truth_.degree_sum / truth_.nodes;
    for (const Fresh& f : l.fresh) {
      const ClassShape& c = kClasses[f.cls];
      if (c.method != 0) continue;
      const double eps = epsilon_of(c, f.variant);
      const double m =
          std::ceil(2.0 * d_bar / (kLambda2Hint * eps * eps * c.delta));
      model_steps += static_cast<double>(f.walks) * per_tour;
      model_walks += static_cast<double>(f.walks);
      prop2 += static_cast<double>(f.walks) / m;
      if (steps_per_s > 0)
        pred_ms += 1e3 * static_cast<double>(f.walks) * per_tour / steps_per_s;
      n += 1;
    }
    r.set("model.steps_per_tour_ratio",
          model_steps > 0 && tour_walks > 0
              ? (tour_steps / tour_walks) / (model_steps / model_walks)
              : 0.0,
          "ratio");
    r.set("model.walks_vs_prop2", n > 0 ? prop2 / n : 0.0, "ratio");
    r.set("model.pred_miss_ms", n > 0 ? pred_ms / n : 0.0, "ms");
    r.set("model.pred_vs_measured",
          n > 0 && l.tour_miss_ms > 0
              ? (pred_ms / n) / (l.tour_miss_ms / l.tour_misses)
              : 0.0,
          "ratio");
  }

 private:
  struct Pending {
    int cls = 0;
    int variant = 0;
    bool bypass = false;
    Clock::time_point due;
    Clock::time_point sent;
  };
  struct Conn {
    net::NetClient client;
    std::vector<std::pair<std::uint32_t, int>> tenants;  // wire id, class
    // By request id: the server may answer out of order, and writes a
    // reject ahead of replies still in flight.
    std::unordered_map<std::uint64_t, Pending> outstanding;
    bool dead = false;
  };
  struct LedgerRow {
    double steps = 0, walks = 0;
  };
  using LedgerRows = std::map<std::pair<std::string, std::string>, LedgerRow>;
  struct Layers {
    LogHistogram overhead_us;  // client round trip minus server latency
    LogHistogram server_us;    // ResponseMsg.latency_us
    LogHistogram miss_ms;      // server latency of answers not from cache
    double hits = 0, coalesced = 0;
    double tour_miss_ms = 0, tour_misses = 0;  // Random Tour misses
    std::vector<Fresh> fresh;
    std::vector<double> snapshot_ms;
    std::map<std::string, double> counters;
    Log2Histogram batch_wall;
    LedgerRows ledger;
    std::uint64_t version_calls = 0;
    double dup_batches = 0;
  };
  /// (class, variant, graph version, value bits) of one answer.
  using AnswerKey = std::tuple<int, int, std::uint64_t, std::uint64_t>;

  net::RequestMsg request_for(std::uint32_t tenant, int cls, int variant,
                              std::uint8_t flags) {
    const ClassShape& c = kClasses[cls];
    net::RequestMsg req;
    req.request_id = next_id_++;
    req.tenant_id = tenant;
    req.kind = c.kind;
    req.method = c.method;
    req.flags = flags | net::kReqExplicitTarget;
    req.epsilon = epsilon_of(c, variant);
    req.delta = c.delta;
    return req;
  }

  /// Sends one request for a random tenant of `conn`.
  bool send(Conn& conn, Mode mode, Clock::time_point due) {
    const auto& [tenant_id, cls] =
        conn.tenants[requests_rng_.below(conn.tenants.size())];
    const int variant = static_cast<int>(requests_rng_.below(kVariants));
    const bool bypass = mode == Mode::kAccuracy;
    // A relative deadline of 0 is best effort; without kReqAllowCached the
    // estimate is computed fresh.
    const net::RequestMsg req = request_for(
        tenant_id, cls, variant,
        bypass ? net::kReqHasDeadline : net::kReqAllowCached);
    const auto sent = Clock::now();
    if (!conn.client.send_request(req)) return false;
    conn.outstanding[req.request_id] = {cls, variant, bypass, due, sent};
    return true;
  }

  /// Handles one frame from `conn`; false on a protocol violation.
  bool absorb(Conn& conn, const net::Frame& frame, Phase& phase) {
    std::optional<net::ResponseMsg> msg;
    std::uint64_t id = 0;
    if (frame.type() == net::FrameType::kReject) {
      const auto rej = net::decode_reject(frame);
      if (!rej) return false;
      id = rej->request_id;
    } else if (frame.type() == net::FrameType::kResponse) {
      msg = net::decode_response(frame);
      if (!msg) return false;
      id = msg->request_id;
    } else {
      return false;
    }
    const auto it = conn.outstanding.find(id);
    if (it == conn.outstanding.end()) return false;
    const Pending p = it->second;
    conn.outstanding.erase(it);
    const auto now = Clock::now();
    record_span("bench.net", "client.request", p.due, now);
    // A reject is attempted but not OK, so error_rate and deadline_hit_rate
    // count it; it is not a transport failure.
    if (!msg) return true;

    const ClassShape& c = kClasses[p.cls];
    const auto status = static_cast<ServeStatus>(msg->status);
    if (status == ServeStatus::kFailed) {
      ++phase.failed;
      return true;
    }
    const double client_ms = 1e3 * seconds_between(p.due, now);
    phase.answer(seconds_between(window_start_, now), client_ms);
    if (status != ServeStatus::kOk) return true;  // deadline miss
    ++phase.ok;
    if (c.deadline_us == 0 || client_ms * 1e3 <= c.deadline_us)
      ++phase.deadline_hits;

    const auto server_us = static_cast<double>(msg->latency_us);
    const bool hit = (msg->flags & net::kRespCacheHit) != 0;
    layers_.server_us.record(server_us);
    layers_.overhead_us.record(1e6 * seconds_between(p.sent, now) - server_us);
    layers_.hits += hit;
    layers_.coalesced += (msg->flags & net::kRespCoalesced) != 0;
    if (!hit) {
      layers_.miss_ms.record(server_us / 1e3);
      if (c.method == 0) {
        layers_.tour_miss_ms += server_us / 1e3;
        layers_.tour_misses += 1;
      }
    }

    std::uint64_t bits = 0;
    std::memcpy(&bits, &msg->value, sizeof(bits));
    const AnswerKey key{p.cls, p.variant, msg->graph_version, bits};
    if (seen_.insert(key).second)
      layers_.fresh.push_back({p.cls, p.variant, msg->value, msg->walks});
    // A batch answers every request it was coalesced with under one value;
    // a second value for the same key and version is a second batch.
    if (!hit && !p.bypass) batch_values_.insert(key);
    return true;
  }

  /// Reads every complete frame `conn` has; false when it broke.
  bool drain(Conn& conn, Phase& phase) {
    auto frame = conn.client.read_frame(5);
    if (!frame) return false;
    do {
      if (!absorb(conn, *frame, phase)) return false;
      frame = conn.client.read_frame(0);
    } while (frame);
    return true;
  }

  /// The load generator. Returns when the window closed and every
  /// outstanding request was answered (or the drain timed out).
  Phase run(Mode mode, double seconds) {
    Phase phase(seconds);
    phase.step_seconds = seconds;
    const auto start = Clock::now();
    window_start_ = start;
    Counter& steps = registry_->counter("serve.steps");
    const double steps0 = static_cast<double>(steps.value());
    auto next_mark = start;
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    const std::size_t window =
        mode == Mode::kClosed ? kWindow : kAccuracyWindow;

    auto outstanding = [&] {
      std::size_t n = 0;
      for (const auto& c : conns_) n += c->outstanding.size();
      return n;
    };
    auto fail_conn = [&](Conn& c) {
      c.dead = true;
      phase.failed += c.outstanding.size();
      c.outstanding.clear();
    };

    for (;;) {
      const auto now = Clock::now();
      if (now >= next_mark) {
        phase.steps.emplace_back(seconds_between(start, now),
                                 static_cast<double>(steps.value()) - steps0);
        next_mark += std::chrono::milliseconds(100);
      }
      if (now < end) {
        for (auto& c : conns_)
          while (!c->dead && c->outstanding.size() < window) {
            ++phase.attempted;
            if (!send(*c, mode, Clock::now())) {
              ++phase.failed;
              fail_conn(*c);
            }
          }
      } else if (outstanding() == 0 ||
                 now > end + std::chrono::milliseconds(kDrainTimeoutMs)) {
        for (auto& c : conns_) {
          phase.failed += c->outstanding.size();  // never answered
          c->outstanding.clear();
        }
        break;
      }

      pollfd fds[kConnections];
      for (unsigned i = 0; i < kConnections; ++i)
        fds[i] = {conns_[i]->dead ? -1 : conns_[i]->client.fd(), POLLIN, 0};
      const timespec ts{0, 20'000'000};  // wake at least every 20 ms
      if (::ppoll(fds, kConnections, &ts, nullptr) <= 0) continue;
      for (unsigned i = 0; i < kConnections; ++i)
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !drain(*conns_[i], phase))
          fail_conn(*conns_[i]);
    }
    phase.steps.emplace_back(seconds_between(start, Clock::now()),
                             static_cast<double>(steps.value()) - steps0);
    return phase;
  }

  /// Fills both shards' caches with every (class, variant) key. The two
  /// requests for a key go out back to back on one connection, so
  /// round-robin dispatch puts them on different shards.
  void warm() {
    Conn& conn = *conns_[0];
    std::uint32_t tenant_of[3] = {0, 0, 0};
    for (const auto& [id, cls] : conn.tenants) tenant_of[cls] = id;
    for (int pass = 0; pass < 20; ++pass) {
      std::set<std::uint64_t> waiting;
      for (int cls = 0; cls < 3; ++cls)
        for (int variant = 0; variant < kVariants; ++variant)
          for (unsigned s = 0; s < kServerShards; ++s) {
            const net::RequestMsg req = request_for(
                tenant_of[cls], cls, variant, net::kReqAllowCached);
            if (!conn.client.send_request(req))
              throw std::runtime_error("cache warm-up send failed");
            waiting.insert(req.request_id);
          }
      bool all_hits = true;
      while (!waiting.empty()) {
        const auto frame = conn.client.read_frame(60'000);
        const auto msg = frame && frame->type() == net::FrameType::kResponse
                             ? net::decode_response(*frame)
                             : std::nullopt;
        if (!msg || waiting.erase(msg->request_id) == 0 ||
            static_cast<ServeStatus>(msg->status) != ServeStatus::kOk)
          throw std::runtime_error("cache warm-up request failed");
        if ((msg->flags & net::kRespCacheHit) == 0) all_hits = false;
      }
      if (all_hits) return;
    }
    throw std::runtime_error("cache did not warm");
  }

  /// Scores the distinct estimates of the window against the truth and
  /// counts batches per (key, graph version) beyond the first: the herd
  /// across broker shards.
  void score(Phase& phase) {
    for (const Fresh& f : layers_.fresh) {
      const ClassShape& c = kClasses[f.cls];
      Scored s;
      s.group = f.cls;
      s.value = f.value;
      const double skew = opts_.truth_skew;
      s.truth = (c.kind == 0 ? truth_.nodes : truth_.degree_sum) * skew;
      s.other_truth = (c.kind == 0 ? truth_.degree_sum : truth_.nodes) * skew;
      phase.estimates.push_back(s);
    }
    std::map<std::tuple<int, int, std::uint64_t>, int> batches;
    for (const auto& [cls, variant, version, bits] : batch_values_)
      ++batches[{cls, variant, version}];
    for (const auto& [key, n] : batches) layers_.dup_batches += n - 1;
    batch_values_.clear();
  }

  LedgerRows ledger_rows() const {
    LedgerRows rows;
    if (!ledger_) return rows;
    for (const CostRecord& rec : ledger_->snapshot()) {
      LedgerRow& row = rows[{rec.context.kind, rec.context.method}];
      row.steps += static_cast<double>(rec.steps());
      row.walks += static_cast<double>(rec.get(CostField::kWalks));
    }
    return rows;
  }

  static LedgerRows subtract(LedgerRows after, const LedgerRows& before) {
    for (auto& [key, row] : after) {
      const auto it = before.find(key);
      if (it == before.end()) continue;
      row.steps -= it->second.steps;
      row.walks -= it->second.walks;
    }
    return after;
  }

  static std::map<std::string, double> diff_counters(
      const MetricsSnapshot& a, const MetricsSnapshot& b) {
    std::map<std::string, double> out;
    for (const auto& [name, v] : b.counters)
      out[name] = static_cast<double>(v - a.counter_or_zero(name));
    return out;
  }

  static double counter(const std::map<std::string, double>& counters,
                        const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }

  static Log2Histogram diff_histogram(const MetricsSnapshot& a,
                                      const MetricsSnapshot& b,
                                      const std::string& name) {
    Log2Histogram out;
    for (const auto& [n, h] : b.histograms)
      if (n == name) out = h;
    for (const auto& [n, h] : a.histograms)
      if (n == name) {
        for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i)
          out.buckets[i] -= h.buckets[i];
        out.count -= h.count;
        out.sum -= h.sum;
      }
    if (out.count == 0) return Log2Histogram{};
    // min/max cannot be windowed; widen them to the buckets still in use.
    std::size_t lo = 0, hi = Log2Histogram::kBuckets - 1;
    while (out.buckets[lo] == 0) ++lo;
    while (out.buckets[hi] == 0) --hi;
    out.min = Log2Histogram::bucket_lower(lo);
    out.max = Log2Histogram::bucket_upper(hi);
    return out;
  }

  void teardown() {
    conns_.clear();
    server_.reset();
    if (ledger_) ledger_->uninstall();
    ledger_.reset();
    registry_.reset();
    probe_.reset();
    graph_.reset();
    seen_.clear();
    batch_values_.clear();
  }

  Options opts_;
  std::unique_ptr<DynamicGraph> graph_;
  std::mutex graph_mutex_;
  Truth truth_;
  std::unique_ptr<GraphProbe> probe_;
  std::unique_ptr<CostLedger> ledger_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<net::EstimateNetServer> server_;
  std::vector<std::unique_ptr<Conn>> conns_;
  InputRng requests_rng_{0};
  std::uint64_t next_id_ = 1;
  Clock::time_point window_start_;
  std::set<AnswerKey> seen_;          // distinct answers, for accuracy
  std::set<AnswerKey> batch_values_;  // distinct cache-allowed misses
  Layers layers_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& opts) {
  return std::make_unique<Serve>(opts);
}

}  // namespace perfbench
