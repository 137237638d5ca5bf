// EstimateNetServer: the multi-tenant socket front end that promotes
// EstimateService to a real network service.
//
//   client ──TCP──▶ acceptor pool ──▶ admission ──▶ shard pool (round robin)
//                    (N threads,       (tenant        (replicated
//                     frame codec)      registry:      EstimateService
//                                       token bucket   brokers, each with
//                                       + DRR)         its own EDF queue)
//
// Shape:
//  * `acceptors` threads each accept one connection at a time and serve it
//    inline until EOF — the pool size bounds concurrent connections, and
//    connections beyond it wait in the kernel backlog. Each connection
//    speaks the length-prefixed protocol (net/protocol.hpp) and may
//    pipeline up to `max_inflight_per_conn` requests; responses are
//    written back in request order (FIFO per connection).
//  * admission: Hello binds a tenant to an SLO class; every request then
//    passes the tenant's token bucket and — while the chosen shard's EDF
//    queue is near capacity — the DRR fair-share layer (net/tenant.hpp).
//    Refusals are kReject frames carrying retry_after_us, including the
//    broker's own load-shed rejections (the shard's queue-depth-derived
//    hint is forwarded onto the wire).
//  * `shards` replicated EstimateService brokers behind a round-robin
//    counter. All shards share one MetricsRegistry (counters merge by
//    name) and the same master seed. Determinism contract: with one
//    shard, one connection and sequential requests, responses are
//    bit-identical to in-process EstimateService calls with the same
//    (seed, graph, submission order) — the socket adds transport, not
//    arithmetic (tests/net/net_identity_test.cpp pins this).
//
// Observability: the net.* metric family (connections, frames, bytes,
// rejects by reason), TraceSpans under the "net" category, a server-side
// SloLedger keyed by SLO-class name (serve.slo.<class>.* outcome counters
// and latency histograms), and per-tenant cost attribution via
// EstimateRequest.tenant riding the existing CostLedger plumbing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/tenant.hpp"
#include "obs/health/audit.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/source.hpp"

namespace overcount::net {

struct NetServerConfig {
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port().
  unsigned acceptors = 4;  ///< concurrent connections served.
  unsigned shards = 2;     ///< replicated broker shards.
  std::size_t max_inflight_per_conn = 64;  ///< pipelining window.

  /// SLO classes tenants may Hello into; empty = default_slo_classes().
  std::vector<SloClassSpec> classes;
  DrrConfig drr;
  /// DRR bites when the chosen shard's queue depth reaches this fraction
  /// of its capacity.
  double saturation_fraction = 0.75;

  /// Server-side per-class deadline objective (SloLedger keyed by class
  /// name, on top of each shard's own per-(kind,method) ledger).
  SloPolicy slo;

  /// Registry for net.* and every shard's serve.*; null = owned.
  MetricsRegistry* metrics = nullptr;

  /// Template for every shard (seed, cache, budget, clock...). `metrics`
  /// inside is overridden to the shared registry.
  ServiceConfig service;
};

class EstimateNetServer {
 public:
  /// Binds, spawns shards and acceptors. Throws std::runtime_error if the
  /// listener cannot be created.
  EstimateNetServer(GraphSource source, NetServerConfig config = {});
  ~EstimateNetServer();

  EstimateNetServer(const EstimateNetServer&) = delete;
  EstimateNetServer& operator=(const EstimateNetServer&) = delete;

  std::uint16_t port() const { return port_; }
  MetricsRegistry& metrics() noexcept { return *metrics_; }
  const SloLedger& slo() const noexcept { return slo_; }
  TenantRegistry& tenants() noexcept { return tenants_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  EstimateService& shard(std::size_t i) noexcept { return *shards_[i]; }

  /// Microseconds on the admission clock (config.service.now_us, or steady
  /// time since construction).
  std::uint64_t now_us() const;

  /// Stops accepting, drains in-flight requests, stops the shards.
  /// Idempotent; called by the destructor.
  void stop();

 private:
  struct Metrics;  // resolved metric handles (net.* family)
  struct PendingReply {
    std::uint64_t request_id = 0;
    std::future<EstimateResponse> future;
    std::size_t cls = 0;  ///< SLO class index into tenants_.classes().
    std::uint64_t t0_us = 0;
  };

  void accept_loop();
  void handle_connection(int fd);
  /// Returns false when the connection must close.
  bool handle_frame(int fd, const Frame& frame,
                    std::deque<PendingReply>& inflight);
  bool handle_request(int fd, const Frame& frame,
                      std::deque<PendingReply>& inflight);
  /// Blocking: waits for the oldest in-flight future and writes its frame.
  bool write_reply(int fd, PendingReply& pending);
  bool send_reject(int fd, std::uint64_t request_id, RejectReason reason,
                   std::uint64_t retry_after_us, std::string_view cls);
  bool send_frame(int fd, const std::string& frame);

  NetServerConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<Metrics> m_;
  TenantRegistry tenants_;
  SloLedger slo_;
  std::vector<std::unique_ptr<EstimateService>> shards_;
  std::atomic<std::size_t> next_shard_{0};
  std::chrono::steady_clock::time_point epoch_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> acceptors_;
};

}  // namespace overcount::net
