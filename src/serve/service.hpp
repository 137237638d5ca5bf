// EstimateService: the in-process query broker of the serving subsystem.
//
// Callers submit EstimateRequests (serve/types.hpp) from any number of
// threads and get a std::future<EstimateResponse>. The service:
//
//  * translates each (epsilon, delta) target into a walk budget via the
//    paper's error formulas (serve/budget.hpp);
//  * serves from the freshness-aware cache (serve/cache.hpp) when a stored
//    estimate still satisfies the target at the current topology version;
//  * coalesces concurrent identical misses into ONE batch (single-flight:
//    N callers asking the same (kind, method, epsilon, delta) while a
//    batch is queued all ride that batch — exactly one runs);
//  * admits the rest onto a bounded earliest-deadline-first queue
//    (runtime/deadline_queue.hpp) and load-sheds when it is full or the
//    outstanding-step budget is exceeded: the caller gets kRejected with a
//    retry_after_us hint instead of unbounded queueing;
//  * optionally refreshes cached entries in the background before they
//    expire, so steady-state queries keep hitting the cache under churn.
//
// Threading: submit() is safe from any thread; ONE broker thread pops the
// queue and runs batches on the service's ParallelRunner. Determinism
// contract: with a fixed config.seed, an injected deterministic clock and
// a fixed submission order, every response value is bit-identical across
// runs and across runner thread counts — batch seeds are drawn from one
// master Rng on the broker thread in dispatch order, and the batches
// themselves carry the core/parallel.hpp reproducibility contract. The
// cache stores the exact batch mean, so a cache hit is bit-identical to
// the batch result it came from (tests/serve/service_test.cpp).
//
// Lock ordering: the service mutex may be held while the graph source
// takes the graph lock (submit reads version()), and the broker takes the
// graph lock only while NOT holding the service mutex (snapshot before
// publish) — so service -> graph is the one and only order.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/health/audit.hpp"
#include "obs/metrics.hpp"
#include "runtime/deadline_queue.hpp"
#include "runtime/parallel_runner.hpp"
#include "serve/budget.hpp"
#include "serve/cache.hpp"
#include "serve/source.hpp"
#include "serve/types.hpp"
#include "util/rng.hpp"

namespace overcount {

struct ServiceConfig {
  /// Runner threads for the batches (0 = hardware concurrency).
  unsigned threads = 0;

  /// Bounded broker queue: submissions beyond this depth are load-shed.
  std::size_t queue_capacity = 64;
  /// Admission budget on the SUM of planned walk steps across queued +
  /// running batches; 0 = unlimited. Uses the planner's expected tour cost
  /// E[T] = n d_bar / d_origin, so a saturated service rejects cheap-to-ask
  /// expensive-to-answer queries instead of queueing them.
  std::uint64_t max_outstanding_steps = 0;

  FreshnessPolicy freshness;
  /// Background refresh fires when an entry's age exceeds this fraction of
  /// the churn-scaled TTL (or its version went stale).
  double refresh_at_fraction = 0.8;
  /// Period of the background refresher thread; 0 = no thread (tests call
  /// refresh_once() by hand for determinism).
  std::uint64_t refresh_period_us = 0;

  /// Sample & Collide shape: per-trial accuracy ell, and the CTRW timer
  /// (0 = derive via recommended_ctrw_timer from the snapshot size and the
  /// profiled spectral gap).
  std::size_t sc_ell = 16;
  double sc_timer = 0.0;

  /// Truncation bound for Random Tours (~0 = none).
  std::uint64_t max_tour_steps = ~0ULL;

  BudgetPlanner::Limits budget;

  /// Spectral-gap profiling: a positive hint pins lambda_2 (no Lanczos);
  /// otherwise it is estimated per snapshot and re-used while the topology
  /// version moved by at most reprofile_version_lag since the estimate.
  double lambda2_hint = 0.0;
  std::size_t lanczos_iters = 96;
  std::uint64_t reprofile_version_lag = 0;

  /// Master seed: batch seeds are its Rng stream, drawn in dispatch order.
  std::uint64_t seed = 1;

  /// Injectable microsecond clock for deterministic tests; null = steady
  /// clock since service construction.
  std::function<std::uint64_t()> now_us;

  /// Registry for the serve.* family; null = a registry owned by the
  /// service (reachable via metrics()).
  MetricsRegistry* metrics = nullptr;

  /// Optional accuracy auditor: every landed batch feeds its delivered
  /// (value, epsilon, delta, version) into the (kind, method) stream. The
  /// auditor only READS results — bit-identity is untouched. Null = off.
  EstimateAuditor* auditor = nullptr;

  /// Deadline objective for the per-class SLO ledger (serve.slo.* family;
  /// classes are "<kind>.<method>.<deadline|besteffort>").
  SloPolicy slo;

  /// Cost-ledger context granularity. false (default): one context per
  /// admitted query — full per-query drill-down, but the ledger's context
  /// table holds ~16k entries, so long-running services overflow it and
  /// the overflow bills to the unattributed sink. true: one REUSED context
  /// per (tenant, SLO class) — per-tenant accounting stays exact at any
  /// request volume (million-request soaks), per-query granularity is
  /// given up. Attribution totals reconcile to zero residue either way.
  bool cost_aggregate_contexts = false;
};

/// The SLO-ledger outcome a response with `status` counts as.
SloOutcome slo_outcome(ServeStatus status) noexcept;

class EstimateService {
 public:
  EstimateService(GraphSource source, ServiceConfig config = {});
  ~EstimateService();

  EstimateService(const EstimateService&) = delete;
  EstimateService& operator=(const EstimateService&) = delete;

  /// Admits (or load-sheds) one request. The future is always eventually
  /// fulfilled: cache hits, rejections and expired deadlines resolve
  /// immediately; admitted requests resolve when their batch lands (or the
  /// service stops, which fails them).
  std::future<EstimateResponse> submit(const EstimateRequest& request);

  /// submit + get.
  EstimateResponse query(const EstimateRequest& request);

  /// Pauses / resumes the broker (queued batches wait; submissions are
  /// still admitted). Tests use this to build a known queue state.
  void set_paused(bool paused);

  /// One refresher sweep: enqueues waiter-less refresh batches for cached
  /// entries that went version-stale or aged past refresh_at_fraction of
  /// the TTL. Returns how many batches were enqueued. Skips (and counts
  /// serve.refresh_skipped) when an equivalent batch is already pending or
  /// the queue is full.
  std::size_t refresh_once();

  /// True once at least one batch has completed — the /readyz criterion
  /// ("loaded but not warmed" responds 503 until the first estimate).
  bool warmed() const noexcept;

  std::size_t queue_depth() const;

  /// Bound of the broker queue (the saturation reference for watchdogs
  /// polling queue_depth()).
  std::size_t queue_capacity() const noexcept { return config_.queue_capacity; }

  /// Microseconds on the service clock (config.now_us or steady).
  std::uint64_t now_us() const;

  MetricsRegistry& metrics() noexcept { return *metrics_; }

  /// Per-class deadline SLO ledger; every resolved request is recorded here
  /// (serve.slo.* family in metrics()).
  const SloLedger& slo() const noexcept { return slo_; }

  /// Stops broker + refresher, fails all queued waiters. Idempotent;
  /// called by the destructor. Further submissions are rejected.
  void stop();

 private:
  struct Waiter {
    std::promise<EstimateResponse> promise;
    EstimateRequest request;
    std::uint64_t admitted_us = 0;
    bool coalesced = false;  ///< attached to an already-pending batch
    std::uint32_t cost_ctx = 0;  ///< cost-ledger context (0 = unattributed)
  };

  /// One queued unit of work: a planned batch plus everyone riding it.
  struct PendingBatch {
    CacheKey key;
    double epsilon = 0.0;
    double delta = 0.0;
    std::vector<Waiter> waiters;       ///< empty for refresh batches
    std::uint64_t deadline_us = kNoDeadline;
    std::uint64_t planned_steps = 0;   ///< admission charge (released on land)
    bool refresh_only = false;
    bool bypass_cache = false;         ///< some waiter set allow_cached=false
    /// Cost-ledger context the batch's walks are charged to: the initiating
    /// waiter's context (coalesced riders keep their own for per-request
    /// charges), or a "(refresh)" system context for refresh batches.
    std::uint32_t cost_ctx = 0;
  };
  using BatchPtr = std::shared_ptr<PendingBatch>;

  /// Single-flight identity: requests coalesce only when they ask the same
  /// question to the same accuracy.
  struct CoalesceKey {
    QueryKind kind;
    EstimateMethod method;
    double epsilon;
    double delta;
    friend bool operator<(const CoalesceKey& a,
                          const CoalesceKey& b) noexcept {
      if (a.kind != b.kind) return a.kind < b.kind;
      if (a.method != b.method) return a.method < b.method;
      if (a.epsilon != b.epsilon) return a.epsilon < b.epsilon;
      return a.delta < b.delta;
    }
  };

  struct Metrics;  // resolved metric handles (serve.* family)

  void broker_loop();
  void refresher_loop();
  void process_batch(const BatchPtr& batch);
  void run_and_deliver(const BatchPtr& batch);
  EstimateResponse hit_response(const CacheEntry& entry, std::uint64_t age_us,
                                std::uint64_t admitted_us, bool coalesced);
  /// The one funnel every response leaves through: records the request's
  /// class outcome in the SLO ledger, then fulfils the promise. Never call
  /// set_value directly on a request promise.
  void resolve(std::promise<EstimateResponse>& promise,
               const EstimateRequest& request, EstimateResponse resp);
  static std::string slo_class(const EstimateRequest& request);
  /// Opens a cost-ledger context for an admitted request (0 when no ledger
  /// is installed).
  std::uint32_t cost_open(const EstimateRequest& request);
  /// Aggregated-context lookup (cost_aggregate_contexts): returns the one
  /// reused context for (tenant, slo class), opening it on first sight.
  std::uint32_t cost_open_aggregate(const std::string& tenant,
                                    QueryKind kind, EstimateMethod method,
                                    const std::string& cls);
  std::uint64_t retry_hint_locked() const;
  void release_steps_locked(const BatchPtr& batch);
  void update_gauges_locked();

  GraphSource source_;
  ServiceConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  std::unique_ptr<Metrics> m_;
  SloLedger slo_;
  ParallelRunner runner_;
  BudgetPlanner planner_;
  DeadlineQueue<BatchPtr> queue_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  EstimateCache cache_;                       // guarded by mutex_
  std::map<CoalesceKey, BatchPtr> pending_;   // guarded by mutex_
  std::uint64_t outstanding_steps_ = 0;       // guarded by mutex_
  std::uint64_t next_seq_ = 0;                // guarded by mutex_
  double ewma_batch_us_ = 0.0;                // guarded by mutex_
  std::optional<GraphProfile> profile_;       // broker thread + mutex_
  bool stopping_ = false;                     // guarded by mutex_

  std::atomic<bool> warmed_{false};
  std::atomic<std::uint64_t> next_query_id_{1};  // cost-ledger query ids
  std::mutex cost_agg_mutex_;  // guards cost_agg_ (aggregated contexts)
  std::unordered_map<std::string, std::uint32_t> cost_agg_;
  Rng batch_seed_rng_;  // broker thread only (dispatch-order draws)

  std::condition_variable refresher_cv_;  // waits on mutex_
  std::thread broker_;
  std::thread refresher_;
};

}  // namespace overcount
