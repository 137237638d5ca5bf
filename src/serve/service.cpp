#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/parallel.hpp"
#include "core/sampling.hpp"
#include "obs/cost/cost.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace overcount {

/// Resolved handles into the serve.* metrics family. Counters:
///   serve.requests            every submit()
///   serve.cache_hits          responses served from the cache
///   serve.cache_misses        lookups that fell through to a batch path
///   serve.coalesced           requests that rode an already-pending batch
///   serve.admission_rejects   load-shed submissions (kRejected)
///   serve.deadline_misses     kDeadlineMiss responses
///   serve.batches             batches actually run
///   serve.refreshes           background refresh batches enqueued
///   serve.refresh_skipped     refresh candidates skipped (pending/full)
///   serve.walks / serve.steps work performed by the batches
///   walk.steps                same steps, in the repo-wide walk.* family
///                             (the cost ledger's reconciliation anchor)
///   serve.cache_invalidations entries evicted by a version bump
///   serve.failures            kFailed responses
/// Gauges: serve.queue_depth, serve.outstanding_steps, serve.cache_entries,
/// serve.churn_per_sec, serve.ttl_us. Histograms:
/// serve.request_latency_us (delivered responses), serve.batch_wall_us,
/// serve.hit_age_us.
struct EstimateService::Metrics {
  Counter& requests;
  Counter& cache_hits;
  Counter& cache_misses;
  Counter& coalesced;
  Counter& admission_rejects;
  Counter& deadline_misses;
  Counter& batches;
  Counter& refreshes;
  Counter& refresh_skipped;
  Counter& walks;
  Counter& steps;
  Counter& walk_steps;
  Counter& invalidations;
  Counter& failures;
  Gauge& queue_depth;
  Gauge& outstanding_steps;
  Gauge& cache_entries;
  Gauge& churn_per_sec;
  Gauge& ttl_us;
  AtomicHistogram& request_latency_us;
  AtomicHistogram& batch_wall_us;
  AtomicHistogram& hit_age_us;

  explicit Metrics(MetricsRegistry& r)
      : requests(r.counter("serve.requests")),
        cache_hits(r.counter("serve.cache_hits")),
        cache_misses(r.counter("serve.cache_misses")),
        coalesced(r.counter("serve.coalesced")),
        admission_rejects(r.counter("serve.admission_rejects")),
        deadline_misses(r.counter("serve.deadline_misses")),
        batches(r.counter("serve.batches")),
        refreshes(r.counter("serve.refreshes")),
        refresh_skipped(r.counter("serve.refresh_skipped")),
        walks(r.counter("serve.walks")),
        steps(r.counter("serve.steps")),
        walk_steps(r.counter("walk.steps")),
        invalidations(r.counter("serve.cache_invalidations")),
        failures(r.counter("serve.failures")),
        queue_depth(r.gauge("serve.queue_depth")),
        outstanding_steps(r.gauge("serve.outstanding_steps")),
        cache_entries(r.gauge("serve.cache_entries")),
        churn_per_sec(r.gauge("serve.churn_per_sec")),
        ttl_us(r.gauge("serve.ttl_us")),
        request_latency_us(r.histogram("serve.request_latency_us")),
        batch_wall_us(r.histogram("serve.batch_wall_us")),
        hit_age_us(r.histogram("serve.hit_age_us")) {}
};

namespace {

bool valid_request(const EstimateRequest& req) {
  if (!(req.epsilon > 0.0) || !(req.delta > 0.0) || req.delta >= 1.0)
    return false;
  // Sample & Collide estimates a size from collision counts; it has no
  // per-node sum to generalise to degree sums.
  if (req.method == EstimateMethod::kSampleCollide &&
      req.kind != QueryKind::kSize)
    return false;
  return true;
}

std::uint64_t version_gap(std::uint64_t a, std::uint64_t b) noexcept {
  return a >= b ? a - b : b - a;
}

}  // namespace

EstimateService::EstimateService(GraphSource source, ServiceConfig config)
    : source_(std::move(source)),
      config_(std::move(config)),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      m_(std::make_unique<Metrics>(*metrics_)),
      slo_(metrics_, nullptr, config_.slo),
      runner_(config_.threads),
      planner_(config_.budget),
      queue_(config_.queue_capacity),
      epoch_(std::chrono::steady_clock::now()),
      cache_(config_.freshness),
      batch_seed_rng_(config_.seed) {
  OVERCOUNT_EXPECTS(source_.snapshot != nullptr);
  OVERCOUNT_EXPECTS(source_.version != nullptr);
  OVERCOUNT_EXPECTS(config_.refresh_at_fraction > 0.0 &&
                    config_.refresh_at_fraction <= 1.0);
  broker_ = std::thread([this] { broker_loop(); });
  if (config_.refresh_period_us > 0)
    refresher_ = std::thread([this] { refresher_loop(); });
}

EstimateService::~EstimateService() { stop(); }

std::uint64_t EstimateService::now_us() const {
  if (config_.now_us) return config_.now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

bool EstimateService::warmed() const noexcept {
  return warmed_.load(std::memory_order_acquire);
}

std::size_t EstimateService::queue_depth() const { return queue_.size(); }

void EstimateService::set_paused(bool paused) { queue_.set_paused(paused); }

EstimateResponse EstimateService::query(const EstimateRequest& request) {
  return submit(request).get();
}

std::uint64_t EstimateService::retry_hint_locked() const {
  // Rough time-to-drain: one smoothed batch wall time per queued batch
  // ahead, plus one for the batch the rejected caller would have become.
  const double per_batch = ewma_batch_us_ > 0.0 ? ewma_batch_us_ : 10'000.0;
  const double hint =
      per_batch * static_cast<double>(queue_.size() + 1);
  return static_cast<std::uint64_t>(std::llround(hint));
}

void EstimateService::release_steps_locked(const BatchPtr& batch) {
  outstanding_steps_ -= std::min(outstanding_steps_, batch->planned_steps);
}

void EstimateService::update_gauges_locked() {
  m_->queue_depth.set(static_cast<double>(queue_.size()));
  m_->outstanding_steps.set(static_cast<double>(outstanding_steps_));
  m_->cache_entries.set(static_cast<double>(cache_.size()));
  m_->churn_per_sec.set(cache_.churn_per_sec());
  m_->ttl_us.set(static_cast<double>(cache_.current_ttl_us()));
}

std::string EstimateService::slo_class(const EstimateRequest& request) {
  std::string cls = to_string(request.kind);
  cls += '.';
  cls += to_string(request.method);
  cls += request.deadline_us != kNoDeadline ? ".deadline" : ".besteffort";
  return cls;
}

std::uint32_t EstimateService::cost_open(const EstimateRequest& request) {
  if (cost_active()) {
    CostLedger* ledger = CostLedger::active();
    if (ledger != nullptr) {
      if (config_.cost_aggregate_contexts) {
        return cost_open_aggregate(request.tenant, request.kind,
                                   request.method, slo_class(request));
      }
      QueryContext qc;
      qc.tenant = request.tenant;
      qc.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
      qc.kind = to_string(request.kind);
      qc.method = to_string(request.method);
      qc.slo_class = slo_class(request);
      return ledger->open(std::move(qc));
    }
  }
  return 0;
}

std::uint32_t EstimateService::cost_open_aggregate(const std::string& tenant,
                                                   QueryKind kind,
                                                   EstimateMethod method,
                                                   const std::string& cls) {
  CostLedger* ledger = CostLedger::active();
  if (ledger == nullptr) return 0;
  // The table is bounded by tenants x classes x shapes regardless of
  // request volume (kind/method ride along for callers like the refresher
  // whose cls does not already encode them).
  std::string key = tenant;
  key += '\x1f';
  key += cls;
  key += '\x1f';
  key += to_string(kind);
  key += to_string(method);
  std::lock_guard<std::mutex> lock(cost_agg_mutex_);
  const auto it = cost_agg_.find(key);
  if (it != cost_agg_.end()) return it->second;
  QueryContext qc;
  qc.tenant = tenant;
  qc.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  qc.kind = to_string(kind);
  qc.method = to_string(method);
  qc.slo_class = cls;
  const std::uint32_t ctx = ledger->open(std::move(qc));
  cost_agg_.emplace(std::move(key), ctx);
  return ctx;
}

SloOutcome slo_outcome(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::kOk: return SloOutcome::kOk;
    case ServeStatus::kRejected: return SloOutcome::kRejected;
    case ServeStatus::kDeadlineMiss: return SloOutcome::kDeadlineMiss;
    case ServeStatus::kFailed: return SloOutcome::kFailed;
  }
  return SloOutcome::kFailed;
}

void EstimateService::resolve(std::promise<EstimateResponse>& promise,
                              const EstimateRequest& request,
                              EstimateResponse resp) {
  slo_.record(slo_class(request), slo_outcome(resp.status), resp.latency_us);
  promise.set_value(std::move(resp));
}

EstimateResponse EstimateService::hit_response(const CacheEntry& entry,
                                               std::uint64_t age_us,
                                               std::uint64_t admitted_us,
                                               bool coalesced) {
  EstimateResponse resp;
  resp.status = ServeStatus::kOk;
  resp.value = entry.value;
  resp.epsilon = entry.epsilon;
  resp.walks = entry.walks;
  resp.graph_version = entry.graph_version;
  resp.cache_hit = true;
  resp.coalesced = coalesced;
  resp.age_us = age_us;
  const std::uint64_t now = now_us();
  resp.latency_us = now >= admitted_us ? now - admitted_us : 0;
  m_->request_latency_us.record(resp.latency_us);
  return resp;
}

std::future<EstimateResponse> EstimateService::submit(
    const EstimateRequest& request) {
  m_->requests.inc();
  std::promise<EstimateResponse> promise;
  std::future<EstimateResponse> future = promise.get_future();
  const std::uint64_t now = now_us();

  if (!valid_request(request)) {
    m_->failures.inc();
    EstimateResponse resp;
    resp.status = ServeStatus::kFailed;
    resolve(promise, request, std::move(resp));
    return future;
  }

  // One ledger context per admitted query: every charge this request
  // causes anywhere below lands on this id.
  const std::uint32_t ctx = cost_open(request);

  std::unique_lock lock(mutex_);
  if (stopping_) {
    m_->admission_rejects.inc();
    cost_charge_ctx(ctx, CostField::kRejected, 1);
    EstimateResponse resp;
    resp.status = ServeStatus::kRejected;
    lock.unlock();
    resolve(promise, request, std::move(resp));
    return future;
  }

  const std::uint64_t version = source_.version();
  cache_.observe_version(version, now);
  const CacheKey key{request.kind, request.method};

  if (request.allow_cached) {
    auto lookup =
        cache_.find(key, request.epsilon, request.delta, version, now);
    if (lookup.outcome == CacheOutcome::kMissStaleVersion)
      m_->invalidations.inc();
    if (lookup.hit()) {
      m_->cache_hits.inc();
      cost_charge_ctx(ctx, CostField::kCacheHits, 1);
      m_->hit_age_us.record(lookup.age_us);
      update_gauges_locked();
      const CacheEntry entry = *lookup.entry;
      const std::uint64_t age = lookup.age_us;
      lock.unlock();
      resolve(promise, request, hit_response(entry, age, now, false));
      return future;
    }
    m_->cache_misses.inc();
    cost_charge_ctx(ctx, CostField::kCacheMisses, 1);
  }

  if (request.deadline_us != kNoDeadline && now >= request.deadline_us) {
    m_->deadline_misses.inc();
    cost_charge_ctx(ctx, CostField::kDeadlineMisses, 1);
    lock.unlock();
    EstimateResponse resp;
    resp.status = ServeStatus::kDeadlineMiss;
    resolve(promise, request, std::move(resp));
    return future;
  }

  const CoalesceKey ckey{request.kind, request.method, request.epsilon,
                         request.delta};
  if (request.allow_cached) {
    auto it = pending_.find(ckey);
    if (it != pending_.end()) {
      // Single-flight: ride the batch that is already queued. Its queue
      // position keeps the FIRST requester's deadline; later riders with
      // tighter deadlines are still deadline-checked at delivery.
      m_->coalesced.inc();
      cost_charge_ctx(ctx, CostField::kCoalesced, 1);
      it->second->waiters.push_back(
          Waiter{std::move(promise), request, now, true, ctx});
      return future;
    }
  }

  // Admission control. The step charge needs a graph profile; before the
  // first batch established one, admission falls back to queue depth only.
  std::uint64_t planned_steps = 0;
  if (profile_.has_value() && profile_->lambda2 > 0.0 &&
      profile_->origin_degree > 0) {
    if (request.method == EstimateMethod::kRandomTour) {
      planned_steps =
          planner_.plan_tours(*profile_, request.epsilon, request.delta)
              .expected_steps;
    } else {
      const double timer =
          config_.sc_timer > 0.0
              ? config_.sc_timer
              : recommended_ctrw_timer(
                    static_cast<double>(std::max<std::size_t>(
                        profile_->nodes, 2)),
                    profile_->lambda2);
      planned_steps = planner_
                          .plan_sc(*profile_, request.epsilon, request.delta,
                                   config_.sc_ell, timer)
                          .expected_steps;
    }
  }
  if (config_.max_outstanding_steps > 0 &&
      outstanding_steps_ + planned_steps > config_.max_outstanding_steps) {
    m_->admission_rejects.inc();
    cost_charge_ctx(ctx, CostField::kRejected, 1);
    EstimateResponse resp;
    resp.status = ServeStatus::kRejected;
    resp.retry_after_us = retry_hint_locked();
    lock.unlock();
    resolve(promise, request, std::move(resp));
    return future;
  }

  auto batch = std::make_shared<PendingBatch>();
  batch->key = key;
  batch->epsilon = request.epsilon;
  batch->delta = request.delta;
  batch->deadline_us = request.deadline_us;
  batch->planned_steps = planned_steps;
  batch->bypass_cache = !request.allow_cached;
  batch->cost_ctx = ctx;
  batch->waiters.push_back(
      Waiter{std::move(promise), request, now, false, ctx});

  const std::uint64_t seq = next_seq_++;
  if (!queue_.try_push(batch, request.deadline_us, seq)) {
    m_->admission_rejects.inc();
    cost_charge_ctx(ctx, CostField::kRejected, 1);
    EstimateResponse resp;
    resp.status = ServeStatus::kRejected;
    resp.retry_after_us = retry_hint_locked();
    lock.unlock();
    resolve(batch->waiters.front().promise, request, std::move(resp));
    return future;
  }
  outstanding_steps_ += planned_steps;
  if (request.allow_cached) pending_[ckey] = batch;
  update_gauges_locked();
  return future;
}

void EstimateService::broker_loop() {
  while (auto item = queue_.pop_earliest()) process_batch(*item);
}

void EstimateService::process_batch(const BatchPtr& batch) {
  {
    // Detach from the single-flight map FIRST: from here on, identical
    // requests start a fresh batch instead of riding one mid-run. After
    // this critical section the batch is unreachable from submit(), so the
    // broker owns its waiters without further locking.
    std::lock_guard lock(mutex_);
    const CoalesceKey ckey{batch->key.kind, batch->key.method, batch->epsilon,
                           batch->delta};
    auto it = pending_.find(ckey);
    if (it != pending_.end() && it->second == batch) pending_.erase(it);
  }
  run_and_deliver(batch);
  {
    std::lock_guard lock(mutex_);
    release_steps_locked(batch);
    update_gauges_locked();
  }
}

void EstimateService::run_and_deliver(const BatchPtr& batch) {
  TraceSpan batch_span("serve", "serve.batch", "waiters",
                       batch->waiters.size());
  const std::uint64_t dispatch_now = now_us();

  // Scrub waiters whose deadline already passed: they get kDeadlineMiss
  // now instead of paying for a batch they can no longer use. Everyone —
  // scrubbed or live — is charged the queue wait they actually sat out.
  {
    std::vector<Waiter> live;
    live.reserve(batch->waiters.size());
    for (auto& w : batch->waiters) {
      cost_charge_ctx(w.cost_ctx, CostField::kQueueWaitUs,
                      dispatch_now >= w.admitted_us
                          ? dispatch_now - w.admitted_us
                          : 0);
      if (w.request.deadline_us != kNoDeadline &&
          dispatch_now >= w.request.deadline_us) {
        m_->deadline_misses.inc();
        cost_charge_ctx(w.cost_ctx, CostField::kDeadlineMisses, 1);
        EstimateResponse resp;
        resp.status = ServeStatus::kDeadlineMiss;
        resp.latency_us = dispatch_now - w.admitted_us;
        resolve(w.promise, w.request, std::move(resp));
      } else {
        live.push_back(std::move(w));
      }
    }
    batch->waiters = std::move(live);
  }
  if (batch->waiters.empty() && !batch->refresh_only) return;

  // A batch that sat in the queue may have been satisfied meanwhile by an
  // earlier batch under the same key: re-check the cache at dispatch.
  // Refresh batches skip this — their purpose is a fresh entry.
  if (!batch->refresh_only && !batch->bypass_cache) {
    const std::uint64_t version = source_.version();  // graph lock only
    std::unique_lock lock(mutex_);
    cache_.observe_version(version, dispatch_now);
    auto lookup = cache_.find(batch->key, batch->epsilon, batch->delta,
                              version, dispatch_now);
    if (lookup.outcome == CacheOutcome::kMissStaleVersion)
      m_->invalidations.inc();
    if (lookup.hit()) {
      const CacheEntry entry = *lookup.entry;
      const std::uint64_t age = lookup.age_us;
      lock.unlock();
      m_->cache_hits.add(batch->waiters.size());
      for (auto& w : batch->waiters) {
        cost_charge_ctx(w.cost_ctx, CostField::kCacheHits, 1);
        m_->hit_age_us.record(age);
        resolve(w.promise, w.request,
                hit_response(entry, age, w.admitted_us, w.coalesced));
      }
      return;
    }
  }

  GraphSnapshot snap;
  {
    TraceSpan span("serve", "serve.snapshot");
    snap = source_.snapshot();
  }

  // Profile the snapshot; the Lanczos gap is re-used while the topology
  // version stayed within reprofile_version_lag of the profiled one.
  double lambda2 = config_.lambda2_hint;
  if (lambda2 <= 0.0) {
    std::lock_guard lock(mutex_);
    if (profile_.has_value() &&
        version_gap(profile_->version, snap.version) <=
            config_.reprofile_version_lag)
      lambda2 = profile_->lambda2;
  }
  GraphProfile profile;
  {
    TraceSpan span("serve", "serve.profile", "version", snap.version);
    profile = profile_graph(snap.graph, snap.origin, snap.version, lambda2,
                            config_.lanczos_iters, config_.seed);
  }
  {
    std::lock_guard lock(mutex_);
    profile_ = profile;
  }

  auto fail_all = [&](const char* why) {
    trace_instant("serve", why);
    for (auto& w : batch->waiters) {
      m_->failures.inc();
      cost_charge_ctx(w.cost_ctx, CostField::kFailures, 1);
      EstimateResponse resp;
      resp.status = ServeStatus::kFailed;
      resp.graph_version = snap.version;
      resp.latency_us = now_us() - w.admitted_us;
      resolve(w.promise, w.request, std::move(resp));
    }
    if (batch->refresh_only && batch->waiters.empty()) m_->failures.inc();
  };

  if (profile.lambda2 <= 0.0 || profile.origin_degree == 0) {
    // Disconnected (or degenerate) snapshot: the error formulas have no
    // finite budget, so the batch cannot promise anything.
    fail_all("serve.unprofilable");
    return;
  }

  BudgetPlan plan;
  double timer = 0.0;
  if (batch->key.method == EstimateMethod::kRandomTour) {
    plan = planner_.plan_tours(profile, batch->epsilon, batch->delta);
  } else {
    timer = config_.sc_timer > 0.0
                ? config_.sc_timer
                : recommended_ctrw_timer(
                      static_cast<double>(
                          std::max<std::size_t>(profile.nodes, 2)),
                      profile.lambda2);
    plan = planner_.plan_sc(profile, batch->epsilon, batch->delta,
                            config_.sc_ell, timer);
  }

  // Dispatch-order seed draw on the (single) broker thread: the i-th batch
  // of a run always gets the i-th seed, so a fixed submission order replays
  // bit-identically.
  const std::uint64_t seed = batch_seed_rng_.next();

  const std::uint64_t t0 = now_us();
  double value = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t steps = 0;
  bool ok = false;
  {
    // The walk kernels charge their steps/walks/cpu to the thread's current
    // context — scope it to this batch's. The cost.ctx span is the
    // attribution boundary the flamegraph folder keys on.
    CostScope cost_scope(batch->cost_ctx);
    TraceSpan cost_span("cost", "cost.ctx", "cost_ctx", batch->cost_ctx);
    TraceSpan span("serve", "serve.walks", "walks", plan.walks);
    if (batch->key.method == EstimateMethod::kRandomTour) {
      TourBatch tours =
          batch->key.kind == QueryKind::kSize
              ? run_tours_size(snap.graph, snap.origin, plan.walks, seed,
                               runner_, config_.max_tour_steps)
              : run_tours(
                    snap.graph, snap.origin, plan.walks,
                    [&g = snap.graph](NodeId v) {
                      return static_cast<double>(g.degree(v));
                    },
                    seed, runner_, config_.max_tour_steps);
      ok = tours.ok();
      value = tours.mean();
      steps = tours.total_steps;
    } else {
      ScBatch trials = run_sc_trials(snap.graph, snap.origin, plan.walks,
                                     timer, config_.sc_ell, seed, runner_);
      ok = trials.ok();
      value = trials.mean_simple();
      steps = trials.total_hops;
    }
  }
  const std::uint64_t t1 = now_us();

  m_->batches.inc();
  cost_charge_ctx(batch->cost_ctx, CostField::kBatches, 1);
  m_->walks.add(plan.walks);
  m_->steps.add(steps);
  // Ledger-independent reconciliation anchor: walk.steps counts actual
  // batch steps from the batch result, so cost.steps (ledger-mirrored)
  // must match it exactly — the zero-residue audit in tests/cost/.
  m_->walk_steps.add(steps);
  m_->batch_wall_us.record(t1 >= t0 ? t1 - t0 : 0);
  if (batch->refresh_only) m_->refreshes.inc();

  if (!ok) {
    fail_all("serve.batch_failed");
    return;
  }

  CacheEntry entry;
  entry.value = value;
  entry.epsilon = plan.epsilon;
  entry.delta = batch->delta;
  entry.walks = plan.walks;
  entry.graph_version = snap.version;
  entry.computed_at_us = t1;
  entry.seed = seed;
  {
    std::lock_guard lock(mutex_);
    cache_.insert(batch->key, entry);
    const double wall = static_cast<double>(t1 >= t0 ? t1 - t0 : 0);
    ewma_batch_us_ =
        ewma_batch_us_ > 0.0 ? 0.8 * ewma_batch_us_ + 0.2 * wall : wall;
  }
  warmed_.store(true, std::memory_order_release);

  // Feed the accuracy auditor AFTER the result is final: it only reads the
  // delivered (value, promise, version) triple, never influences it.
  if (config_.auditor != nullptr)
    config_.auditor->observe(to_string(batch->key.kind),
                             to_string(batch->key.method), value, plan.epsilon,
                             batch->delta, snap.version);

  for (auto& w : batch->waiters) {
    EstimateResponse resp;
    // A result that lands after the deadline is still delivered (the walks
    // are spent either way) but flagged kDeadlineMiss, so ok() is false.
    resp.status = (w.request.deadline_us != kNoDeadline &&
                   t1 > w.request.deadline_us)
                      ? ServeStatus::kDeadlineMiss
                      : ServeStatus::kOk;
    if (resp.status == ServeStatus::kDeadlineMiss) {
      m_->deadline_misses.inc();
      cost_charge_ctx(w.cost_ctx, CostField::kDeadlineMisses, 1);
    }
    resp.value = value;
    resp.epsilon = plan.epsilon;
    resp.walks = plan.walks;
    resp.graph_version = snap.version;
    resp.cache_hit = false;
    resp.coalesced = w.coalesced;
    resp.age_us = 0;
    resp.latency_us = t1 >= w.admitted_us ? t1 - w.admitted_us : 0;
    m_->request_latency_us.record(resp.latency_us);
    resolve(w.promise, w.request, std::move(resp));
  }
}

std::size_t EstimateService::refresh_once() {
  const std::uint64_t now = now_us();
  std::size_t enqueued = 0;
  std::unique_lock lock(mutex_);
  if (stopping_) return 0;
  const std::uint64_t version = source_.version();
  cache_.observe_version(version, now);
  const std::uint64_t ttl = cache_.current_ttl_us();
  const auto threshold = static_cast<std::uint64_t>(
      config_.refresh_at_fraction * static_cast<double>(ttl));

  for (const auto& [key, entry] : cache_.items()) {
    const bool stale = entry.graph_version != version;
    const std::uint64_t age =
        now >= entry.computed_at_us ? now - entry.computed_at_us : 0;
    if (!stale && age < threshold) continue;

    // Skip when any pending batch already covers the key — whatever it
    // computes supersedes this entry anyway.
    bool covered = false;
    for (const auto& [ckey, pending] : pending_) {
      if (pending->key == key) {
        covered = true;
        break;
      }
    }
    if (covered) {
      m_->refresh_skipped.inc();
      continue;
    }

    auto batch = std::make_shared<PendingBatch>();
    batch->key = key;
    batch->epsilon = entry.epsilon;
    batch->delta = entry.delta;
    batch->refresh_only = true;
    if (cost_active()) {
      // Refresh walks have no requesting tenant; they bill to a system
      // context so the ledger still reconciles to zero residue.
      CostLedger* ledger = CostLedger::active();
      if (ledger != nullptr) {
        if (config_.cost_aggregate_contexts) {
          batch->cost_ctx = cost_open_aggregate("(refresh)", key.kind,
                                                key.method, "refresh");
        } else {
          QueryContext qc;
          qc.tenant = "(refresh)";
          qc.query_id =
              next_query_id_.fetch_add(1, std::memory_order_relaxed);
          qc.kind = to_string(key.kind);
          qc.method = to_string(key.method);
          qc.slo_class = "refresh";
          batch->cost_ctx = ledger->open(std::move(qc));
        }
      }
    }
    const std::uint64_t seq = next_seq_++;
    if (!queue_.try_push(batch, kNoDeadline, seq)) {
      m_->refresh_skipped.inc();
      continue;
    }
    pending_[CoalesceKey{key.kind, key.method, entry.epsilon, entry.delta}] =
        batch;
    ++enqueued;
  }
  update_gauges_locked();
  return enqueued;
}

void EstimateService::refresher_loop() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    refresher_cv_.wait_for(
        lock, std::chrono::microseconds(config_.refresh_period_us),
        [&] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    refresh_once();
    lock.lock();
  }
}

void EstimateService::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  refresher_cv_.notify_all();
  queue_.close();
  if (refresher_.joinable()) refresher_.join();
  if (broker_.joinable()) broker_.join();
  for (auto& batch : queue_.drain()) {
    for (auto& w : batch->waiters) {
      m_->failures.inc();
      cost_charge_ctx(w.cost_ctx, CostField::kFailures, 1);
      EstimateResponse resp;
      resp.status = ServeStatus::kFailed;
      resolve(w.promise, w.request, std::move(resp));
    }
  }
  std::lock_guard lock(mutex_);
  pending_.clear();
  update_gauges_locked();
}

}  // namespace overcount
