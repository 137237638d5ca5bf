// Walk probe hooks: compile-time-optional instrumentation for the random
// walk estimators (core/random_tour, walk/walkers, core/sample_collide,
// walk/metropolis).
//
// Every instrumented walk function takes a trailing probe parameter that
// defaults to NullProbe. NullProbe has `enabled == false` and every hook
// call in the hot loops is guarded by `if constexpr (probe_enabled_v<P>)`,
// so the default instantiation contains NO probe code at all — not even
// argument evaluation — and the uninstrumented hot path is bit-for-bit the
// pre-probe code (bench_micro's BM_RandomTour vs BM_RandomTourProbed
// quantifies the difference).
//
// Probes observe, they never draw: no hook receives the Rng, so attaching
// any probe leaves every random stream — and therefore every estimate —
// unchanged (the determinism tests in tests/obs/ assert this across thread
// counts).
//
// Hook protocol (all node ids passed as uint64 so obs stays independent of
// the graph layer):
//   walk_begin(origin)      one walk (tour / sampling probe) starts
//   on_visit(node)          the walk moved to `node`
//   on_sojourn(dt)          CTRW virtual time actually spent at a node
//   on_reject()             Metropolis proposal rejected (self-loop)
//   on_collision(gap)       S&C collision, `gap` samples after the previous
//   tour_end(steps, done)   Random Tour finished (done = returned to origin)
//   sample_end(hops)        sampling walk delivered a sample
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace overcount {

/// No-op probe: the default for every instrumented walk.
struct NullProbe {
  static constexpr bool enabled = false;
  void walk_begin(std::uint64_t) noexcept {}
  void on_visit(std::uint64_t) noexcept {}
  void on_sojourn(double) noexcept {}
  void on_reject() noexcept {}
  void on_collision(std::uint64_t) noexcept {}
  void tour_end(std::uint64_t, bool) noexcept {}
  void sample_end(std::uint64_t) noexcept {}
};

template <typename P>
concept WalkProbe = requires(std::remove_cvref_t<P>& p, std::uint64_t n,
                             double t, bool b) {
  { std::remove_cvref_t<P>::enabled } -> std::convertible_to<bool>;
  p.walk_begin(n);
  p.on_visit(n);
  p.on_sojourn(t);
  p.on_reject();
  p.on_collision(n);
  p.tour_end(n, b);
  p.sample_end(n);
};

/// True when hooks of P should be compiled in (guards every call site).
template <typename P>
inline constexpr bool probe_enabled_v = std::remove_cvref_t<P>::enabled;

/// Plain per-task walk statistics: what one WalkStatsProbe accumulates.
/// Mergeable, so a parallel batch folds one WalkStats per task into a batch
/// total in task-index order (doubles go through the runner's tree
/// reduction — see core/parallel.hpp).
struct WalkStats {
  Log2Histogram tour_steps;      ///< per-tour step counts
  Log2Histogram sample_hops;     ///< per-sample hop counts
  Log2Histogram collision_gaps;  ///< samples between successive collisions

  std::uint64_t walks = 0;            ///< walk_begin events
  std::uint64_t visits = 0;           ///< nodes visited (incl. origin)
  std::uint64_t revisits = 0;         ///< visits to a node already seen
                                      ///< within the same walk
  std::uint64_t rejects = 0;          ///< Metropolis rejections
  std::uint64_t tours = 0;            ///< finished tours
  std::uint64_t completed_tours = 0;  ///< tours that returned to the origin
  std::uint64_t truncated_tours = 0;  ///< tours aborted by max_steps
  std::uint64_t samples = 0;          ///< delivered samples
  std::uint64_t collisions = 0;       ///< S&C collisions observed
  double sojourn_time = 0.0;          ///< CTRW virtual time spent, summed

  /// Merges every integer field and histogram, but NOT sojourn_time: the
  /// floating-point fold is the caller's job (deterministic tree reduction
  /// for parallel batches, plain += for serial accumulation).
  void merge_counts(const WalkStats& other) noexcept {
    tour_steps.merge(other.tour_steps);
    sample_hops.merge(other.sample_hops);
    collision_gaps.merge(other.collision_gaps);
    walks += other.walks;
    visits += other.visits;
    revisits += other.revisits;
    rejects += other.rejects;
    tours += other.tours;
    completed_tours += other.completed_tours;
    truncated_tours += other.truncated_tours;
    samples += other.samples;
    collisions += other.collisions;
  }

  /// Full serial merge (counts plus sojourn time, left-to-right).
  void merge(const WalkStats& other) noexcept {
    merge_counts(other);
    sojourn_time += other.sojourn_time;
  }
};

/// Probe that accumulates into a caller-owned WalkStats. Single-threaded by
/// design: parallel batches give each walk its own probe and fold the
/// results deterministically afterwards. The revisit set lives only while a
/// walk runs: tour_end and sample_end free it, so a batch holding one probe
/// per walk keeps sets only for the walks in flight, and a probe reused
/// across walks never clears a bucket array sized for its longest walk.
class alignas(64) WalkStatsProbe {
 public:
  static constexpr bool enabled = true;

  explicit WalkStatsProbe(WalkStats& out) : out_(&out) {}

  void walk_begin(std::uint64_t origin) {
    seen_.clear();
    seen_.insert(origin);
    ++out_->walks;
    ++out_->visits;
  }
  void on_visit(std::uint64_t node) {
    ++out_->visits;
    if (!seen_.insert(node).second) ++out_->revisits;
  }
  void on_sojourn(double dt) { out_->sojourn_time += dt; }
  void on_reject() { ++out_->rejects; }
  void on_collision(std::uint64_t gap) {
    ++out_->collisions;
    out_->collision_gaps.record(gap);
  }
  void tour_end(std::uint64_t steps, bool completed) {
    ++out_->tours;
    if (completed)
      ++out_->completed_tours;
    else
      ++out_->truncated_tours;
    out_->tour_steps.record(steps);
    std::unordered_set<std::uint64_t>().swap(seen_);  // frees the buckets
  }
  void sample_end(std::uint64_t hops) {
    ++out_->samples;
    out_->sample_hops.record(hops);
    std::unordered_set<std::uint64_t>().swap(seen_);  // frees the buckets
  }

 private:
  WalkStats* out_;
  std::unordered_set<std::uint64_t> seen_;
};

/// Probe that streams into a shared MetricsRegistry (live monitoring:
/// examples/overlay_monitor, DES-driven protocols). Metric references are
/// resolved once at construction; increments are the registry's lock-free
/// hot path. Revisit tracking is per-probe, so use one probe per logical
/// walker.
class RegistryProbe {
 public:
  static constexpr bool enabled = true;

  explicit RegistryProbe(MetricsRegistry& registry,
                         const std::string& prefix = "walk")
      : walks_(registry.counter(prefix + ".walks")),
        visits_(registry.counter(prefix + ".visits")),
        revisits_(registry.counter(prefix + ".revisits")),
        rejects_(registry.counter(prefix + ".rejects")),
        tours_(registry.counter(prefix + ".tours")),
        truncated_(registry.counter(prefix + ".tours_truncated")),
        samples_(registry.counter(prefix + ".samples")),
        collisions_(registry.counter(prefix + ".collisions")),
        sojourn_(registry.gauge(prefix + ".sojourn_time")),
        tour_steps_(registry.histogram(prefix + ".tour_steps")),
        sample_hops_(registry.histogram(prefix + ".sample_hops")),
        collision_gaps_(registry.histogram(prefix + ".collision_gaps")) {}

  void walk_begin(std::uint64_t origin) {
    seen_.clear();
    seen_.insert(origin);
    walks_.inc();
    visits_.inc();
  }
  void on_visit(std::uint64_t node) {
    visits_.inc();
    if (!seen_.insert(node).second) revisits_.inc();
  }
  void on_sojourn(double dt) { sojourn_.add(dt); }
  void on_reject() { rejects_.inc(); }
  void on_collision(std::uint64_t gap) {
    collisions_.inc();
    collision_gaps_.record(gap);
  }
  void tour_end(std::uint64_t steps, bool completed) {
    tours_.inc();
    if (!completed) truncated_.inc();
    tour_steps_.record(steps);
  }
  void sample_end(std::uint64_t hops) {
    samples_.inc();
    sample_hops_.record(hops);
  }

 private:
  Counter& walks_;
  Counter& visits_;
  Counter& revisits_;
  Counter& rejects_;
  Counter& tours_;
  Counter& truncated_;
  Counter& samples_;
  Counter& collisions_;
  Gauge& sojourn_;
  AtomicHistogram& tour_steps_;
  AtomicHistogram& sample_hops_;
  AtomicHistogram& collision_gaps_;
  std::unordered_set<std::uint64_t> seen_;
};

static_assert(WalkProbe<NullProbe>);
static_assert(WalkProbe<WalkStatsProbe>);
static_assert(WalkProbe<RegistryProbe>);

}  // namespace overcount
