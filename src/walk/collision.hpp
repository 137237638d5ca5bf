// Collision bookkeeping of a Sample & Collide trial (paper Section 4): the
// samples drawn so far, how many of them repeated an earlier one, and the
// collision event both trial runners emit — the interleaved sc_kernel
// (walk/kernel.hpp) and the sharded engine (shard/engine.hpp). The estimator
// math on top of the raw (C_ell, hops) statistic lives in
// core/sample_collide.hpp; this header stays below core in the layering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "graph/graph.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace overcount {

/// Collision bookkeeping over a stream of node samples. Every sample whose
/// id has been seen before counts as one collision (so a third occurrence of
/// the same id is a second collision).
class CollisionTracker {
 public:
  /// Feeds one sample; returns true when it collided with an earlier one.
  bool feed(NodeId sample) {
    ++samples_;
    const bool collided = !seen_.insert(sample).second;
    if (collided) ++collisions_;
    return collided;
  }

  std::uint64_t samples() const noexcept { return samples_; }
  std::uint64_t collisions() const noexcept { return collisions_; }
  std::uint64_t distinct() const noexcept { return samples_ - collisions_; }
  void reset() {
    seen_.clear();
    samples_ = 0;
    collisions_ = 0;
  }

 private:
  std::unordered_set<NodeId> seen_;
  std::uint64_t samples_ = 0;
  std::uint64_t collisions_ = 0;
};

/// Raw outcome of one Sample & Collide trial: the sufficient statistic
/// C_ell plus the message bill.
struct ScTrialRaw {
  std::uint64_t samples = 0;  ///< C_ell: samples drawn until ell collisions
  std::uint64_t hops = 0;     ///< total CTRW hops across those samples
};

/// One trial in flight: its tracker, its hop bill, and the sample index of
/// its last collision.
struct ScTrial {
  CollisionTracker tracker;
  std::uint64_t hops = 0;
  std::uint64_t prev_collision_at = 0;

  void reset() {
    tracker.reset();
    hops = 0;
    prev_collision_at = 0;
  }

  /// Feeds the sample a walk of `walk_hops` hops delivered. A collision is
  /// reported with its gap — the samples since the previous collision — to
  /// the probe's on_collision and as an sc.collision trace instant.
  template <WalkProbe P>
  void feed(NodeId sample, std::uint64_t walk_hops, P& probe) {
    hops += walk_hops;
    if (!tracker.feed(sample)) return;
    const std::uint64_t gap = tracker.samples() - prev_collision_at;
    if constexpr (probe_enabled_v<P>) probe.on_collision(gap);
    trace_instant("walk", "sc.collision", "gap", gap);
    prev_collision_at = tracker.samples();
  }

  bool done(std::size_t ell) const noexcept {
    return tracker.collisions() >= ell;
  }
  ScTrialRaw raw() const noexcept { return {tracker.samples(), hops}; }
};

}  // namespace overcount
