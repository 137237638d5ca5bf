// The walk step, written once. Every estimate is priced in walk steps, and
// outside the scalar references (core/random_tour.hpp random_tour,
// walk/walkers.hpp ctrw_sample) every step is taken here:
//
//   Random Tour step   add f(j)/d_j to the counter, move to a uniform
//                      neighbour (Section 3)
//   CTRW hop           spend an Exp(d_j) sojourn at j; if the timer
//                      survives, move to a uniform neighbour (Section 4.1)
//
// Steps draw through a *draw source* with two calls, in this order:
//   sojourn(d)   the Exp(d) sojourn at the current node (CTRW only)
//   next(row)    a pointer to the chosen element of the current adjacency
//                row — a pointer, so the interleaved kernel can prefetch it
// StreamDraws draws from a walk's own Rng, in the scalar references' order;
// StitchedDraws (shard/segment.hpp) replays a precomputed segment. Sources
// and steps are templates: nothing on the step path is virtual.
//
// Each step is split at the one load that misses: `*_step`/`ctrw_hop` draw
// and return the pointer, `*_arrive` takes the node it points at. The
// interleaved kernel (walk/kernel.hpp) puts a lane rotation between the two;
// the sharded engine and the segment store call them back to back. Probe
// hooks fire in the scalar order: on_sojourn(min(sojourn, remaining)), then
// sample_end when the timer dies, else on_visit on arrival; tour_end when a
// tour returns to its origin or runs out of steps.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

// TourEstimate is a header-only result struct; including it here adds no
// link dependency, so the walk library stays below core.
#include "core/random_tour.hpp"
#include "obs/probe.hpp"
#include "walk/topology.hpp"

namespace overcount {

template <typename D>
concept DrawSource =
    requires(D& d, std::size_t degree, std::span<const NodeId> row) {
      { d.sojourn(degree) } -> std::same_as<double>;
      { d.next(row) } -> std::same_as<const NodeId*>;
    };

/// Draws from one walk's own stream, in the scalar references' order.
class StreamDraws {
 public:
  explicit StreamDraws(Rng& rng) noexcept : rng_(&rng) {}
  double sojourn(std::size_t degree) {
    return rng_->exponential(static_cast<double>(degree));
  }
  const NodeId* next(std::span<const NodeId> row) {
    return row.data() + rng_->uniform_below(row.size());
  }

 private:
  Rng* rng_;
};

/// probes[w] for an enabled probe type; a stateless no-op otherwise, so the
/// span may be empty.
template <WalkProbe P>
P& walk_probe(std::span<P> probes, std::size_t w) noexcept {
  if constexpr (probe_enabled_v<P>) {
    return probes[w];
  } else {
    static P none;
    return none;
  }
}

/// A Random Tour in flight: random_tour's loop variables.
struct TourWalk {
  NodeId at;            ///< current node: visited, not yet accumulated
  double counter;       ///< X, the running sum of f(j)/d_j
  std::uint64_t steps;  ///< steps taken

  /// A tour about to take its first step. The counter starts at -0.0, the
  /// exact additive identity, so it then holds f(origin)/d_origin bit for
  /// bit.
  static TourWalk at_origin(NodeId origin) noexcept {
    return {origin, -0.0, 0};
  }
  TourEstimate result(double d_origin, NodeId origin) const noexcept {
    return {d_origin * counter, steps, at == origin};
  }
};

/// Accumulates f(at)/d_at and draws the tour's next step.
template <OverlayTopology G, typename F, DrawSource D>
const NodeId* tour_step(const G& g, F& f, TourWalk& w, D& draws) {
  const auto row = g.neighbors(w.at);
  OVERCOUNT_HOT_EXPECTS(!row.empty());
  w.counter += f(w.at) / static_cast<double>(row.size());
  ++w.steps;
  return draws.next(row);
}

/// Moves the tour to `at`. Returns true when the tour ends there: back at
/// the origin, or out of steps (then it is truncated).
template <WalkProbe P>
bool tour_arrive(TourWalk& w, NodeId at, NodeId origin,
                 std::uint64_t max_steps, P& probe) {
  w.at = at;
  if (at == origin || w.steps >= max_steps) {
    if constexpr (probe_enabled_v<P>) probe.tour_end(w.steps, at == origin);
    return true;
  }
  if constexpr (probe_enabled_v<P>) probe.on_visit(at);
  return false;
}

/// A CTRW sampling walk in flight: ctrw_sample's loop variables.
struct CtrwWalk {
  NodeId at;           ///< current node: visited, sojourn not yet drawn
  double remaining;    ///< timer left
  std::uint64_t hops;  ///< hops taken
};

/// Spends the sojourn at w.at. Returns nullptr when the timer dies there
/// (w.at is the sample), else the drawn next step.
template <OverlayTopology G, DrawSource D, WalkProbe P>
const NodeId* ctrw_hop(const G& g, CtrwWalk& w, D& draws, P& probe) {
  const auto row = g.neighbors(w.at);
  OVERCOUNT_HOT_EXPECTS(!row.empty());
  const double sojourn = draws.sojourn(row.size());
  if constexpr (probe_enabled_v<P>)
    probe.on_sojourn(std::min(sojourn, w.remaining));
  w.remaining -= sojourn;
  if (w.remaining <= 0.0) {
    if constexpr (probe_enabled_v<P>) probe.sample_end(w.hops);
    return nullptr;
  }
  ++w.hops;
  return draws.next(row);
}

/// Moves the CTRW walk to `at`.
template <WalkProbe P>
void ctrw_arrive(CtrwWalk& w, NodeId at, P& probe) {
  w.at = at;
  if constexpr (probe_enabled_v<P>) probe.on_visit(at);
}

}  // namespace overcount
