// Interleaved multi-walk kernel: the memory-latency answer to the paper's
// step bill.
//
// Every estimator guarantee is bought with walk steps — m Random Tours cost
// m * 2|E|/d_i steps (Section 3.4) and each Sample & Collide sample burns a
// full CTRW timer — and at scale those steps are DRAM-latency-bound pointer
// chasing through the CSR arrays: load offsets[v], load adjacency[offset+k],
// repeat. One walk serialises on that chain; the hardware sits idle waiting
// on memory. Das Sarma et al. (PAPERS.md) break the chain in the distributed
// setting by running many short walks concurrently and stitching them; the
// single-machine analogue implemented here interleaves a width-W band of
// INDEPENDENT walks in one thread, round-robin, so W loads are in flight at
// once instead of one.
//
// One lane driver (drive_lanes) owns the band: the lane vector, the
// round-robin rotation, and retiring a finished walk's lane or refilling it
// with the next walk. Each kernel supplies only its lane state, a start and
// the two halves of its step — the walk steps of walk/step.hpp, drawn from
// the walk's own stream through StreamDraws. Each lane alternates two phases
// per step, giving every potentially-missing load a full rotation (W-1
// other lane turns) between prefetch and use:
//
//   read phase     at = *ptr            adjacency element, prefetched one
//                                       rotation ago when ptr was drawn
//                  arrive(at)           tour_arrive / ctrw_arrive
//                  prefetch offsets[at] via kernel_prefetch / G::prefetch
//   process phase  step                 tour_step / ctrw_hop: neighbors(at),
//                                       offsets now (likely) cached; draw
//                                       ptr = &nbrs[k]; __builtin_prefetch
//
// Determinism contract: lane w draws ONLY from streams[w], in exactly the
// order the scalar code (core/random_tour.hpp random_tour, walk/walkers.hpp
// ctrw_sample, core/sample_collide.hpp SampleCollideEstimator) draws, and
// every floating-point accumulation runs in the same per-walk order — so
// each per-walk result is BIT-IDENTICAL to the scalar path at any width,
// and batches built on the kernel are bit-identical at any thread count
// (tests/walk/kernel_equivalence_test.cpp pins this). Probes are per-walk:
// lane w only ever touches probes[w], so per-probe event order matches the
// scalar path too, even though events of different walks interleave in time.
//
// Per-step degree checks compile to OVERCOUNT_HOT_EXPECTS (off in plain
// Release); origin validity is checked unconditionally once per kernel call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "walk/collision.hpp"
#include "walk/step.hpp"
#include "walk/topology.hpp"
#include "walk/walkers.hpp"

namespace overcount {

/// Interleave width of the batch layer (core/parallel.hpp): enough
/// in-flight loads to cover DRAM latency without spilling the lane state out
/// of registers/L1. The kernels themselves take any width >= 1.
inline constexpr std::size_t kDefaultKernelWidth = 16;

/// Issues a prefetch for the topology state behind degree(v)/neighbors(v)
/// when the graph type offers one (Graph prefetches its CSR offset pair);
/// silently a no-op for topologies without a prefetch hint (DynamicGraph).
template <OverlayTopology G>
inline void kernel_prefetch(const G& g, NodeId v) noexcept {
  if constexpr (requires { g.prefetch(v); }) g.prefetch(v);
}

/// One lane of the band: the walk it runs (an index into the kernel's
/// streams/out/probes), the kernel's walk state, and the adjacency element
/// its next read phase loads (nullptr: the next turn is a process phase).
template <typename State>
struct KernelLane {
  std::size_t walk = 0;
  const NodeId* ptr = nullptr;
  std::uint64_t trace_t0 = 0;  ///< span start (only written when tracing)
  State state{};
};

/// The lane driver: runs walks 0..count-1 from `origin` at most `width` at
/// a time, round-robin, one phase per turn, after checking the kernel
/// call's boundary contract (one stream and, for an enabled probe type, one
/// probe per walk; a walkable origin). The kernel supplies
///   start(lane)        begin walk lane.walk (its first turn processes)
///   arrive(lane, at)   read phase: the walk moved to `at`
///   step(lane)         process phase: set lane.ptr to the drawn element,
///                      or leave it null to process again at once
/// where arrive and step return true once the walk is finished and its
/// result written. A finished lane is refilled with the next walk, or
/// retired when none is left.
template <typename State, OverlayTopology G, WalkProbe P, typename Start,
          typename Arrive, typename Step>
void drive_lanes(const G& g, NodeId origin, std::size_t streams,
                 std::size_t count, std::size_t width, std::span<P> probes,
                 Start&& start, Arrive&& arrive, Step&& step) {
  OVERCOUNT_EXPECTS(streams == count);
  OVERCOUNT_EXPECTS(width >= 1);
  if constexpr (probe_enabled_v<P>) OVERCOUNT_EXPECTS(probes.size() == count);
  if (count == 0) return;
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);
  using Lane = KernelLane<State>;
  std::size_t next_walk = 0;
  auto refill = [&](Lane& lane) {
    lane.walk = next_walk++;
    lane.ptr = nullptr;
    start(lane);
  };
  std::vector<Lane> lanes(std::min(width, count));
  for (Lane& lane : lanes) refill(lane);

  std::size_t li = 0;
  while (!lanes.empty()) {
    if (li >= lanes.size()) li = 0;
    Lane& lane = lanes[li];
    if (lane.ptr != nullptr) {
      const NodeId at = *lane.ptr;
      lane.ptr = nullptr;
      if (!arrive(lane, at)) {
        kernel_prefetch(g, at);
        ++li;
        continue;
      }
    } else if (!step(lane)) {
      if (lane.ptr != nullptr) {
        __builtin_prefetch(lane.ptr);
        ++li;
      }
      continue;
    }
    if (next_walk < count) {
      refill(lane);
    } else {
      lanes[li] = std::move(lanes.back());
      lanes.pop_back();
    }
    // the refilled (or swapped-in) lane takes this turn next
  }
}

/// Interleaved Random Tours: walk w of `out.size()` runs from `origin` on
/// `streams[w]`, estimating sum_j f(j), bit-identical to
/// `random_tour(g, origin, f, streams[w], max_steps, probes[w])`. At most
/// `width` walks are in flight per call; the batch layer (core/parallel.hpp)
/// calls it once per chunk of kDefaultKernelWidth walks, or of one walk for
/// batches smaller than that, with width equal to the chunk size. When P is an enabled probe type, `probes` must have one probe per
/// walk (probes[w] observes walk w only).
template <OverlayTopology G, typename F, WalkProbe P = NullProbe>
void tour_kernel(const G& g, NodeId origin, F&& f, std::span<Rng> streams,
                 std::span<TourEstimate> out, std::size_t width,
                 std::uint64_t max_steps = ~0ULL, std::span<P> probes = {}) {
  // Tracing is checked ONCE per kernel call: lane lifecycle spans cost two
  // clock reads per WALK when a recorder is installed, and a dead branch
  // otherwise. No trace call touches any stream, so traced batches stay
  // bit-identical (obs/trace.hpp).
  const bool tracing = trace_active();
  drive_lanes<TourWalk>(
      g, origin, streams.size(), out.size(), width, probes,
      [&](auto& lane) {
        if (tracing) lane.trace_t0 = trace_now_us();
        if constexpr (probe_enabled_v<P>) probes[lane.walk].walk_begin(origin);
        lane.state = TourWalk::at_origin(origin);
      },
      [&](auto& lane, NodeId at) {
        if (!tour_arrive(lane.state, at, origin, max_steps,
                         walk_probe(probes, lane.walk)))
          return false;
        if (tracing)
          trace_complete("walk", "tour", lane.trace_t0, "steps",
                         lane.state.steps);
        out[lane.walk] =
            lane.state.result(static_cast<double>(g.degree(origin)), origin);
        return true;
      },
      [&](auto& lane) {
        StreamDraws draws(streams[lane.walk]);
        lane.ptr = tour_step(g, f, lane.state, draws);
        return false;
      });
}

/// Interleaved CTRW sampling walks: walk w runs from `origin` with horizon
/// `timer` on `streams[w]`, bit-identical to
/// `ctrw_sample(g, origin, timer, streams[w], probes[w])`.
template <OverlayTopology G, WalkProbe P = NullProbe>
void ctrw_kernel(const G& g, NodeId origin, double timer,
                 std::span<Rng> streams, std::span<SampleResult> out,
                 std::size_t width, std::span<P> probes = {}) {
  OVERCOUNT_EXPECTS(timer > 0.0);

  // One active-recorder check per kernel call; spans are per WALK, never per
  // step, and touch no stream (see tour_kernel).
  const bool tracing = trace_active();
  drive_lanes<CtrwWalk>(
      g, origin, streams.size(), out.size(), width, probes,
      [&](auto& lane) {
        if (tracing) lane.trace_t0 = trace_now_us();
        if constexpr (probe_enabled_v<P>) probes[lane.walk].walk_begin(origin);
        lane.state = {origin, timer, 0};
      },
      [&](auto& lane, NodeId at) {
        ctrw_arrive(lane.state, at, walk_probe(probes, lane.walk));
        return false;
      },
      [&](auto& lane) {
        StreamDraws draws(streams[lane.walk]);
        lane.ptr =
            ctrw_hop(g, lane.state, draws, walk_probe(probes, lane.walk));
        if (lane.ptr != nullptr) return false;
        if (tracing)
          trace_complete("walk", "ctrw_sample", lane.trace_t0, "hops",
                         lane.state.hops);
        out[lane.walk] = {lane.state.at, lane.state.hops};
        return true;
      });
}

/// Interleaved Sample & Collide trials: trial t of `out.size()` runs its
/// whole sample-until-ell-collisions loop on `streams[t]`, CTRW walks
/// back-to-back, with the same draw and probe-event order as
/// `SampleCollideEstimator(g, origin, timer, ell, streams[t]).estimate(
/// probes[t])`. Returns the raw (C_ell, hops) statistic per trial; the batch
/// layer applies the Section 4 estimator math. Collision bookkeeping is
/// walk/collision.hpp's ScTrial: every sample whose node was already seen
/// within the SAME trial counts one collision.
template <OverlayTopology G, WalkProbe P = NullProbe>
void sc_kernel(const G& g, NodeId origin, double timer, std::size_t ell,
               std::span<Rng> streams, std::span<ScTrialRaw> out,
               std::size_t width, std::span<P> probes = {}) {
  OVERCOUNT_EXPECTS(timer > 0.0);
  OVERCOUNT_EXPECTS(ell >= 1);
  struct TrialLane {
    ScTrial trial;  // trial-level state
    CtrwWalk walk;  // current sampling walk
  };

  // One active-recorder check per kernel call; one span per TRIAL plus an
  // instant per collision — never per step (see tour_kernel).
  const bool tracing = trace_active();
  auto start_walk = [&](auto& lane) {
    if constexpr (probe_enabled_v<P>) probes[lane.walk].walk_begin(origin);
    lane.state.walk = {origin, timer, 0};
  };
  drive_lanes<TrialLane>(
      g, origin, streams.size(), out.size(), width, probes,
      [&](auto& lane) {
        if (tracing) lane.trace_t0 = trace_now_us();
        lane.state.trial.reset();
        start_walk(lane);
      },
      [&](auto& lane, NodeId at) {
        ctrw_arrive(lane.state.walk, at, walk_probe(probes, lane.walk));
        return false;
      },
      [&](auto& lane) {
        P& probe = walk_probe(probes, lane.walk);
        StreamDraws draws(streams[lane.walk]);
        lane.ptr = ctrw_hop(g, lane.state.walk, draws, probe);
        if (lane.ptr != nullptr) return false;
        // the timer died at walk.at: one sample delivered
        ScTrial& trial = lane.state.trial;
        trial.feed(lane.state.walk.at, lane.state.walk.hops, probe);
        if (!trial.done(ell)) {
          start_walk(lane);
          return false;
        }
        if (tracing)
          trace_complete("walk", "sc.trial", lane.trace_t0, "samples",
                         trial.tracker.samples());
        out[lane.walk] = trial.raw();
        return true;
      });
}

}  // namespace overcount
