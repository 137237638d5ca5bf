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
// with the next walk. Lanes claim walks from a cursor, one atomic counter
// that hands out each walk index once, in increasing order: the batch layer
// (core/parallel.hpp) runs one drive_lanes call per worker over one shared cursor, so
// a lane that finishes refills from the whole batch and a long heavy-tailed
// walk never leaves the other lanes of its worker idle.
// Each kernel supplies only its lane state, a start and the two halves of
// its step — the walk steps of walk/step.hpp, drawn through StreamDraws
// from the lane's own copy of the walk's stream. Each lane alternates two
// phases per step, giving every potentially-missing load a full rotation
// (W-1 other lane turns) between prefetch and use:
//
//   read phase     at = *ptr            adjacency element, prefetched one
//                                       rotation ago when ptr was drawn
//                  arrive(at)           tour_arrive / ctrw_arrive
//                  prefetch offsets[at] via kernel_prefetch / G::prefetch
//   process phase  step                 tour_step / ctrw_hop: neighbors(at),
//                                       offsets now (likely) cached; draw
//                                       ptr = &nbrs[k]; __builtin_prefetch
//
// Streams are read-only here: a lane copies streams[w] when it claims walk
// w and draws from that copy. Drawing in place would write the packed
// stream vector on every step, and walks run by different threads share
// its cache lines (false sharing; EXPERIMENTS.md, "Shared walk cursor").
//
// Determinism contract: walk w draws ONLY from a copy of streams[w], in
// exactly the order the scalar code (core/random_tour.hpp random_tour,
// walk/walkers.hpp ctrw_sample, core/sample_collide.hpp
// SampleCollideEstimator) draws, and every floating-point accumulation runs
// in the same per-walk order — so each per-walk result is BIT-IDENTICAL to
// the scalar path at any width, whichever lane or worker claims the walk,
// and batches built on the kernel are bit-identical at any thread count
// (tests/walk/kernel_equivalence_test.cpp pins this). Probes are per-walk:
// walk w only ever touches probes[w], so per-probe event order matches the
// scalar path too, even though events of different walks interleave in time.
//
// Per-step degree checks compile to OVERCOUNT_HOT_EXPECTS (off in plain
// Release); origin validity is checked unconditionally once per kernel call.
#pragma once

#include <algorithm>
#include <atomic>
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
/// streams/out/probes), its own copy of that walk's stream, the kernel's
/// walk state, and the adjacency element its next read phase loads
/// (nullptr: the next turn is a process phase).
template <typename State>
struct KernelLane {
  std::size_t walk = 0;
  const NodeId* ptr = nullptr;
  std::uint64_t trace_t0 = 0;  ///< span start (only written when tracing)
  Rng rng;
  State state{};
};

/// drive_lanes: runs the walks it claims from `cursor`, the next walk
/// index to hand out (all of them, through a cursor of its own, when
/// `cursor` is null), from `origin` at most `width` at a time, round-robin,
/// one phase per turn, after checking the kernel call's boundary contract
/// (one stream and, for an enabled probe type, one probe per walk; a
/// walkable origin). The kernel supplies
///   start(lane)        begin walk lane.walk (its first turn processes)
///   arrive(lane, at)   read phase: the walk moved to `at`
///   step(lane)         process phase: set lane.ptr to the drawn element,
///                      or leave it null to process again at once
/// where arrive and step return true once the walk is finished and its
/// result written. A finished lane claims the next walk, or is retired when
/// none is left.
template <typename State, OverlayTopology G, WalkProbe P, typename Start,
          typename Arrive, typename Step>
void drive_lanes(const G& g, NodeId origin, std::span<const Rng> streams,
                 std::size_t count, std::size_t width, std::span<P> probes,
                 std::atomic<std::size_t>* cursor, Start&& start,
                 Arrive&& arrive, Step&& step) {
  OVERCOUNT_EXPECTS(streams.size() == count);
  OVERCOUNT_EXPECTS(width >= 1);
  if constexpr (probe_enabled_v<P>) OVERCOUNT_EXPECTS(probes.size() == count);
  if (count == 0) return;
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);
  using Lane = KernelLane<State>;
  std::atomic<std::size_t> own{0};
  std::atomic<std::size_t>& next = cursor != nullptr ? *cursor : own;
  auto claim = [&](Lane& lane) {
    lane.walk = next.fetch_add(1, std::memory_order_relaxed);
    if (lane.walk >= count) return false;
    lane.ptr = nullptr;
    lane.rng = streams[lane.walk];
    start(lane);
    return true;
  };
  std::vector<Lane> lanes(std::min(width, count));
  std::size_t filled = 0;
  while (filled < lanes.size() && claim(lanes[filled])) ++filled;
  lanes.resize(filled);

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
    if (!claim(lane)) {
      lanes[li] = std::move(lanes.back());
      lanes.pop_back();
    }
    // the refilled (or swapped-in) lane takes this turn next
  }
}

/// Interleaved Random Tours: walk w of `out.size()` runs from `origin` on
/// `streams[w]`, estimating sum_j f(j), bit-identical to
/// `random_tour(g, origin, f, streams[w], max_steps, probes[w])`. At most
/// `width` walks are in flight per call. Called alone (`cursor` null) it runs
/// every walk; the batch layer (core/parallel.hpp) instead calls it once per
/// worker, all calls sharing one cursor over the batch. When P is an enabled
/// probe type, `probes` must have one probe per walk (probes[w] observes
/// walk w only).
template <OverlayTopology G, typename F, WalkProbe P = NullProbe>
void tour_kernel(const G& g, NodeId origin, F&& f,
                 std::span<const Rng> streams, std::span<TourEstimate> out,
                 std::size_t width, std::uint64_t max_steps = ~0ULL,
                 std::span<P> probes = {},
                 std::atomic<std::size_t>* cursor = nullptr) {
  // Tracing is checked ONCE per kernel call: lane lifecycle spans cost two
  // clock reads per WALK when a recorder is installed, and a dead branch
  // otherwise. No trace call touches any stream, so traced batches stay
  // bit-identical (obs/trace.hpp).
  const bool tracing = trace_active();
  drive_lanes<TourWalk>(
      g, origin, streams, out.size(), width, probes, cursor,
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
        StreamDraws draws(lane.rng);
        lane.ptr = tour_step(g, f, lane.state, draws);
        return false;
      });
}

/// Interleaved CTRW sampling walks: walk w runs from `origin` with horizon
/// `timer` on `streams[w]`, bit-identical to
/// `ctrw_sample(g, origin, timer, streams[w], probes[w])`. `cursor` as for
/// tour_kernel.
template <OverlayTopology G, WalkProbe P = NullProbe>
void ctrw_kernel(const G& g, NodeId origin, double timer,
                 std::span<const Rng> streams, std::span<SampleResult> out,
                 std::size_t width, std::span<P> probes = {},
                 std::atomic<std::size_t>* cursor = nullptr) {
  OVERCOUNT_EXPECTS(timer > 0.0);

  // One active-recorder check per kernel call; spans are per WALK, never per
  // step, and touch no stream (see tour_kernel).
  const bool tracing = trace_active();
  drive_lanes<CtrwWalk>(
      g, origin, streams, out.size(), width, probes, cursor,
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
        StreamDraws draws(lane.rng);
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
/// within the SAME trial counts one collision. `cursor` as for tour_kernel.
template <OverlayTopology G, WalkProbe P = NullProbe>
void sc_kernel(const G& g, NodeId origin, double timer, std::size_t ell,
               std::span<const Rng> streams, std::span<ScTrialRaw> out,
               std::size_t width, std::span<P> probes = {},
               std::atomic<std::size_t>* cursor = nullptr) {
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
      g, origin, streams, out.size(), width, probes, cursor,
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
        StreamDraws draws(lane.rng);
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
