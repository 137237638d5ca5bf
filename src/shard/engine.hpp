// ShardedWalkEngine: the paper's estimators (Random Tour, CTRW sampling,
// Sample & Collide) executed by message passing between S graph shards
// instead of shared random access to one flat CSR.
//
// Execution model — BSP supersteps over the existing ParallelRunner:
// each round dispatches one task per shard; a shard's task advances every
// walk in its inbox over the rows of the nodes it owns until the walk
// retires or steps onto a node another shard owns, and appends the frozen
// walk (a WalkToken) to its own row of the batch's S x S outbox matrix,
// in the cell of the owner. Between the barriers the calling thread builds
// each shard's next inbox from its outbox column in source-shard order (the
// seeds are round 0's inboxes). Tokens sent in round r are processed in
// round r+1, so the loop is deadlock-free at any pool size (a round needs
// no shard to wait on another), no lock is needed (a task writes only its
// own row), and ParallelRunner's batch barrier gives the happens-before
// edge that makes per-walk state (probes, trial trackers, result slots)
// safely migrate between workers.
//
// Bit-identity contract (the repo's correctness pillar, PRs 1-5): the token
// path replays the scalar walk EXACTLY — every draw comes from the walk's
// own carried Rng in scalar order, adjacency rows are verbatim copies
// (shard_graph.hpp), accumulators add in scalar order, probe hooks fire in
// scalar per-walk order, and results land in task-index slots feeding the
// same finalize_sc_trial and detail::finish_* batch epilogues as
// core/parallel.hpp (which also charge the cost ledger). Hence a sharded
// batch is bit-identical to the single-shard batch for ANY (shard count,
// thread count) — proven by tests/shard/shard_equivalence_test.cpp.
//
// Every walk step, stitched or not, is a step of walk/step.hpp: one token
// loop per walk kind, drawing through StitchedDraws (shard/segment.hpp).
//
// Segment stitching (opt-in, enable_stitching): at every visit to a node
// the segment store pools — a boundary node, reached by a handoff, by a
// step inside the shard, or at the end of a previous segment — the engine
// has the store walk a lambda-step segment (shard/segment.hpp) into the
// shard's own segment buffer and replays it instead of drawing edge by
// edge, and checks ownership only at the segment's end,
// completing an L-step tour in ~L/lambda handoffs (Das Sarma et al.). A
// stitched step differs from a token step only in where its draws come
// from: the segment store's per-node streams, not the token's stream, so
// stitched walks are NOT bit-identical to the scalar path — they are
// deterministic for a fixed (plan, stitch seed) at any thread count, and
// preserve the walk law exactly (uniform neighbour choice, Exp(d)
// sojourns), which tests/shard/shard_statistical_test.cpp verifies with
// the chi-square/KS layer. A store is only accepted when its snapshot
// version matches the engine's graph (staleness rule w.r.t.
// DynamicGraph::version()).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "obs/cost/cost.hpp"
#include "obs/health/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_runner.hpp"
#include "shard/segment.hpp"
#include "shard/shard_graph.hpp"
#include "shard/token.hpp"
#include "walk/collision.hpp"
#include "walk/step.hpp"

namespace overcount {

/// Message-passing counters for the engine's most recent batch. Mirrors the
/// shard.* registry metrics so tests and benches can assert on a run
/// without wiring a MetricsRegistry.
struct ShardRunStats {
  std::uint64_t walks = 0;             ///< walks (tours/samples/trials) run
  std::uint64_t rounds = 0;            ///< BSP supersteps executed
  std::uint64_t handoffs = 0;          ///< mid-walk cross-shard migrations
  std::uint64_t reports = 0;           ///< S&C sample reports pushed home
  std::uint64_t stitches = 0;          ///< segments taken and replayed
  std::uint64_t stitch_steps = 0;      ///< walk steps covered by segments
  std::uint64_t tokens_issued = 0;     ///< seeds + handoffs + reports
  std::uint64_t tokens_consumed = 0;   ///< tokens delivered and processed
  std::uint64_t total_steps = 0;       ///< walk steps / hops in the batch
  std::uint64_t max_mailbox_depth = 0; ///< largest single inbox
};

class ShardedWalkEngine {
 public:
  /// The engine walks `g` on `runner`; `metrics`, when given, receives the
  /// shard.* counter/gauge/histogram stream.
  ShardedWalkEngine(const ShardedGraph& g, ParallelRunner& runner,
                    MetricsRegistry* metrics = nullptr)
      : graph_(&g),
        runner_(&runner),
        epoch_(std::chrono::steady_clock::now()) {
    if (metrics != nullptr) {
      steps_m_ = &metrics->counter("walk.steps");
      handoffs_m_ = &metrics->counter("shard.handoffs");
      stitches_m_ = &metrics->counter("shard.stitches");
      stitch_steps_m_ = &metrics->counter("shard.stitch_steps");
      rounds_m_ = &metrics->counter("shard.rounds");
      issued_m_ = &metrics->counter("shard.tokens_issued");
      consumed_m_ = &metrics->counter("shard.tokens_consumed");
      in_flight_m_ = &metrics->gauge("shard.tokens_in_flight");
      depth_m_ = &metrics->histogram("shard.mailbox_depth");
      latency_m_ = &metrics->histogram("shard.handoff_latency_us");
    }
    // Fault-injection hook for the watchdog/flight-recorder drills (CI
    // health-smoke, EXPERIMENTS walkthrough): sleep this long per superstep
    // so a stall detector has something real to catch. Never touches the
    // walks themselves — estimates stay bit-identical under injection.
    if (const char* delay = std::getenv("OVERCOUNT_INJECT_SUPERSTEP_DELAY_US");
        delay != nullptr)
      inject_delay_us_ = std::strtoull(delay, nullptr, 10);
  }

  ShardedWalkEngine(const ShardedWalkEngine&) = delete;
  ShardedWalkEngine& operator=(const ShardedWalkEngine&) = delete;

  const ShardedGraph& graph() const noexcept { return *graph_; }

  /// Turns on the stitched fast path. The store must have been built from
  /// a snapshot of the SAME topology version as this engine's graph —
  /// stitching stale segments over a churned DynamicGraph would silently
  /// walk edges that no longer exist.
  void enable_stitching(SegmentStore& store) {
    OVERCOUNT_EXPECTS(store.source_version() == graph_->source_version());
    store_ = &store;
  }
  void disable_stitching() noexcept { store_ = nullptr; }
  bool stitching_enabled() const noexcept { return store_ != nullptr; }

  /// Wires a liveness beacon for the BSP loop: armed while a batch runs,
  /// one beat per superstep. Watch it with Watchdog::watch_heartbeat to
  /// turn a stalled superstep into a HealthEvent (obs/health/watchdog.hpp).
  void set_heartbeat(Heartbeat* hb) noexcept { heartbeat_ = hb; }

  /// Counters of the most recent run_* batch.
  const ShardRunStats& last_run_stats() const noexcept { return stats_; }

  /// m Random Tours from `origin` estimating sum_j f(j); bit-identical to
  /// core/parallel.hpp's run_tours of the same (seed, m) when stitching is
  /// off.
  template <typename F>
  TourBatch run_tours(NodeId origin, std::size_t m, F f, std::uint64_t seed,
                      std::uint64_t max_steps = ~0ULL) {
    std::span<NullProbe> no_probes;
    return run_tours(origin, m, f, seed, max_steps, no_probes);
  }

  /// Probed variant: `probes`, when non-empty, must hold one probe per walk
  /// (probes[i] observes walk i, with scalar per-walk event order).
  template <typename F, WalkProbe P>
  TourBatch run_tours(NodeId origin, std::size_t m, F f, std::uint64_t seed,
                      std::uint64_t max_steps, std::span<P> probes) {
    OVERCOUNT_EXPECTS(graph_->degree(origin) > 0);
    if constexpr (probe_enabled_v<P>)
      OVERCOUNT_EXPECTS(probes.size() == m);
    BatchContext ctx(graph_->num_shards(), "shard.run_tours", "m", m);
    TourBatch batch;
    batch.tours.resize(m);
    auto streams = derive_streams(seed, m);

    const double dd0 = static_cast<double>(graph_->degree(origin));
    // Seed serially on the calling thread: replay the scalar prologue
    // (walk_begin, then the first step through the walk's own stream and
    // its loop-condition check) so every token enters the round loop at the
    // scalar loop top.
    for (std::size_t i = 0; i < m; ++i) {
      P& probe = walk_probe(probes, i);
      if constexpr (probe_enabled_v<P>) probe.walk_begin(origin);
      Rng rng = streams[i];
      StreamDraws draws(rng);
      TourWalk w = TourWalk::at_origin(origin);
      if (tour_arrive(w, *tour_step(*graph_, f, w, draws), origin, max_steps,
                      probe)) {
        batch.tours[i] = w.result(dd0, origin);
        ++ctx.retired;
      } else {
        seed_token(ctx, graph_->owner(w.at),
                   {static_cast<std::uint32_t>(i), WalkKind::kTour, w.at,
                    w.steps, w.counter, rng});
      }
    }

    run_rounds(ctx, m, [&](std::uint32_t s, WalkToken& tk, Cell& cell) {
      // Token invariant: tk.at passed the loop condition and was visited,
      // but not yet accumulated.
      TourWalk w{tk.at, tk.acc, tk.steps};
      StitchedDraws draws(tk.rng);
      P& probe = walk_probe(probes, tk.walk);
      for (;;) {
        take_segment(draws, w.at, cell, tk.flow);
        const bool ended = tour_arrive(w, *tour_step(*graph_, f, w, draws),
                                       origin, max_steps, probe);
        if (!ended && draws.mid_segment()) continue;
        cell.stitch_steps += draws.finish();
        if (ended) {
          trace_flow("shard", "walk.flow", 'f', tk.flow);
          batch.tours[tk.walk] = w.result(dd0, origin);
          ++cell.retired;
          return;
        }
        tk.at = w.at;
        tk.steps = w.steps;
        tk.acc = w.counter;
        if (hand_off(s, tk, cell)) return;
      }
    });

    stamp(batch.stats, m, ctx.timer);
    detail::finish_tour_batch(batch);
    finalize(ctx, batch.stats);
    return batch;
  }

  /// m CTRW samples from `origin`; bit-identical to run_samples of
  /// core/parallel.hpp when stitching is off.
  SampleBatch run_samples(NodeId origin, std::size_t m, double timer_horizon,
                          std::uint64_t seed) {
    std::span<NullProbe> no_probes;
    return run_samples(origin, m, timer_horizon, seed, no_probes);
  }

  template <WalkProbe P>
  SampleBatch run_samples(NodeId origin, std::size_t m, double timer_horizon,
                          std::uint64_t seed, std::span<P> probes) {
    OVERCOUNT_EXPECTS(graph_->degree(origin) > 0);
    OVERCOUNT_EXPECTS(timer_horizon > 0.0);
    if constexpr (probe_enabled_v<P>)
      OVERCOUNT_EXPECTS(probes.size() == m);
    BatchContext ctx(graph_->num_shards(), "shard.run_samples", "m", m);
    SampleBatch batch;
    batch.samples.resize(m);
    seed_at_origin(ctx, WalkKind::kSample, origin, timer_horizon,
                   derive_streams(seed, m), probes);

    run_rounds(ctx, m, [&](std::uint32_t s, WalkToken& tk, Cell& cell) {
      // Token invariant: tk.at visited, its sojourn not yet drawn;
      // tk.acc = remaining timer, tk.steps = hops so far.
      if (advance_ctrw(s, tk, cell, probes)) {
        trace_flow("shard", "walk.flow", 'f', tk.flow);
        batch.samples[tk.walk] = {tk.at, tk.steps};
        ++cell.retired;
      }
    });

    stamp(batch.stats, m, ctx.timer);
    detail::finish_sample_batch(batch);
    finalize(ctx, batch.stats);
    return batch;
  }

  /// `trials` Sample & Collide measurements from `origin`, each stopping at
  /// `ell` collisions; bit-identical to run_sc_trials of core/parallel.hpp
  /// when stitching is off. Each trial's sequential CTRW walks complete via
  /// message passing: a finished walk reports its sample to the trial's
  /// home shard (the origin's owner), which feeds the collision tracker and
  /// launches the next walk on the SAME stream — preserving the scalar draw
  /// order exactly.
  ScBatch run_sc_trials(NodeId origin, std::size_t trials,
                        double timer_horizon, std::size_t ell,
                        std::uint64_t seed) {
    std::span<NullProbe> no_probes;
    return run_sc_trials(origin, trials, timer_horizon, ell, seed, no_probes);
  }

  template <WalkProbe P>
  ScBatch run_sc_trials(NodeId origin, std::size_t trials,
                        double timer_horizon, std::size_t ell,
                        std::uint64_t seed, std::span<P> probes) {
    OVERCOUNT_EXPECTS(graph_->degree(origin) > 0);
    OVERCOUNT_EXPECTS(timer_horizon > 0.0);
    OVERCOUNT_EXPECTS(ell >= 1);
    if constexpr (probe_enabled_v<P>)
      OVERCOUNT_EXPECTS(probes.size() == trials);
    BatchContext ctx(graph_->num_shards(), "shard.run_sc_trials", "trials",
                     trials);
    ScBatch batch;
    batch.trials.resize(trials);

    // Only the home shard's worker touches trial state (all trials share
    // the origin, hence the home), so no synchronization is needed beyond
    // the round barrier.
    std::vector<ScTrial> trial_state(trials);
    const std::uint32_t home = graph_->owner(origin);
    seed_at_origin(ctx, WalkKind::kScWalk, origin, timer_horizon,
                   derive_streams(seed, trials), probes);

    run_rounds(ctx, trials, [&](std::uint32_t s, WalkToken& tk, Cell& cell) {
      for (;;) {
        if (tk.kind == WalkKind::kScReport) {
          // At home: fold the sampled node into the trial, then either
          // finalize or launch the next walk on the reported stream.
          ScTrial& trial = trial_state[tk.walk];
          trial.feed(tk.at, tk.steps, walk_probe(probes, tk.walk));
          if (trial.done(ell)) {
            trace_flow("shard", "walk.flow", 'f', tk.flow);
            batch.trials[tk.walk] =
                detail::finalize_sc_trial(trial.raw(), ell);
            ++cell.retired;
            return;
          }
          if constexpr (probe_enabled_v<P>) probes[tk.walk].walk_begin(origin);
          // The next walk keeps the trial-long flow id and cost context.
          tk.kind = WalkKind::kScWalk;
          tk.at = origin;
          tk.steps = 0;
          tk.acc = timer_horizon;
          continue;  // fall through into the walk phase
        }
        if (!advance_ctrw(s, tk, cell, probes))
          return;  // walk handed off mid-flight
        // Walk died at tk.at: report home. When this worker IS home,
        // process the report inline — same round, same deterministic order.
        tk.kind = WalkKind::kScReport;
        if (s == home) continue;
        ++cell.reports;
        cell.outs[home].push_back(frozen(tk));
        return;
      }
    });

    stamp(batch.stats, trials, ctx.timer);
    detail::finish_sc_batch(batch);
    finalize(ctx, batch.stats);
    return batch;
  }

 private:
  /// Per-shard per-round counters, folded (then reset) by the calling
  /// thread between rounds.
  struct RoundCounts {
    std::uint64_t processed = 0;
    std::uint64_t retired = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t reports = 0;
    std::uint64_t stitches = 0;
    std::uint64_t stitch_steps = 0;
    std::size_t depth = 0;  ///< inbox size at delivery
  };

  /// Shard s's slot of a batch: written only by shard s's task during a
  /// round and by the calling thread between rounds. `outs` is row s of the
  /// outbox matrix (outs[d] holds the tokens bound for shard d). The vectors
  /// keep their capacity across rounds. Cache-line-aligned to keep
  /// neighbouring tasks off each other's lines.
  struct alignas(64) Cell : RoundCounts {
    explicit Cell(std::uint32_t shards) : outs(shards) {}
    std::vector<WalkToken> inbox;
    std::vector<std::vector<WalkToken>> outs;
    WalkSegment segment;  ///< the segment being replayed, when stitching
  };

  /// Wall+CPU stopwatch matching ParallelRunner::dispatch's accounting.
  class BatchTimer {
   public:
    BatchTimer()
        : wall_(std::chrono::steady_clock::now()), cpu_(std::clock()) {}
    void fill(BatchStats& stats) const {
      stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_)
                               .count();
      stats.cpu_seconds =
          static_cast<double>(std::clock() - cpu_) / CLOCKS_PER_SEC;
    }

   private:
    std::chrono::steady_clock::time_point wall_;
    std::clock_t cpu_;
  };

  /// One run_* batch, open for as long as it lives. Attribution boundary:
  /// the whole batch — every step, handoff and token — is charged to the
  /// caller's cost context (obs/cost/), and the enclosing cost.ctx span is
  /// what the flamegraph folder keys on to splice (tenant, query) frames
  /// above the batch.
  struct BatchContext {
    BatchContext(std::uint32_t shards, const char* span, const char* arg,
                 std::size_t walks)
        : cost_ctx(cost_current()),
          cost_span("cost", "cost.ctx", "cost_ctx", cost_ctx),
          batch_span("shard", span, arg, walks),
          flow_base(reserve_flows(walks)),
          cells(shards, Cell(shards)) {}
    std::uint32_t cost_ctx;  ///< cost context the batch is charged to
    TraceSpan cost_span;
    TraceSpan batch_span;
    BatchTimer timer;
    std::uint64_t flow_base;  ///< first flow id of the batch (0 = untraced)
    std::vector<Cell> cells;
    ShardRunStats stats;
    std::size_t retired = 0;  ///< walks finished (incl. during seeding)
  };

  /// Replays a segment at every visit to a pooled node: starts one when
  /// stitching is on, none is being replayed and the store pools `at`. A
  /// replay ends before its token is handed off or retired, so one segment
  /// buffer per shard suffices.
  void take_segment(StitchedDraws& draws, NodeId at, Cell& cell,
                    std::uint64_t flow) {
    if (store_ == nullptr || draws.replaying()) return;
    if (store_->take(at, cell.segment)) {
      ++cell.stitches;
      trace_flow("shard", "walk.stitch", 't', flow, "len",
                 static_cast<std::uint64_t>(cell.segment.nodes.size() - 1));
      draws.replay(cell.segment);
    }
  }

  /// Sends token `tk` to the owner of tk.at when that is not shard `s`;
  /// returns false, doing nothing, when s owns it.
  bool hand_off(std::uint32_t s, const WalkToken& tk, Cell& cell) const {
    const std::uint32_t owner = graph_->owner(tk.at);
    if (owner == s) return false;
    ++cell.handoffs;
    cell.outs[owner].push_back(frozen(tk));
    return true;
  }

  /// Advances a CTRW token (kSample or kScWalk) until the timer dies or
  /// the walk leaves shard `s`: walk/step.hpp's CTRW hop, so the same draw
  /// order and probe hook order as walk/walkers.hpp's ctrw_sample. Returns
  /// true when the timer died: tk.at is then the sample, tk.steps its hops
  /// and tk.rng the stream to continue on.
  template <WalkProbe P>
  bool advance_ctrw(std::uint32_t s, WalkToken& tk, Cell& cell,
                    std::span<P> probes) {
    CtrwWalk w{tk.at, tk.acc, tk.steps};
    StitchedDraws draws(tk.rng);
    P& probe = walk_probe(probes, tk.walk);
    for (;;) {
      take_segment(draws, w.at, cell, tk.flow);
      const NodeId* next = ctrw_hop(*graph_, w, draws, probe);
      if (next != nullptr) {
        ctrw_arrive(w, *next, probe);
        if (draws.mid_segment()) continue;
      }
      cell.stitch_steps += draws.finish();
      tk.at = w.at;
      tk.steps = w.hops;
      tk.acc = w.remaining;
      if (next == nullptr) return true;
      if (hand_off(s, tk, cell)) return false;
    }
  }

  /// Microseconds since engine construction — the clock both ends of a
  /// handoff share for shard.handoff_latency_us (freeze here, thaw in
  /// run_rounds). Distinct from the trace clock on purpose: latency metrics
  /// must not require a TraceRecorder.
  std::uint64_t engine_now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Reserves a flow-id block for a batch of m walks when a recorder is
  /// listening; 0 (= untraced) otherwise, which folds every flow site out.
  static std::uint64_t reserve_flows(std::size_t m) noexcept {
    return trace_active()
               ? TraceRecorder::reserve_flow_ids(static_cast<std::uint64_t>(m))
               : 0;
  }

  /// Puts a freshly seeded token in `shard`'s round-0 inbox, stamping its
  /// migration metadata and opening its causal chain ('s' flow event on the
  /// calling thread, inside the batch span). The cost context rides the
  /// token so the thawing shard charges every delivery to the (tenant,
  /// query) that seeded the walk.
  void seed_token(BatchContext& ctx, std::uint32_t shard,
                  WalkToken t) const {
    if (ctx.flow_base != 0) {
      t.flow = ctx.flow_base + t.walk;
      trace_flow("shard", "walk.flow", 's', t.flow, "walk", t.walk);
    }
    t.ctx = ctx.cost_ctx;
    ++ctx.stats.tokens_issued;
    ctx.cells[shard].inbox.push_back(frozen(t));
  }

  /// Stamps the freeze time of a migrating token, which feeds the latency
  /// histogram at the destination; the walk's flow id and cost context
  /// ride along in the token. Touches no walk state and no Rng.
  WalkToken frozen(WalkToken t) const noexcept {
    if (latency_m_ != nullptr) t.frozen_us = engine_now_us();
    return t;
  }

  /// Seeds every walk of a CTRW batch as a token AT the origin, walk_begin
  /// emitted and no draw yet: a CTRW walk starts with the sojourn draw at
  /// the origin.
  template <WalkProbe P>
  void seed_at_origin(BatchContext& ctx, WalkKind kind, NodeId origin,
                      double timer, const std::vector<Rng>& streams,
                      std::span<P> probes) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if constexpr (probe_enabled_v<P>) probes[i].walk_begin(origin);
      seed_token(ctx, graph_->owner(origin),
                 {static_cast<std::uint32_t>(i), kind, origin, 0, timer,
                  streams[i]});
    }
  }

  /// Builds every shard's inbox from its outbox column, in source-shard
  /// order, and records its depth. Runs on the calling thread between the
  /// round barriers, so a token sent in round r is processed in round r+1
  /// no matter how the pool schedules the shard tasks. Delivering inside the
  /// tasks instead would let a token sent early in round r be picked up
  /// late in the same round — the rounds counter, and with stitching the
  /// per-node segment take() order, would then depend on thread timing.
  static void deliver(BatchContext& ctx) {
    for (std::size_t d = 0; d < ctx.cells.size(); ++d) {
      std::vector<WalkToken>& inbox = ctx.cells[d].inbox;
      for (Cell& from : ctx.cells) {
        inbox.insert(inbox.end(), from.outs[d].begin(), from.outs[d].end());
        from.outs[d].clear();
      }
      ctx.cells[d].depth = inbox.size();
    }
  }

  /// Runs BSP supersteps until every walk retired. `process(s, token,
  /// cell)` advances one token inside shard s, appending any outgoing
  /// tokens to cell.outs[destination].
  template <typename Process>
  void run_rounds(BatchContext& ctx, std::size_t total, Process&& process) {
    const std::uint32_t shards = graph_->num_shards();
    // Liveness beacon: armed for the batch, one beat per superstep. The
    // guard disarms even when fold_round throws on a token leak — a stall
    // alarm must not outlive the batch that caused it.
    struct HeartbeatGuard {
      Heartbeat* hb;
      explicit HeartbeatGuard(Heartbeat* h) : hb(h) {
        if (hb != nullptr) hb->arm();
      }
      ~HeartbeatGuard() {
        if (hb != nullptr) hb->disarm();
      }
    } hb_guard(heartbeat_);
    while (ctx.retired < total) {
      ctx.stats.rounds += 1;
      if (heartbeat_ != nullptr) heartbeat_->beat();
      if (inject_delay_us_ > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(inject_delay_us_));
      TraceSpan round_span("shard", "shard.round", "in_flight",
                           static_cast<std::uint64_t>(total - ctx.retired));
      deliver(ctx);
      runner_->run<char>(shards, [&](std::size_t si) {
        const auto s = static_cast<std::uint32_t>(si);
        Cell& cell = ctx.cells[s];
        for (WalkToken& tk : cell.inbox) {
          ++cell.processed;
          // Every delivered token is billed to the context that seeded its
          // walk — the id rode the token across the handoff, so a shard
          // charges work it does ON BEHALF of a query it never admitted.
          cost_charge_ctx(tk.ctx, CostField::kTokens, 1);
          // Thaw accounting: freeze-to-thaw time of the migration this
          // token just completed (stamped by frozen).
          if (tk.frozen_us != 0 && latency_m_ != nullptr)
            latency_m_->record(engine_now_us() - tk.frozen_us);
          if (tk.flow != 0) {
            // One hop span per delivered token, with the walk's flow id
            // stepping through it — Perfetto chains these across shards.
            TraceSpan hop_span("shard", "walk.hop", "walk", tk.walk);
            trace_flow("shard", "walk.flow", 't', tk.flow);
            process(s, tk, cell);
          } else {
            process(s, tk, cell);
          }
        }
        cell.inbox.clear();
        return char{0};
      });
      fold_round(ctx, total);
    }
  }

  /// Folds (and resets) the per-shard round counters on the calling thread;
  /// runs strictly between round barriers.
  void fold_round(BatchContext& ctx, std::size_t total) {
    std::uint64_t processed = 0;
    for (Cell& cell : ctx.cells) {
      processed += cell.processed;
      ctx.retired += cell.retired;
      ctx.stats.handoffs += cell.handoffs;
      ctx.stats.reports += cell.reports;
      ctx.stats.tokens_issued += cell.handoffs + cell.reports;
      ctx.stats.stitches += cell.stitches;
      ctx.stats.stitch_steps += cell.stitch_steps;
      ctx.stats.max_mailbox_depth =
          std::max(ctx.stats.max_mailbox_depth,
                   static_cast<std::uint64_t>(cell.depth));
      if (depth_m_ != nullptr)
        depth_m_->record(static_cast<std::uint64_t>(cell.depth));
      static_cast<RoundCounts&>(cell) = RoundCounts{};
    }
    ctx.stats.tokens_consumed += processed;
    if (in_flight_m_ != nullptr)
      in_flight_m_->set(static_cast<double>(total - ctx.retired));
    if (processed == 0 && ctx.retired < total)
      throw std::runtime_error(
          "ShardedWalkEngine: a superstep processed no tokens while walks "
          "remain in flight (token leak)");
  }

  /// Fills the batch counters the shared finish_* epilogue charges to the
  /// cost ledger; runs before it.
  void stamp(BatchStats& stats, std::size_t tasks,
             const BatchTimer& timer) const {
    stats.tasks = tasks;
    stats.threads = runner_->thread_count();
    timer.fill(stats);
  }

  /// Publishes the shard counters of a finished batch. The shared epilogue
  /// already charged steps, walks and CPU to the caller's cost context and
  /// the tokens were charged one by one at thaw; this adds the shard-only
  /// fields, to the context captured at entry.
  void finalize(BatchContext& ctx, const BatchStats& stats) {
    ctx.stats.walks = stats.tasks;
    ctx.stats.total_steps = stats.steps;
    stats_ = ctx.stats;
    cost_charge_ctx(ctx.cost_ctx, CostField::kHandoffs, stats_.handoffs);
    cost_charge_ctx(ctx.cost_ctx, CostField::kStitches, stats_.stitches);
    cost_charge_ctx(ctx.cost_ctx, CostField::kStitchSteps,
                    stats_.stitch_steps);
    if (steps_m_ != nullptr) steps_m_->add(stats.steps);
    if (handoffs_m_ != nullptr) {
      handoffs_m_->add(stats_.handoffs);
      stitches_m_->add(stats_.stitches);
      stitch_steps_m_->add(stats_.stitch_steps);
      rounds_m_->add(stats_.rounds);
      issued_m_->add(stats_.tokens_issued);
      consumed_m_->add(stats_.tokens_consumed);
      in_flight_m_->set(0.0);
    }
  }

  const ShardedGraph* graph_;
  ParallelRunner* runner_;
  SegmentStore* store_ = nullptr;
  ShardRunStats stats_;
  const std::chrono::steady_clock::time_point epoch_;
  Heartbeat* heartbeat_ = nullptr;
  std::uint64_t inject_delay_us_ = 0;

  Counter* steps_m_ = nullptr;  ///< walk.steps: batch steps, ledger-independent
  Counter* handoffs_m_ = nullptr;
  Counter* stitches_m_ = nullptr;
  Counter* stitch_steps_m_ = nullptr;
  Counter* rounds_m_ = nullptr;
  Counter* issued_m_ = nullptr;
  Counter* consumed_m_ = nullptr;
  Gauge* in_flight_m_ = nullptr;
  AtomicHistogram* depth_m_ = nullptr;
  AtomicHistogram* latency_m_ = nullptr;
};

}  // namespace overcount
