// census and shard_census: in-process estimate batches, no sockets and no
// cache. census drives core/parallel.hpp batches on one ParallelRunner;
// shard_census drives the same Random Tour batches through the
// ShardedWalkEngine at S = 4, alternating direct and stitched runs.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "inputs.hpp"
#include "runtime/parallel_runner.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"
#include "shard/segment.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using overcount::ParallelRunner;
using overcount::ScBatch;
using overcount::TourBatch;

constexpr std::size_t kBalancedNodes = 200'000;
constexpr std::size_t kScaleFreeNodes = 20'000;
constexpr std::size_t kScaleFreeLinks = 3;
// Batches rotate over the eight origins whose degree is closest to a fixed
// value, so the cost and error of a run do not hinge on one node's
// neighbourhood: degree 10 on the balanced graph and 32 on the scale-free
// one (tours of about 2|E|/32 = 3750 steps with a heavy tail).
// shard_census probes from degree 128, because a direct sharded batch needs
// about one BSP round per step of its longest tour.
constexpr std::size_t kOrigins = 8;
constexpr std::size_t kBalancedOriginDegree = 10;
constexpr std::size_t kScaleFreeOriginDegree = 32;
constexpr std::size_t kShardOriginDegree = 128;
constexpr std::size_t kTours = 64;    // Random Tours per batch
constexpr std::size_t kTrials = 16;   // Sample & Collide trials per batch
constexpr std::size_t kEll = 16;      // collisions per trial
constexpr std::uint32_t kShards = 4;
// The sharded engine's BSP rounds end on a barrier, so one preempted worker
// stalls every round: two workers leave two of the 4 cores the benchmark is
// sized for as headroom for outside load.
constexpr unsigned kShardThreads = 2;
// CTRW horizon T = 1.5 ln(n) / lambda for Sample & Collide on the
// scale-free graph, with a fixed lower bound on its spectral gap (about 1.2
// at 20k nodes), so the walk budget is an input, not a measured quantity.
constexpr double kScaleFreeGap = 1.0;

enum class Method { kTour, kSampleCollide };

struct Op {
  int graph;      // 0 = balanced, 1 = scale-free
  Method method;
  bool stitched;  // shard_census only
};

/// The operation mix of one round. census: one balanced-graph tour batch,
/// one scale-free Sample & Collide batch and twenty cheap scale-free tour
/// batches, so the median sits inside one batch kind instead of on the
/// boundary between two, and the p99 inside the slowest kind.
std::vector<Op> census_round() {
  std::vector<Op> round = {{0, Method::kTour, false},
                           {1, Method::kSampleCollide, false}};
  round.insert(round.end(), 20, Op{1, Method::kTour, false});
  return round;
}

/// shard_census: one direct batch and three stitched ones per round, for
/// the same reason.
std::vector<Op> shard_round() {
  std::vector<Op> round = {{1, Method::kTour, false}};
  round.insert(round.end(), 3, Op{1, Method::kTour, true});
  return round;
}

/// The kOrigins nodes whose degree is closest to `degree`, lowest ids first
/// among equals.
std::vector<NodeId> pick_origins(const Graph& g, std::size_t degree) {
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId v = 0; v < nodes.size(); ++v) nodes[v] = v;
  const auto distance = [&](NodeId v) {
    const std::size_t d = g.degree(v);
    return d > degree ? d - degree : degree - d;
  };
  const std::size_t k = std::min(kOrigins, nodes.size());
  std::partial_sort(
      nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(k),
      nodes.end(), [&](NodeId a, NodeId b) {
        return distance(a) != distance(b) ? distance(a) < distance(b) : a < b;
      });
  nodes.resize(k);
  return nodes;
}

struct ShardState {
  std::unique_ptr<overcount::ShardedGraph> graph;
  std::unique_ptr<overcount::ShardedWalkEngine> engine;
  std::unique_ptr<overcount::SegmentStore> store;
};

class Census final : public Workload {
 public:
  Census(const Options& opts, bool sharded)
      : opts_(opts), sharded_(sharded) {}

  void setup() override {
    for (ShardState& s : shards_) s = ShardState{};
    runner_.reset();
    bool used[2] = {false, false};
    for (const Op& op : round()) used[op.graph] = true;
    // Each graph has its own stream, so the inputs do not depend on which
    // graphs a workload uses.
    InputRng rng(opts_.seed);
    InputRng balanced_rng = rng.split();
    InputRng scale_free_rng = rng.split();
    if (used[0]) {
      graphs_[0] = balanced_overlay(scaled(kBalancedNodes), balanced_rng);
      origins_[0] = pick_origins(graphs_[0].graph, kBalancedOriginDegree);
    }
    if (used[1]) {
      graphs_[1] = scale_free_overlay(scaled(kScaleFreeNodes), kScaleFreeLinks,
                                      scale_free_rng);
      origins_[1] = pick_origins(graphs_[1].graph,
                                 sharded_ ? kShardOriginDegree
                                          : kScaleFreeOriginDegree);
      sc_timer_ = 1.5 * std::log(static_cast<double>(graphs_[1].nodes)) /
                  kScaleFreeGap;
    }
    runner_ = std::make_unique<ParallelRunner>(
        sharded_ ? kShardThreads
                 : std::max(1u, std::thread::hardware_concurrency()));
    for (int g = 0; sharded_ && g < 2; ++g) {
      if (!used[g]) continue;
      const Graph& graph = graphs_[g].graph;
      ShardState& s = shards_[g];
      s.graph = std::make_unique<overcount::ShardedGraph>(
          graph, overcount::make_shard_plan(graph, kShards));
      s.engine =
          std::make_unique<overcount::ShardedWalkEngine>(*s.graph, *runner_);
      overcount::StitchConfig stitch;
      stitch.seed = opts_.seed ^ 0x5717c4ULL;
      s.store = std::make_unique<overcount::SegmentStore>(*s.graph, stitch);
    }
    batch_seeds_ = InputRng(opts_.seed ^ 0xba7c4ULL);
    next_origin_[0] = next_origin_[1] = 0;
  }

  Phase measure(double seconds) override {
    layers_ = Layers{};
    Phase phase(seconds);
    phase.step_seconds = seconds;
    walked_ = 0;
    const std::vector<Op> round = this->round();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (std::size_t i = 0; Clock::now() < end; ++i)
      run_op(round[i % round.size()], phase, start);
    return phase;
  }

  void report_layers(Report& r) override {
    const Layers& l = layers_;
    r.set("core.batch_ms.p50", percentile(l.batch_ms, 0.50), "ms");
    r.set("core.batch_ms.p99", percentile(l.batch_ms, 0.99), "ms");
    r.set("runtime.parallel_efficiency",
          l.wall_x_threads > 0 ? l.cpu_s / l.wall_x_threads : 0.0, "ratio");
    r.set("walk.steps_per_cpu_s",
          l.cpu_s > 0 ? static_cast<double>(l.steps) / l.cpu_s : 0.0, "1/s");
    r.set("walk.tour_steps.p50", percentile(l.tour_steps, 0.50), "steps");
    r.set("walk.tour_steps.p99", percentile(l.tour_steps, 0.99), "steps");
    r.set("walk.tour_steps.max",
          l.tour_steps.empty()
              ? 0.0
              : *std::max_element(l.tour_steps.begin(), l.tour_steps.end()),
          "steps");
    // Paper cost model: a tour from origin i costs 2|E|/d_i steps.
    r.set("model.steps_per_tour_ratio",
          l.model_tour_steps > 0 ? l.tour_steps_sum / l.model_tour_steps : 0.0,
          "ratio");
    r.set("model.walks_vs_prop2", 0.0, "ratio");  // batches are fixed-size
    const double steps_per_s =
        l.batch_wall_s > 0 ? static_cast<double>(l.steps) / l.batch_wall_s
                           : 0.0;
    const double predicted_ms =
        steps_per_s > 0 && l.tour_batches > 0
            ? 1e3 * l.model_tour_steps / steps_per_s /
                  static_cast<double>(l.tour_batches)
            : 0.0;
    const double measured_ms =
        l.tour_batches > 0
            ? l.tour_batch_ms / static_cast<double>(l.tour_batches)
            : 0.0;
    r.set("model.pred_miss_ms", predicted_ms, "ms");
    r.set("model.pred_vs_measured",
          measured_ms > 0 ? predicted_ms / measured_ms : 0.0, "ratio");
    if (sharded_) {
      const auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
      };
      r.set("shard.handoffs_per_tour",
            per(l.direct.handoffs, l.direct.walks), "count");
      r.set("shard.rounds_per_batch", per(l.direct.rounds, l.direct.batches),
            "count");
      r.set("shard.stitched.handoffs_per_tour",
            per(l.stitched.handoffs, l.stitched.walks), "count");
      r.set("shard.stitched.rounds_per_batch",
            per(l.stitched.rounds, l.stitched.batches), "count");
      r.set("shard.stitch_share",
            per(l.stitched.stitch_steps, l.stitched.steps), "ratio");
      r.set("shard.max_mailbox_depth", l.max_mailbox_depth, "count");
    }
  }

 private:
  struct ShardTotals {
    double batches = 0, walks = 0, rounds = 0, handoffs = 0, steps = 0,
           stitch_steps = 0;
  };
  struct Layers {
    std::vector<double> batch_ms;
    std::vector<double> tour_steps;
    double cpu_s = 0, wall_x_threads = 0, batch_wall_s = 0;
    std::uint64_t steps = 0;
    double tour_steps_sum = 0, model_tour_steps = 0, tour_batch_ms = 0;
    std::size_t tour_batches = 0;
    ShardTotals direct, stitched;
    double max_mailbox_depth = 0;
  };

  std::vector<Op> round() const {
    return sharded_ ? shard_round() : census_round();
  }

  std::size_t scaled(std::size_t n) const {
    return std::max<std::size_t>(
        64, static_cast<std::size_t>(static_cast<double>(n) * opts_.scale));
  }

  void run_op(const Op& op, Phase& phase, Clock::time_point start) {
    const Overlay& o = graphs_[op.graph];
    const std::vector<NodeId>& origins = origins_[op.graph];
    const NodeId origin = origins[next_origin_[op.graph]++ % origins.size()];
    const std::uint64_t seed = batch_seeds_.next();
    const auto t0 = Clock::now();
    double value = 0.0;
    bool ok = false;
    std::uint64_t steps = 0;
    overcount::BatchStats stats;
    if (op.method == Method::kTour) {
      TourBatch batch;
      if (sharded_) {
        ShardState& s = shards_[op.graph];
        if (op.stitched) s.engine->enable_stitching(*s.store);
        batch = s.engine->run_tours(
            origin, kTours, [](NodeId) { return 1.0; }, seed);
        s.engine->disable_stitching();
        record_shard(s.engine->last_run_stats(), op.stitched);
      } else {
        batch = overcount::run_tours_size(o.graph, origin, kTours, seed,
                                          *runner_);
      }
      ok = batch.ok();
      value = batch.mean();
      steps = batch.total_steps;
      stats = batch.stats;
      for (const auto& t : batch.tours)
        layers_.tour_steps.push_back(static_cast<double>(t.steps));
      layers_.tour_steps_sum += static_cast<double>(batch.total_steps);
      layers_.model_tour_steps +=
          static_cast<double>(kTours) * static_cast<double>(o.degree_sum) /
          static_cast<double>(o.graph.degree(origin));
      ++layers_.tour_batches;
    } else {
      const ScBatch batch =
          overcount::run_sc_trials(o.graph, origin, kTrials, sc_timer_, kEll,
                                   seed, *runner_);
      ok = !batch.trials.empty();
      value = batch.mean_simple();
      steps = batch.total_hops;
      stats = batch.stats;
    }
    const auto t1 = Clock::now();
    record_span(sharded_ ? "bench.shard" : "bench.core",
                sharded_ ? "shard.batch" : "census.batch", t0, t1);

    const double ms = 1e3 * seconds_between(t0, t1);
    ++phase.attempted;
    phase.answer(seconds_between(start, t1), ms);
    if (ok) {
      ++phase.ok;
      ++phase.deadline_hits;  // census batches carry no deadline
    } else {
      ++phase.failed;
    }
    walked_ += static_cast<double>(steps);
    phase.steps.emplace_back(seconds_between(start, t1), walked_);
    Scored s;
    s.group = 4 * op.graph + 2 * op.stitched +
              (op.method == Method::kTour ? 0 : 1);
    s.value = value;
    s.truth = static_cast<double>(o.nodes) * opts_.truth_skew;
    s.other_truth = static_cast<double>(o.degree_sum) * opts_.truth_skew;
    phase.estimates.push_back(s);

    layers_.batch_ms.push_back(ms);
    layers_.cpu_s += stats.cpu_seconds;
    layers_.wall_x_threads +=
        stats.wall_seconds * static_cast<double>(stats.threads);
    layers_.batch_wall_s += stats.wall_seconds;
    layers_.steps += steps;
    if (op.method == Method::kTour) layers_.tour_batch_ms += ms;
  }

  void record_shard(const overcount::ShardRunStats& st, bool stitched) {
    ShardTotals& t = stitched ? layers_.stitched : layers_.direct;
    t.batches += 1;
    t.walks += static_cast<double>(st.walks);
    t.rounds += static_cast<double>(st.rounds);
    t.handoffs += static_cast<double>(st.handoffs);
    t.steps += static_cast<double>(st.total_steps);
    t.stitch_steps += static_cast<double>(st.stitch_steps);
    layers_.max_mailbox_depth = std::max(
        layers_.max_mailbox_depth, static_cast<double>(st.max_mailbox_depth));
  }

  Options opts_;
  bool sharded_;
  Overlay graphs_[2];
  std::vector<NodeId> origins_[2];
  std::size_t next_origin_[2] = {0, 0};
  double sc_timer_ = 0;
  std::unique_ptr<ParallelRunner> runner_;
  ShardState shards_[2];
  InputRng batch_seeds_{0};
  double walked_ = 0;  // steps so far in the current window
  Layers layers_;
};

}  // namespace

std::unique_ptr<Workload> make_census(const Options& opts, bool sharded) {
  return std::make_unique<Census>(opts, sharded);
}

}  // namespace perfbench
