// Sharded-walk-engine bench: message cost and throughput of Random Tour
// batches completed by cross-shard token passing, over S in {1, 2, 4, 8}
// shards, direct (edge-per-handoff, bit-identical) vs stitched (segment
// splicing, ~L/lambda handoffs per tour). The headline counter —
// shard.handoffs_per_tour for the stitched S=8 run (lower-is-better in
// baseline diffs) — lands in BENCH_shard.json, and the bench exits non-zero
// when the stitched handoff/step ratio at S=8 exceeds the 0.25 gate.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>

#include "common.hpp"
#include "shard/engine.hpp"
#include "shard/partition.hpp"
#include "shard/segment.hpp"

int main() {
  using namespace overcount;
  using namespace overcount::bench;

  preamble("shard",
           "sharded walk engine: handoffs per tour and throughput, direct "
           "token passing vs segment stitching, S in {1,2,4,8}");
  paper_note(
      "Das Sarma et al. (PAPERS.md): splicing precomputed sub-walks at "
      "shard boundaries completes a length-L walk in ~L/lambda handoffs "
      "instead of one per crossing edge; the tour estimates themselves stay "
      "the paper's Section 3 regenerative-cycle estimator");

  Rng master(master_seed());
  const Graph g = make_balanced(master);
  NodeId origin = 0;
  while (g.degree(origin) == 0) ++origin;
  const std::size_t m = runs(2000);
  const std::uint64_t seed = master_seed() + 17;
  ParallelRunner runner(worker_threads());

  const std::uint32_t shard_counts[] = {1, 2, 4, 8};
  Series direct_handoffs{"direct_handoffs_per_tour", {}, {}};
  Series stitched_handoffs{"stitched_handoffs_per_tour", {}, {}};
  Series stitched_ratio{"stitched_handoff_step_ratio", {}, {}};

  double gate_ratio = 0.0;        // stitched handoffs/steps at the widest S
  double gate_handoffs = 0.0;     // stitched handoffs per tour at widest S
  double direct_steps_s8 = 0.0;   // throughput comparison at S=8
  double stitched_steps_s8 = 0.0;

  TextTable table({"S", "path", "handoffs/tour", "handoffs/steps",
                   "rounds", "Msteps/s"});
  for (const std::uint32_t shards : shard_counts) {
    const ShardPlan plan = make_shard_plan(g, shards);
    const ShardedGraph sharded(g, plan);
    const std::string tag = "shard.s" + std::to_string(shards);
    const auto walks = static_cast<double>(m);

    // Direct: every boundary crossing is one token handoff. This is the
    // bit-identical reference path.
    ShardedWalkEngine engine(sharded, runner);
    const TourBatch direct =
        engine.run_tours(origin, m, [](NodeId) { return 1.0; }, seed);
    const ShardRunStats direct_stats = engine.last_run_stats();
    emit_batch(tag + ".direct", direct);
    const double direct_hpt =
        static_cast<double>(direct_stats.handoffs) / walks;
    const double direct_mpss =
        direct.stats.wall_seconds > 0.0
            ? static_cast<double>(direct.stats.steps) /
                  direct.stats.wall_seconds / 1e6
            : 0.0;
    direct_handoffs.add(shards, direct_hpt);
    record_value(tag + ".direct_handoffs_per_tour", direct_hpt);
    record_value(tag + ".direct_steps_per_second",
                 direct_mpss * 1e6);
    table.add_row({std::to_string(shards), "direct",
                   format_double(direct_hpt, 2),
                   format_double(direct.total_steps > 0
                                     ? static_cast<double>(
                                           direct_stats.handoffs) /
                                           static_cast<double>(
                                               direct.total_steps)
                                     : 0.0,
                                 4),
                   std::to_string(direct_stats.rounds),
                   format_double(direct_mpss, 2)});

    // Stitched: every visit to a boundary node replays a lambda-step
    // segment walked on demand from that node's stream, so handoffs
    // amortise to ~1/lambda per step.
    SegmentStore store(sharded, StitchConfig{});
    engine.enable_stitching(store);
    const TourBatch stitched =
        engine.run_tours(origin, m, [](NodeId) { return 1.0; }, seed);
    const ShardRunStats stitched_stats = engine.last_run_stats();
    engine.disable_stitching();
    emit_batch(tag + ".stitched", stitched);
    const double stitched_hpt =
        static_cast<double>(stitched_stats.handoffs) / walks;
    const double ratio =
        stitched.total_steps > 0
            ? static_cast<double>(stitched_stats.handoffs) /
                  static_cast<double>(stitched.total_steps)
            : 0.0;
    const double stitched_mpss =
        stitched.stats.wall_seconds > 0.0
            ? static_cast<double>(stitched.stats.steps) /
                  stitched.stats.wall_seconds / 1e6
            : 0.0;
    stitched_handoffs.add(shards, stitched_hpt);
    stitched_ratio.add(shards, ratio);
    record_value(tag + ".stitched_handoffs_per_tour", stitched_hpt);
    record_value(tag + ".stitched_handoff_step_ratio", ratio);
    record_value(tag + ".stitched_steps_per_second", stitched_mpss * 1e6);
    record_value(tag + ".stitch_steps",
                 static_cast<double>(stitched_stats.stitch_steps));
    record_value(tag + ".rounds_direct",
                 static_cast<double>(direct_stats.rounds));
    record_value(tag + ".rounds_stitched",
                 static_cast<double>(stitched_stats.rounds));
    for (const auto& [path, stats] :
         {std::pair{"direct", direct_stats},
          std::pair{"stitched", stitched_stats}}) {
      record_value(tag + "." + path + "_max_mailbox_depth",
                   static_cast<double>(stats.max_mailbox_depth));
      record_value(tag + "." + path + "_tokens_issued",
                   static_cast<double>(stats.tokens_issued));
    }
    table.add_row({std::to_string(shards), "stitched",
                   format_double(stitched_hpt, 2), format_double(ratio, 4),
                   std::to_string(stitched_stats.rounds),
                   format_double(stitched_mpss, 2)});

    if (shards == 8) {
      gate_ratio = ratio;
      gate_handoffs = stitched_hpt;
      direct_steps_s8 = direct_mpss * 1e6;
      stitched_steps_s8 = stitched_mpss * 1e6;
    }
  }
  table.print(std::cout);

  emit("shard handoffs per tour vs shard count",
       {direct_handoffs, stitched_handoffs, stitched_ratio});

  // Headline counters. shard.handoffs_per_tour is the stitched S=8 figure
  // the baseline diff watches (lower-is-better, see
  // scripts/validate_bench_json.py); the gate below is the ISSUE acceptance
  // criterion: stitched tours at S=8 must spend at most 0.25 handoffs per
  // walk step (i.e. complete an L-step tour in <= 0.25 L handoffs).
  record_value("shard.handoffs_per_tour", gate_handoffs);
  record_value("shard.handoff_step_ratio", gate_ratio);
  record_value("shard.stitched_vs_direct_round_speedup",
               direct_steps_s8 > 0.0 && stitched_steps_s8 > 0.0
                   ? stitched_steps_s8 / direct_steps_s8
                   : 0.0);

  constexpr double kGate = 0.25;
  if (gate_ratio > kGate) {
    std::cerr << "FAIL: stitched S=8 handoff/step ratio " << gate_ratio
              << " exceeds the " << kGate << " gate\n";
    return 1;
  }
  std::cout << "# gate: stitched S=8 handoff/step ratio "
            << format_double(gate_ratio, 4) << " <= "
            << format_double(kGate, 2) << "\n";
  return 0;
}
