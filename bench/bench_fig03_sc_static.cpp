// Figure 3: raw Sample & Collide estimates (l = 100, no sliding window) on
// a balanced random graph, 100 consecutive measurements.
//
// Paper shape: points scatter tightly around 100% — an order of magnitude
// fewer runs than RT for the same accuracy (relative std ~ 1/sqrt(l) = 10%).
//
// The measurements are independent, so they run as one parallel batch and
// are plotted in task-index order (bit-identical at any OVERCOUNT_THREADS).
#include "common.hpp"

int main() {
  using namespace overcount;
  using namespace overcount::bench;

  preamble("fig03_sc_static",
           "Sample&Collide l=100 raw estimates, balanced graph");
  paper_note(
      "Fig 3: S&C(l=100) needs ~10x fewer estimates than RT for the same "
      "accuracy; scatter ~ +/-10%");

  Rng master(master_seed());
  Rng graph_rng = master.split();
  const Graph g = make_balanced(graph_rng);
  const double n = static_cast<double>(g.num_nodes());
  const double timer = sampling_timer(g, master_seed());
  std::cout << "# n=" << g.num_nodes() << " timer=" << format_double(timer, 2)
            << '\n';

  const std::size_t total_runs = runs(100);
  const std::uint64_t batch_seed = master.split().next();
  ParallelRunner runner(worker_threads());
  const auto batch = run_sc_trials(g, 0, total_runs, timer, 100, batch_seed,
                                   runner);

  Series s{"sc_l100", {}, {}};
  RunningStats quality;
  std::size_t run = 0;
  for (const auto& trial : batch.trials) {
    const double pct = 100.0 * trial.simple / n;
    s.add(static_cast<double>(++run), pct);
    quality.add(pct);
  }
  std::cout << "# mean=" << format_double(quality.mean(), 2)
            << "% sd=" << format_double(quality.stddev(), 2)
            << "% (theory ~10%)\n";
  emit_batch("sc_trials l=100", batch);
  emit("Figure 3 - S&C l=100 raw estimates (% of system size)", {s});
  return 0;
}
