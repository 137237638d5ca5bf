// Parallel census of an overlay: fan a batch of Random Tours and a batch of
// Sample & Collide trials across all hardware threads, then show that the
// numbers are bit-identical to a single-threaded run of the same seed —
// the determinism guarantee of overcount::ParallelRunner.
//
//   ./parallel_census [n_nodes]
#include <cstdlib>
#include <iostream>

#include "core/overcount.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace overcount;

  const std::size_t n_nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;
  Rng rng(7);
  const Graph overlay =
      largest_component(balanced_random_graph(n_nodes, rng));
  const double n = static_cast<double>(overlay.num_nodes());
  ParallelRunner pool;  // hardware_concurrency() threads
  std::cout << "overlay: " << overlay.num_nodes() << " nodes, "
            << overlay.num_edges() << " edges; pool: " << pool.thread_count()
            << " threads\n";

  // --- Random Tour census: 2000 independent tours in one batch. ---
  const std::uint64_t tour_seed = 42;
  const auto tours = run_tours_size(overlay, 0, 2000, tour_seed, pool);
  if (!tours.ok()) {  // every tour truncated: mean() is NaN, not a size
    std::cout << "all tours truncated — no estimate\n";
    return 1;
  }
  std::cout << "\nRandom Tour batch:  mean estimate = "
            << format_double(tours.mean(), 1) << "  ("
            << format_double(100.0 * tours.mean() / n, 2) << "% of true N), "
            << tours.completed << " completed, " << tours.truncated
            << " truncated\n";
  print_batch_stats(std::cout, tours.stats);

  // --- Sample & Collide census: 32 trials at ell = 20. ---
  const double gap = spectral_gap_lanczos(overlay, 120, 7);
  const double timer = recommended_ctrw_timer(n, std::max(gap, 1e-3));
  const auto sc = run_sc_trials(overlay, 0, 32, timer, 20, tour_seed + 1,
                                pool);
  std::cout << "\nSample&Collide batch:  mean estimate = "
            << format_double(sc.mean_simple(), 1) << "  ("
            << format_double(100.0 * sc.mean_simple() / n, 2)
            << "% of true N)\n";
  print_batch_stats(std::cout, sc.stats);

  // --- The reproducibility contract: same seed, 1 thread, same bits. ---
  ParallelRunner one_thread(1);
  const auto serial = run_tours_size(overlay, 0, 2000, tour_seed, one_thread);
  const bool identical = serial.sum == tours.sum &&
                         serial.total_steps == tours.total_steps;
  std::cout << "\n1-thread replay of the tour batch: sum "
            << (identical ? "bit-identical" : "DIVERGED — bug!")
            << " (thread count only changes wall-clock, never results)\n";
  return identical ? 0 : 1;
}
