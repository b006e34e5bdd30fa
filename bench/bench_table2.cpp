// Reproduces paper Table 2: energy (µJ) and time (µs at 1 GHz) on the
// 32x32 chip, for ingestion-only and ingestion+BFS, on all four datasets.
//
// Paper values (50K rows; 500K scaled by default — see CCASTREAM_SCALE):
//   50K  Edge:     ingest 1355 µJ / 22 µs   ingest+BFS 4669 µJ / 68 µs
//   50K  Snowball: ingest 1357 µJ / 25 µs   ingest+BFS 2929 µJ / 43 µs
//   500K Edge:     ingest 13480 µJ / 206 µs ingest+BFS 50274 µJ / 694 µs
//   500K Snowball: ingest 13498 µJ / 232 µs ingest+BFS 32895 µJ / 448 µs
//
// Expected shape: Snowball ingestion slightly slower than Edge (frontier
// congestion); Edge ingestion+BFS much more expensive than Snowball
// ingestion+BFS (random arrivals re-trigger BFS waves; snowball arrives in
// monotone level order).
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

int main() {
  const auto scale = bench::scale_from_env();
  const bench::JsonReporter reporter("bench_table2");
  bool recorded = false;
  bench::print_header("Table 2: energy and time on the 32x32 chip @ 1 GHz");
  std::printf("%-12s %-9s | %12s %10s | %12s %10s\n", "Vertices", "Sampling",
              "Ingest µJ", "Ingest µs", "Ing+BFS µJ", "Ing+BFS µs");

  for (const auto& ds : bench::datasets(scale)) {
    for (const auto kind : {wl::SamplingKind::kEdge, wl::SamplingKind::kSnowball}) {
      const auto sched =
          wl::make_graphchallenge_like(ds.vertices, ds.edges, kind, 10, 42);
      const std::uint64_t source =
          kind == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;

      double uj[2];
      std::uint64_t cycles[2];
      std::uint64_t backend_threads = 1;
      for (const bool with_bfs : {false, true}) {
        auto e = bench::make_experiment(bench::paper_chip_config(), ds.vertices,
                                        with_bfs ? bench::AppKind::kBfs
                                                 : bench::AppKind::kNone,
                                        source);
        const auto reports = bench::run_schedule(e, sched);
        uj[with_bfs] = bench::total_energy_uj(reports);
        cycles[with_bfs] = bench::total_cycles(reports);
        backend_threads = e.chip->threads();
      }
      if (!recorded) {
        // Headline record: first dataset, edge sampling, ingestion+BFS.
        reporter.record(ds.label, cycles[1], uj[1], backend_threads);
        recorded = true;
      }
      std::printf("%-12s %-9s | %12.0f %10.0f | %12.0f %10.0f\n",
                  ds.label.c_str(), std::string(wl::to_string(kind)).c_str(),
                  uj[0], sim::cycles_to_us(cycles[0]), uj[1],
                  sim::cycles_to_us(cycles[1]));
    }
  }
  std::printf(
      "\nCompare shapes with the paper: BFS multiplies ingestion cost ~2-3.5x;\n"
      "the multiplier is larger for Edge sampling than Snowball.\n");
  return 0;
}
