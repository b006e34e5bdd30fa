// Reproduces paper Figures 8 & 9: simulation cycles per dynamic-graph
// increment on the 32x32 chip — "Streaming Edges" vs "Streaming Edges with
// BFS", for Edge and Snowball sampling, at both graph sizes.
//
// Expected shapes:
//   Edge sampling:     ingestion cycles flat across increments; the BFS
//                      overhead varies (random arrivals trigger random
//                      amounts of re-diffusion).
//   Snowball sampling: ingestion cycles grow with the increment (increments
//                      get bigger); BFS overhead stays small (edges arrive
//                      in monotonically increasing BFS-level order).
//
// Writes fig8_9_<label>_<sampling>.csv next to the binary for plotting.
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

int main() {
  const auto scale = bench::scale_from_env();
  const bench::JsonReporter reporter("bench_fig8_9_increments");
  bool recorded = false;
  bench::print_header("Figures 8 & 9: cycles per increment");

  for (const auto& ds : bench::datasets(scale)) {
    for (const auto kind : {wl::SamplingKind::kEdge, wl::SamplingKind::kSnowball}) {
      const auto sched =
          wl::make_graphchallenge_like(ds.vertices, ds.edges, kind, 10, 42);
      const std::uint64_t source =
          kind == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;

      std::vector<graph::IncrementReport> plain, with_bfs;
      std::uint64_t backend_threads = 1;
      {
        auto e = bench::make_experiment(bench::paper_chip_config(), ds.vertices,
                                        bench::AppKind::kNone, source);
        plain = bench::run_schedule(e, sched);
      }
      {
        auto e = bench::make_experiment(bench::paper_chip_config(), ds.vertices,
                                        bench::AppKind::kBfs, source);
        with_bfs = bench::run_schedule(e, sched);
        backend_threads = e.chip->threads();
      }
      if (!recorded && kind == wl::SamplingKind::kEdge) {
        // Headline record: first dataset, edge sampling, streaming+BFS.
        reporter.record(ds.label, bench::total_cycles(with_bfs),
                        bench::total_energy_uj(with_bfs), backend_threads);
        recorded = true;
      }

      std::printf("\n%s vertices, %s sampling (cycles per increment):\n",
                  ds.label.c_str(), std::string(wl::to_string(kind)).c_str());
      std::printf("%-10s %12s %12s %8s\n", "Increment", "Streaming",
                  "Stream+BFS", "Ratio");
      const std::string csv_name = "fig8_9_" + bench::path_safe_label(ds.label) +
                                   "_" + std::string(wl::to_string(kind)) +
                                   ".csv";
      io::CsvWriter csv(csv_name, {"increment", "edges", "cycles_streaming",
                                   "cycles_streaming_bfs"});
      for (std::size_t i = 0; i < plain.size(); ++i) {
        const double ratio = plain[i].cycles == 0
                                 ? 0.0
                                 : static_cast<double>(with_bfs[i].cycles) /
                                       static_cast<double>(plain[i].cycles);
        std::printf("%-10zu %11luK %11luK %8.2f\n", i + 1,
                    plain[i].cycles / 1000, with_bfs[i].cycles / 1000, ratio);
        csv.row_numeric({static_cast<double>(i + 1),
                         static_cast<double>(plain[i].edges),
                         static_cast<double>(plain[i].cycles),
                         static_cast<double>(with_bfs[i].cycles)});
      }
      std::printf("wrote %s\n", csv_name.c_str());
    }
  }
  return 0;
}
