// Reproduces paper Figures 6 & 7: percent of compute cells active per
// cycle on the 32x32 chip — ingestion only (Fig 6) and ingestion+BFS
// (Fig 7), for both samplings, on the larger graph.
//
// Expected shapes: high sustained activation during streaming with a decay
// tail once IO drains; the BFS runs last longer (more cycles) with similar
// peak activation. Writes fig6_7_<mode>_<sampling>.csv series for plotting.
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

int main() {
  const auto scale = bench::scale_from_env();
  // Figures 6/7 use the larger graph; take the second dataset row.
  const auto ds = bench::datasets(scale).back();
  const bench::JsonReporter reporter("bench_fig6_7_activation");
  bench::print_header("Figures 6 & 7: cells active per cycle");

  for (const bool with_bfs : {false, true}) {
    for (const auto kind : {wl::SamplingKind::kEdge, wl::SamplingKind::kSnowball}) {
      const auto sched =
          wl::make_graphchallenge_like(ds.vertices, ds.edges, kind, 10, 42);
      const std::uint64_t source =
          kind == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;

      auto cfg = bench::paper_chip_config();
      cfg.record_activation = true;
      auto e = bench::make_experiment(
          cfg, ds.vertices,
          with_bfs ? bench::AppKind::kBfs : bench::AppKind::kNone, source);
      const auto reports = bench::run_schedule(e, sched);
      if (with_bfs && kind == wl::SamplingKind::kEdge) {
        // Headline record: Fig 7's ingestion+BFS edge-sampled run.
        reporter.record(ds.label, bench::total_cycles(reports),
                        bench::total_energy_uj(reports), e.chip->threads());
      }

      const auto& trace = e.chip->activation();
      const std::uint32_t cells = e.chip->geometry().cell_count();
      std::printf(
          "\n%s (%s, %s): %lu cycles, peak %.0f%% cells active, mean %.0f%%\n",
          with_bfs ? "Fig 7 ingestion+BFS" : "Fig 6 ingestion only",
          ds.label.c_str(), std::string(wl::to_string(kind)).c_str(),
          e.chip->stats().cycles, 100.0 * trace.peak_active_fraction(cells),
          100.0 * trace.mean_active_fraction(cells));

      // Coarse ASCII rendition of the figure (16 buckets).
      const auto series = trace.percent_series(cells, 16);
      std::printf("  activity: ");
      for (const auto& [cycle, pct] : series) {
        static const char* blocks[] = {" ", ".", ":", "-", "=", "#", "%", "@"};
        std::printf("%s", blocks[static_cast<int>(pct / 12.51)]);
      }
      std::printf("  (time ->)\n");

      const std::string csv_name =
          std::string("fig6_7_") + (with_bfs ? "bfs" : "ingest") + "_" +
          std::string(wl::to_string(kind)) + ".csv";
      io::CsvWriter csv(csv_name, {"cycle", "percent_active"});
      for (const auto& [cycle, pct] : trace.percent_series(cells, 512)) {
        csv.row_numeric({static_cast<double>(cycle), pct});
      }
      std::printf("  wrote %s\n", csv_name.c_str());
    }
  }
  return 0;
}
