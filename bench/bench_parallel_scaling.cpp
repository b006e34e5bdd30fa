// Parallel-engine scaling sweep: streams the same SBM + BFS workload
// through 1-, 2-, and 4-thread chips at 32x32 and 64x64 meshes, reporting
// wall-clock speedup over the serial engine and checking the determinism
// contract (identical simulated cycles and energy for every thread count)
// on the way. Simulated cycles are a property of the workload, so the
// interesting column here is host milliseconds.
//
// Speedup is bounded by the host cores actually available — on a 1-core
// machine every row measures barrier overhead, not scaling.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

using namespace ccastream;

struct Measurement {
  std::uint32_t threads = 1;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  double wall_ms = 0.0;
};

Measurement run_once(std::uint32_t dim, std::uint32_t threads,
                     std::uint64_t vertices, std::uint64_t edges) {
  sim::ChipConfig cfg = bench::paper_chip_config();
  cfg.width = dim;
  cfg.height = dim;
  cfg.threads = threads;

  auto e = bench::make_experiment(cfg, vertices, bench::AppKind::kBfs,
                                  /*source=*/0);
  const auto sched = wl::make_graphchallenge_like(
      vertices, edges, wl::SamplingKind::kEdge, /*increments=*/4, /*seed=*/42);

  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = bench::run_schedule(e, sched);
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.threads = e.chip->threads();  // resolved backend, not the raw request
  m.cycles = bench::total_cycles(reports);
  m.energy_uj = bench::total_energy_uj(reports);
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return m;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  bench::JsonReporter reporter("parallel_scaling");

  // Workload sized with the mesh so bigger chips do proportionally bigger
  // work (otherwise 64x64 under-utilises and scaling looks artificially
  // poor).
  std::uint64_t verts_per_cell = 8, degree = 16;
  if (scale == bench::Scale::kTiny) {
    verts_per_cell = 2;
    degree = 8;
  } else if (scale == bench::Scale::kLarge) {
    verts_per_cell = 16;
    degree = 24;
  }

  std::printf("host cores: %u (speedup is bounded by this)\n",
              std::thread::hardware_concurrency());

  for (const std::uint32_t dim : {32u, 64u}) {
    const std::uint64_t vertices = verts_per_cell * dim * dim;
    const std::uint64_t edges = degree * vertices;
    bench::print_header(
        ("Parallel scaling — " + std::to_string(dim) + "x" + std::to_string(dim) +
         " mesh, " + std::to_string(vertices) + " vertices, " +
         std::to_string(edges) + " edges (SBM + streaming BFS)")
            .c_str());
    std::printf("%-8s %14s %12s %10s %10s %10s\n", "Threads", "SimCycles",
                "Energy µJ", "Wall ms", "Speedup", "Identical");

    std::vector<Measurement> rows;
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      rows.push_back(run_once(dim, threads, vertices, edges));
      const Measurement& m = rows.back();
      const Measurement& serial = rows.front();
      const bool identical =
          m.cycles == serial.cycles && m.energy_uj == serial.energy_uj;
      std::printf("%-8u %14lu %12.1f %10.1f %9.2fx %10s\n", m.threads,
                  static_cast<unsigned long>(m.cycles), m.energy_uj, m.wall_ms,
                  serial.wall_ms / m.wall_ms, identical ? "yes" : "NO!");
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %u-thread run diverged from "
                     "serial on %ux%u\n",
                     m.threads, dim, dim);
        return 1;
      }

      const std::string dataset =
          std::to_string(dim) + "x" + std::to_string(dim);
      // wall_ms persists into BENCH_*.json so backend speedup is trackable
      // across PRs (cycles/energy are backend-invariant by design).
      reporter.record(dataset, m.cycles, m.energy_uj, m.threads, m.wall_ms);
    }
  }
  return 0;
}
