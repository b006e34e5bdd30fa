// Partition sweep: streams the same SBM + BFS workload through the
// block-cyclic partition on 4 workers, for each IO-side configuration —
// north/south IO spreads injection across columns (hot border *rows*,
// which the blocks deal to every worker), west/east IO funnels it through
// two border columns, whose IO cells every partition shares. Checks the
// determinism contract (identical simulated cycles and energy vs the
// serial engine) on every row, so the only number that may vary with the
// worker count is host wall-clock.
//
// Speedup is bounded by the host cores actually available — on a 1-core
// machine every row measures partition bookkeeping, not scaling.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace ccastream;

struct IoCase {
  const char* label;
  std::uint8_t sides;
};

struct Measurement {
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  double wall_ms = 0.0;
  std::uint32_t parts = 1;
};

Measurement run_once(std::uint32_t dim, std::uint8_t io_sides,
                     std::uint32_t threads, std::uint64_t vertices,
                     std::uint64_t edges) {
  sim::ChipConfig cfg = bench::paper_chip_config();
  cfg.width = dim;
  cfg.height = dim;
  cfg.io_sides = io_sides;
  cfg.threads = threads;

  auto e = bench::make_experiment(cfg, vertices, bench::AppKind::kBfs,
                                  /*source=*/0);
  const auto sched = wl::make_graphchallenge_like(
      vertices, edges, wl::SamplingKind::kEdge, /*increments=*/4, /*seed=*/42);

  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = bench::run_schedule(e, sched);
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.cycles = bench::total_cycles(reports);
  m.energy_uj = bench::total_energy_uj(reports);
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.parts = e.chip->threads();
  return m;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  bench::JsonReporter reporter("partition_shapes");

  const std::uint32_t dim = scale == bench::Scale::kTiny ? 16 : 32;
  const std::uint64_t verts_per_cell = scale == bench::Scale::kTiny ? 2 : 8;
  const std::uint64_t degree = scale == bench::Scale::kTiny ? 8 : 16;
  const std::uint64_t vertices = verts_per_cell * dim * dim;
  const std::uint64_t edges = degree * vertices;
  constexpr std::uint32_t kThreads = 4;

  const IoCase io_cases[] = {
      {"IoNS", static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth)},
      {"IoWE", static_cast<std::uint8_t>(sim::kIoWest | sim::kIoEast)},
      {"IoNSWE", static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth |
                                           sim::kIoWest | sim::kIoEast)},
  };
  for (const IoCase& io : io_cases) {
    bench::print_header(
        (std::string("Partitions — ") + io.label + ", " +
         std::to_string(dim) + "x" + std::to_string(dim) + " mesh, " +
         std::to_string(vertices) + " vertices, " + std::to_string(edges) +
         " edges (SBM + streaming BFS, " + std::to_string(kThreads) +
         " workers vs serial)")
            .c_str());
    std::printf("%-10s %6s %14s %12s %10s %10s\n", "Run", "Parts",
                "SimCycles", "Energy µJ", "Wall ms", "Identical");

    const Measurement serial =
        run_once(dim, io.sides, /*threads=*/1, vertices, edges);
    std::printf("%-10s %6u %14lu %12.1f %10.1f %10s\n", "serial", 1u,
                static_cast<unsigned long>(serial.cycles), serial.energy_uj,
                serial.wall_ms, "-");

    const Measurement m = run_once(dim, io.sides, kThreads, vertices, edges);
    const bool identical =
        m.cycles == serial.cycles && m.energy_uj == serial.energy_uj;
    std::printf("%-10s %6u %14lu %12.1f %10.1f %10s\n", "blocks", m.parts,
                static_cast<unsigned long>(m.cycles), m.energy_uj, m.wall_ms,
                identical ? "yes" : "NO!");
    if (!identical) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %u workers diverged from serial "
                   "under %s\n",
                   kThreads, io.label);
      return 1;
    }
    // wall_ms persists into BENCH_*.json so the partition's overhead or
    // speedup per IO config is trackable across changes (cycles/energy
    // are partition-invariant by design).
    reporter.record(io.label, m.cycles, m.energy_uj, kThreads, m.wall_ms);
  }
  return 0;
}
