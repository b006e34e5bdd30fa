// Partition sweep: streams the same SBM + BFS workload through row stripes
// with and without load-adaptive rebalancing on 4 workers, crossed with
// the IO-side configurations — north/south IO spreads injection across
// columns (hot border *rows*, what rebalancing splits), west/east IO
// funnels it through two border columns, whose IO cells every stripe
// shares. Checks the determinism contract (identical simulated cycles and
// energy vs the serial engine) on every row, so the only number that may
// vary per partition is host wall-clock.
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
  std::uint64_t rebalances = 0;
};

Measurement run_once(std::uint32_t dim, std::uint8_t io_sides,
                     std::uint32_t threads, const char* partition,
                     std::uint64_t vertices, std::uint64_t edges) {
  sim::ChipConfig cfg = bench::paper_chip_config();
  cfg.width = dim;
  cfg.height = dim;
  cfg.io_sides = io_sides;
  cfg.threads = threads;
  cfg.partition = *sim::PartitionSpec::parse(partition);

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
  m.parts = e.chip->partitions();
  m.rebalances = e.chip->partition_rebalances();
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
  const char* partitions[] = {"rows", "rows+rebalance"};

  for (const IoCase& io : io_cases) {
    bench::print_header(
        (std::string("Partitions — ") + io.label + ", " +
         std::to_string(dim) + "x" + std::to_string(dim) + " mesh, " +
         std::to_string(vertices) + " vertices, " + std::to_string(edges) +
         " edges (SBM + streaming BFS, " + std::to_string(kThreads) +
         " workers vs serial)")
            .c_str());
    std::printf("%-18s %6s %8s %14s %12s %10s %10s\n", "Partition", "Parts",
                "Rebal", "SimCycles", "Energy µJ", "Wall ms", "Identical");

    const Measurement serial =
        run_once(dim, io.sides, /*threads=*/1, "rows", vertices, edges);
    std::printf("%-18s %6u %8lu %14lu %12.1f %10.1f %10s\n", "serial", 1u,
                0ul, static_cast<unsigned long>(serial.cycles),
                serial.energy_uj, serial.wall_ms, "-");

    for (const char* partition : partitions) {
      const Measurement m =
          run_once(dim, io.sides, kThreads, partition, vertices, edges);
      const bool identical =
          m.cycles == serial.cycles && m.energy_uj == serial.energy_uj;
      std::printf("%-18s %6u %8lu %14lu %12.1f %10.1f %10s\n", partition,
                  m.parts, static_cast<unsigned long>(m.rebalances),
                  static_cast<unsigned long>(m.cycles), m.energy_uj, m.wall_ms,
                  identical ? "yes" : "NO!");
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: partition %s diverged from "
                     "serial under %s\n",
                     partition, io.label);
        return 1;
      }
      // wall_ms persists into BENCH_*.json so rebalancing's overhead or
      // speedup per IO config is trackable across PRs (cycles/energy are
      // partition-invariant by design).
      reporter.record(std::string(io.label) + "/" + partition, m.cycles,
                      m.energy_uj, kThreads, m.wall_ms, partition);
    }
  }
  return 0;
}
