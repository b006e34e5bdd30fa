// Ablation: RPVO shape and chip provisioning —
//   (a) fragment edge capacity (chain length vs in-fragment scan cost),
//   (b) ghost fan-out (chain vs small tree),
//   (c) router FIFO depth (buffering vs backpressure),
//   (d) IO channel placement (injection bandwidth).
// All on the same streaming-BFS workload.
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

namespace {

using namespace ccastream::bench;

Experiment make_structured(const sim::ChipConfig& cfg, std::uint64_t verts,
                           const graph::RpvoConfig& rc, std::uint64_t source) {
  Experiment e;
  e.chip = std::make_unique<sim::Chip>(cfg);
  e.proto = std::make_unique<graph::GraphProtocol>(*e.chip, rc);
  e.app = std::make_unique<apps::StreamingBfs>(*e.proto);
  e.app->install();
  graph::GraphConfig gc;
  gc.num_vertices = verts;
  gc.root_init = apps::StreamingBfs::initial_state();
  e.graph = std::make_unique<graph::StreamingGraph>(*e.proto, gc);
  e.app->seed(*e.graph, source, 0);
  return e;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  // Structure ablations are about per-vertex shape: a smaller graph keeps
  // the sweep fast without changing the comparison.
  const auto ds = bench::datasets(scale).front();
  const std::uint64_t verts = ds.vertices / 5;
  const std::uint64_t edges = ds.edges / 5;
  const auto sched = wl::make_graphchallenge_like(
      verts, edges, wl::SamplingKind::kEdge, 10, 42);
  const bench::JsonReporter reporter("bench_ablation_structure");

  bench::print_header("Ablation (a): fragment edge capacity");
  std::printf("%-10s %12s %12s %14s\n", "Capacity", "Cycles", "Energy µJ",
              "GhostLinks");
  for (const std::uint32_t cap : {2u, 4u, 8u, 16u, 32u}) {
    graph::RpvoConfig rc;
    rc.edge_capacity = cap;
    auto e = make_structured(bench::paper_chip_config(), verts, rc, 0);
    const auto reports = bench::run_schedule(e, sched);
    if (cap == 16) {
      // Headline record: the default fragment shape on the 1/5 dataset.
      reporter.record(ds.label + "/5", bench::total_cycles(reports),
                      bench::total_energy_uj(reports), e.chip->threads());
    }
    std::printf("%-10u %12lu %12.0f %14lu\n", cap, bench::total_cycles(reports),
                bench::total_energy_uj(reports),
                e.proto->stats().ghost_links_made);
  }

  bench::print_header("Ablation (b): ghost fan-out (capacity 4)");
  std::printf("%-10s %12s %12s %14s\n", "Fanout", "Cycles", "Energy µJ",
              "GhostLinks");
  for (const std::uint32_t fanout : {1u, 2u, 4u}) {
    graph::RpvoConfig rc;
    rc.edge_capacity = 4;
    rc.ghost_fanout = fanout;
    auto e = make_structured(bench::paper_chip_config(), verts, rc, 0);
    const auto reports = bench::run_schedule(e, sched);
    std::printf("%-10u %12lu %12.0f %14lu\n", fanout,
                bench::total_cycles(reports), bench::total_energy_uj(reports),
                e.proto->stats().ghost_links_made);
  }

  bench::print_header("Ablation (c): router FIFO depth");
  std::printf("%-10s %12s %12s %14s\n", "Depth", "Cycles", "MeanLat", "Stalls");
  for (const std::uint32_t depth : {1u, 2u, 4u, 8u, 16u}) {
    auto cfg = bench::paper_chip_config();
    cfg.fifo_depth = depth;
    auto e = make_structured(cfg, verts, {}, 0);
    const auto reports = bench::run_schedule(e, sched);
    std::printf("%-10u %12lu %12.1f %14lu\n", depth,
                bench::total_cycles(reports),
                e.chip->stats().mean_delivery_latency(),
                e.chip->stats().stage_stalls);
  }

  bench::print_header("Ablation (d): IO channel sides");
  std::printf("%-10s %12s %12s %14s\n", "Sides", "IOCells", "Cycles",
              "Energy µJ");
  struct SideCase {
    const char* name;
    std::uint8_t mask;
  };
  for (const auto& sc :
       {SideCase{"W", sim::kIoWest}, SideCase{"W+E", sim::kIoWest | sim::kIoEast},
        SideCase{"all4", sim::kIoWest | sim::kIoEast | sim::kIoNorth |
                             sim::kIoSouth}}) {
    auto cfg = bench::paper_chip_config();
    cfg.io_sides = sc.mask;
    auto e = make_structured(cfg, verts, {}, 0);
    const auto reports = bench::run_schedule(e, sched);
    std::printf("%-10s %12zu %12lu %14.0f\n", sc.name, e.chip->io().cell_count(),
                bench::total_cycles(reports), bench::total_energy_uj(reports));
  }
  std::printf("\nExpected: more IO cells -> fewer cycles until compute-bound;\n"
              "tiny capacities -> long chains; depth-1 FIFOs -> stalls.\n");
  return 0;
}
