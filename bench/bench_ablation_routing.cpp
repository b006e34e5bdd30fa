// Ablation: routing policy (the paper fixes YX dimension-ordered routing;
// DESIGN.md calls out the policy as a design choice worth isolating). Runs
// the same streaming-BFS workload under YX, XY and West-First adaptive
// routing.
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

int main() {
  const auto scale = bench::scale_from_env();
  const auto ds = bench::datasets(scale).front();
  const bench::JsonReporter reporter("bench_ablation_routing");
  bench::print_header("Ablation: mesh routing policy (ingestion+BFS)");
  std::printf("%-12s %12s %12s %12s %12s\n", "Routing", "Cycles", "Energy µJ",
              "MeanLat", "Stalls");

  const auto sched = wl::make_graphchallenge_like(
      ds.vertices, ds.edges, wl::SamplingKind::kEdge, 10, 42);

  for (const auto routing :
       {sim::RoutingPolicyKind::kYX, sim::RoutingPolicyKind::kXY,
        sim::RoutingPolicyKind::kWestFirst, sim::RoutingPolicyKind::kOddEven}) {
    auto cfg = bench::paper_chip_config();
    cfg.routing = routing;
    auto e = bench::make_experiment(cfg, ds.vertices, bench::AppKind::kBfs, 0);
    const auto reports = bench::run_schedule(e, sched);
    if (routing == sim::RoutingPolicyKind::kYX) {
      // Headline record: the paper's YX dimension-ordered routing.
      reporter.record(ds.label, bench::total_cycles(reports),
                      bench::total_energy_uj(reports), e.chip->threads());
    }
    std::printf("%-12s %12lu %12.0f %12.1f %12lu\n",
                std::string(sim::to_string(routing)).c_str(),
                bench::total_cycles(reports), bench::total_energy_uj(reports),
                e.chip->stats().mean_delivery_latency(),
                e.chip->stats().stage_stalls);
  }
  std::printf(
      "\nAll policies are minimal, so hop counts match; differences come from\n"
      "congestion spreading (adaptive West-First can shave stalls under load).\n");
  return 0;
}
