// Reproduces the paper's Figure 5 design choice as a measurement: Vicinity
// vs Random ghost-vertex allocation (plus RoundRobin and Local for
// context). The Vicinity Allocator keeps ghosts within 2 hops of the
// originating cell, minimising intra-vertex operation latency; Random
// disperses them across the whole chip.
//
// Expected shape: Vicinity wins on total cycles and mean message latency;
// Random pays chip-diameter hops on every chain traversal.
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

int main() {
  const auto scale = bench::scale_from_env();
  const auto ds = bench::datasets(scale).front();
  const bench::JsonReporter reporter("bench_fig5_allocator");
  // A smaller edge capacity exaggerates chains, which is exactly where the
  // allocation policy matters.
  bench::print_header("Figure 5 ablation: ghost allocation policy");
  std::printf("(dataset %s, %lu edges, edge sampling, ingestion+BFS)\n",
              ds.label.c_str(), ds.edges);
  std::printf("%-12s %12s %12s %12s %12s\n", "Policy", "Cycles", "Energy µJ",
              "MeanLat", "MeanHops");

  const auto sched = wl::make_graphchallenge_like(
      ds.vertices, ds.edges, wl::SamplingKind::kEdge, 10, 42);

  for (const auto policy :
       {rt::AllocPolicyKind::kVicinity, rt::AllocPolicyKind::kRandom,
        rt::AllocPolicyKind::kRoundRobin, rt::AllocPolicyKind::kLocal}) {
    auto cfg = bench::paper_chip_config();
    cfg.alloc_policy = policy;
    auto e = bench::make_experiment(cfg, ds.vertices, bench::AppKind::kBfs, 0);
    const auto reports = bench::run_schedule(e, sched);
    if (policy == rt::AllocPolicyKind::kVicinity) {
      // Headline record: the paper's vicinity configuration.
      reporter.record(ds.label, bench::total_cycles(reports),
                      bench::total_energy_uj(reports), e.chip->threads());
    }
    std::printf("%-12s %12lu %12.0f %12.1f %12.1f\n",
                std::string(rt::to_string(policy)).c_str(),
                bench::total_cycles(reports), bench::total_energy_uj(reports),
                e.chip->stats().mean_delivery_latency(),
                e.chip->stats().mean_hops());
  }
  std::printf(
      "\nExpected: vicinity <= round-robin/random on latency and energy;\n"
      "local is hop-free for chains but concentrates memory pressure.\n");
  return 0;
}
