// Baseline comparison: incremental dynamic BFS vs recompute-from-scratch on
// the CPU oracle, and the corresponding on-chip work metric. This is the
// quantitative backing for the paper's central claim that streaming updates
// "update the results of any previous computation without recomputing from
// scratch".
#include <chrono>
#include <cstdio>

#include "harness.hpp"

using namespace ccastream;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  const auto ds = bench::datasets(scale).front();
  bench::print_header(
      "Baseline: incremental dynamic BFS vs recompute per increment");

  const auto sched = wl::make_graphchallenge_like(
      ds.vertices, ds.edges, wl::SamplingKind::kEdge, 10, 42);
  const bench::JsonReporter reporter("bench_baseline_comparison");

  base::DynamicBfs dyn(ds.vertices, 0);
  std::printf("%-10s %14s %14s %16s %16s\n", "Increment", "IncrTime ms",
              "RecompTime ms", "Resettled", "Chip bfs-msgs");

  // Chip run alongside, to report the diffusion's message count per
  // increment (its own "work" metric).
  auto e = bench::make_experiment(bench::paper_chip_config(), ds.vertices,
                                  bench::AppKind::kBfs, 0);
  std::uint64_t resettled_before = 0;
  std::uint64_t chip_cycles = 0;
  double chip_uj = 0.0;
  for (std::size_t i = 0; i < sched.increments.size(); ++i) {
    const auto& inc = sched.increments[i];

    const auto t0 = std::chrono::steady_clock::now();
    dyn.apply_increment(inc);
    const double incr_ms = ms_since(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const auto full = dyn.recompute();
    const double recomp_ms = ms_since(t1);
    (void)full;

    const auto report = e.graph->stream_increment(inc);
    chip_cycles += report.cycles;
    chip_uj += report.energy_uj;
    std::printf("%-10zu %14.2f %14.2f %16lu %16lu\n", i + 1, incr_ms, recomp_ms,
                dyn.vertices_resettled() - resettled_before,
                report.stats_delta.actions_created);
    resettled_before = dyn.vertices_resettled();
  }
  reporter.record(ds.label, chip_cycles, chip_uj, e.chip->threads());
  std::printf(
      "\nExpected: incremental repair touches far fewer vertices than a\n"
      "recompute, especially in late increments when most levels are final.\n");
  return 0;
}
