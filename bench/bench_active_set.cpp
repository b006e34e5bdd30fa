// Active-set (event-driven) engine sweep: the same streaming-BFS workloads
// through the full-scan oracle and the active-set engine, side by side.
//
// The headline scenario is the sparse frontier the refactor exists for: a
// long path graph on a 64x64 mesh, where the BFS wave touches a handful of
// cells per cycle while the scan engine dutifully walks all 4096 three
// times a cycle. A dense SBM ingest rides along as the contrast case (a
// saturated mesh leaves little for the active set to skip) — it is where
// the bitmap engine has to prove it never costs meaningfully more than
// the scan it replaced as the default.
//
// Every row doubles as a correctness gate: simulated cycles, the complete
// ChipStats block, and energy must be bit-identical across engines; the
// sparse 64x64 row must show at least a 5x reduction in cell visits per
// cycle; and the dense SBM row must keep active visits within 1.1x of the
// scan engine's. All of it is tracked in BENCH_active.json (records carry
// "engine" and "cell_visits" fields).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace ccastream;

struct Scenario {
  std::string label;
  std::uint32_t dim = 64;
  std::uint64_t vertices = 0;
  wl::StreamSchedule sched;
  bool sparse = false;  ///< subject to the >=5x visit-reduction gate
};

/// A path graph 0-1-2-…-(len-1): the sparsest possible BFS frontier (one
/// wavefront vertex at a time once ingestion settles).
Scenario make_sparse_path(std::uint32_t dim, std::uint64_t len) {
  Scenario s;
  s.label = std::to_string(dim) + "x" + std::to_string(dim) + "/path" +
            std::to_string(len);
  s.dim = dim;
  s.vertices = len;
  s.sparse = true;
  std::vector<StreamEdge> edges;
  edges.reserve(len - 1);
  for (std::uint64_t i = 0; i + 1 < len; ++i) {
    edges.push_back({i, i + 1, 1});
  }
  s.sched.increments.push_back(std::move(edges));
  return s;
}

/// The contrast case: a bulk SBM ingest that keeps most of the mesh busy.
Scenario make_dense_sbm(std::uint32_t dim, std::uint64_t vertices,
                        std::uint64_t edges) {
  Scenario s;
  s.label = std::to_string(dim) + "x" + std::to_string(dim) + "/sbm" +
            std::to_string(vertices);
  s.dim = dim;
  s.vertices = vertices;
  s.sched = wl::make_graphchallenge_like(vertices, edges,
                                         wl::SamplingKind::kEdge,
                                         /*increments=*/4, /*seed=*/42);
  return s;
}

struct Measurement {
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  double wall_ms = 0.0;
  std::uint64_t cell_visits = 0;
  std::uint64_t threads = 1;
  std::string partition;
  sim::ChipStats stats;
};

Measurement run_once(const Scenario& sc, sim::EngineKind engine) {
  sim::ChipConfig cfg = bench::paper_chip_config();
  cfg.width = sc.dim;
  cfg.height = sc.dim;
  cfg.engine = engine;

  auto e = bench::make_experiment(cfg, sc.vertices, bench::AppKind::kBfs,
                                  /*source=*/0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = bench::run_schedule(e, sc.sched);
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.cycles = bench::total_cycles(reports);
  m.energy_uj = bench::total_energy_uj(reports);
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.cell_visits = e.chip->cell_visits();
  m.threads = e.chip->threads();
  m.partition = e.chip->partition_spec().to_string();
  m.stats = e.chip->stats();
  return m;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  bench::JsonReporter reporter("active_set");

  // The sparse scenario stays on the 64x64 mesh at every scale — the mesh
  // size *is* the point (it is what the scan engine's cost scales with);
  // only the path length grows.
  const std::uint64_t path_len = scale == bench::Scale::kTiny ? 256
                                 : scale == bench::Scale::kPaper ? 1024
                                                                 : 4096;
  const std::uint64_t sbm_vertices =
      scale == bench::Scale::kTiny ? 1'024 : 8'192;

  Scenario scenarios[] = {
      make_sparse_path(64, path_len),
      make_dense_sbm(scale == bench::Scale::kTiny ? 32 : 64, sbm_vertices,
                     8 * sbm_vertices),
  };

  bench::print_header(
      (std::string("Active-set engine vs full scan (streaming BFS, scale ") +
       bench::to_string(scale) + ")")
          .c_str());
  std::printf("%-16s %-8s %12s %16s %14s %10s %10s\n", "Dataset", "Engine",
              "SimCycles", "CellVisits", "Visits/cycle", "Wall ms",
              "Identical");

  bool ok = true;
  for (const Scenario& sc : scenarios) {
    const Measurement scan = run_once(sc, sim::EngineKind::kScan);
    const Measurement active = run_once(sc, sim::EngineKind::kActive);

    const bool identical = active.cycles == scan.cycles &&
                           active.stats == scan.stats &&
                           active.energy_uj == scan.energy_uj;
    const auto per_cycle = [](const Measurement& m) {
      return m.cycles == 0 ? 0.0
                           : static_cast<double>(m.cell_visits) /
                                 static_cast<double>(m.cycles);
    };
    std::printf("%-16s %-8s %12lu %16lu %14.1f %10.1f %10s\n",
                sc.label.c_str(), "scan",
                static_cast<unsigned long>(scan.cycles),
                static_cast<unsigned long>(scan.cell_visits), per_cycle(scan),
                scan.wall_ms, "-");
    std::printf("%-16s %-8s %12lu %16lu %14.1f %10.1f %10s\n",
                sc.label.c_str(), "active",
                static_cast<unsigned long>(active.cycles),
                static_cast<unsigned long>(active.cell_visits),
                per_cycle(active), active.wall_ms, identical ? "yes" : "NO!");
    if (!identical) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: active engine diverged from scan "
                   "on %s\n",
                   sc.label.c_str());
      ok = false;
      continue;
    }

    const double ratio = active.cell_visits == 0
                             ? 0.0
                             : static_cast<double>(scan.cell_visits) /
                                   static_cast<double>(active.cell_visits);
    std::printf("%-16s visit reduction: %.1fx%s\n", sc.label.c_str(), ratio,
                sc.sparse ? " (target >= 5x)" : " (dense gate <= 1.1x scan)");
    if (sc.sparse && ratio < 5.0) {
      std::fprintf(stderr,
                   "TARGET MISSED: %.1fx < 5x visit reduction on the sparse "
                   "frontier scenario %s\n",
                   ratio, sc.label.c_str());
      ok = false;
    }
    // The dense-regime gate: on the saturated contrast dataset, the active
    // engine must not do meaningfully more host work than the scan engine
    // it replaced as the default.
    if (!sc.sparse &&
        static_cast<double>(active.cell_visits) >
            1.1 * static_cast<double>(scan.cell_visits)) {
      std::fprintf(stderr,
                   "DENSE GATE MISSED: active visits %lu > 1.1x scan visits "
                   "%lu on %s\n",
                   static_cast<unsigned long>(active.cell_visits),
                   static_cast<unsigned long>(scan.cell_visits),
                   sc.label.c_str());
      ok = false;
    }

    reporter.record(sc.label, scan.cycles, scan.energy_uj, scan.threads,
                    scan.wall_ms, scan.partition, "scan", scan.cell_visits);
    reporter.record(sc.label, active.cycles, active.energy_uj,
                    active.threads, active.wall_ms, active.partition,
                    "active", active.cell_visits);
  }
  return ok ? 0 : 1;
}
