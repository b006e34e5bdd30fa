// Sliding-window (insert + expire) sweep for every deletion-repairing app
// (BFS, SSSP, components): the same windowed workload through the
// full-scan oracle and the active-set engine.
//
// The scenario the deletion path exists for: an SBM arrival stream pushed
// through wl::apply_sliding_window with drain enabled, so the graph grows
// until the window fills, churns while arrivals and expirations overlap,
// then *shrinks to empty* over the trailing delete-only increments. The
// drain tail is the interesting regime for the active engine: the mesh
// swings from saturated ingest to thinning deletion-repair waves.
//
// Every row is also a correctness gate: simulated cycles, the complete
// ChipStats block, and energy must be bit-identical across engines, and
// the active engine must keep its cell visits within 1.1x of the scan
// engine's across the whole grow/churn/shrink run (deletion repair is
// host-seeded at O(settled vertices), so the mesh stays busy — there is
// no sparse-frontier discount to hide behind). Records land in
// BENCH_window.json with "cell_visits" and "host_cores" fields.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace ccastream;

struct Scenario {
  std::string label;
  std::uint64_t vertices = 0;
  std::uint32_t window = 0;
  wl::StreamSchedule sched;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
};

/// An SBM arrival stream windowed to `window` increments, with the drain
/// tail appended so the run ends on an empty graph (the saturated ->
/// sparse collapse the bench exists to stress).
Scenario make_windowed_sbm(std::uint64_t vertices, std::uint64_t edges,
                           std::uint64_t increments, std::uint32_t window) {
  Scenario s;
  s.label = "sbm" + std::to_string(vertices) + "/w" + std::to_string(window);
  s.vertices = vertices;
  s.window = window;
  const auto arrivals = wl::make_graphchallenge_like(
      vertices, edges, wl::SamplingKind::kEdge, increments, /*seed=*/42);
  s.sched = wl::apply_sliding_window(arrivals, window, /*drain=*/true);
  for (const auto& inc : s.sched.increments) {
    for (const auto& e : inc) {
      if (e.is_delete()) ++s.deletes; else ++s.inserts;
    }
  }
  return s;
}

struct Measurement {
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  double wall_ms = 0.0;
  std::uint64_t cell_visits = 0;
  std::uint64_t threads = 1;
  sim::ChipStats stats;
  std::uint64_t edges_deleted = 0;
};

Measurement run_once(const Scenario& sc, bench::AppKind app,
                     sim::EngineKind engine) {
  sim::ChipConfig cfg = bench::paper_chip_config();
  cfg.engine = engine;

  auto e = bench::make_experiment(cfg, sc.vertices, app, /*source=*/0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = bench::run_schedule(e, sc.sched);
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.cycles = bench::total_cycles(reports);
  m.energy_uj = bench::total_energy_uj(reports);
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.cell_visits = e.chip->cell_visits();
  m.threads = e.chip->threads();
  m.stats = e.chip->stats();
  m.edges_deleted = e.proto->stats().edges_deleted;
  return m;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  bench::JsonReporter reporter("sliding_window");

  // Deletion repair seeds every settled vertex per invalidating increment,
  // so the workload sizes stay modest: the point is the grow/churn/drain
  // swing on the 32x32 mesh, not raw edge volume.
  std::vector<Scenario> scenarios;
  switch (scale) {
    case bench::Scale::kTiny:
      scenarios.push_back(make_windowed_sbm(512, 2'048, /*increments=*/6,
                                            /*window=*/2));
      break;
    case bench::Scale::kPaper:
      scenarios.push_back(make_windowed_sbm(1'024, 4'096, /*increments=*/6,
                                            /*window=*/2));
      scenarios.push_back(make_windowed_sbm(2'048, 8'192, /*increments=*/8,
                                            /*window=*/3));
      break;
    case bench::Scale::kLarge:
      scenarios.push_back(make_windowed_sbm(2'048, 8'192, /*increments=*/8,
                                            /*window=*/3));
      scenarios.push_back(make_windowed_sbm(4'096, 16'384, /*increments=*/10,
                                            /*window=*/4));
      break;
  }

  bench::print_header(
      (std::string(
           "Sliding-window streaming BFS/SSSP/components, scan vs active "
           "(scale ") +
       bench::to_string(scale) + ")")
          .c_str());
  std::printf("%-22s %-8s %10s %10s %12s %14s %10s %10s\n", "Dataset",
              "Engine", "Inserts", "Deletes", "SimCycles", "CellVisits",
              "Wall ms", "Identical");

  // Every deletion-repairing app rides the same windowed schedule; BFS
  // keeps its historical dataset label, the newer apps suffix theirs.
  constexpr bench::AppKind kApps[] = {bench::AppKind::kBfs,
                                      bench::AppKind::kSssp,
                                      bench::AppKind::kComponents};

  bool ok = true;
  for (const Scenario& sc : scenarios) {
    for (const bench::AppKind app : kApps) {
      const std::string label =
          app == bench::AppKind::kBfs
              ? sc.label
              : sc.label + "/" + bench::to_string(app);
      const Measurement scan = run_once(sc, app, sim::EngineKind::kScan);
      const Measurement active = run_once(sc, app, sim::EngineKind::kActive);

      const bool identical = active.cycles == scan.cycles &&
                             active.stats == scan.stats &&
                             active.energy_uj == scan.energy_uj;
      const auto row = [&](const char* name, const Measurement& m,
                           const char* ident) {
        std::printf("%-22s %-8s %10lu %10lu %12lu %14lu %10.1f %10s\n",
                    label.c_str(), name,
                    static_cast<unsigned long>(sc.inserts),
                    static_cast<unsigned long>(sc.deletes),
                    static_cast<unsigned long>(m.cycles),
                    static_cast<unsigned long>(m.cell_visits), m.wall_ms,
                    ident);
      };
      row("scan", scan, "-");
      row("active", active, identical ? "yes" : "NO!");
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: active engine diverged from scan "
                     "on windowed workload %s\n",
                     label.c_str());
        ok = false;
        continue;
      }
      // Sanity: the drain really emptied the chip — every stored record that
      // the windowed schedule deleted must have been removed on-cell.
      if (scan.edges_deleted == 0 ||
          scan.edges_deleted != active.edges_deleted) {
        std::fprintf(stderr,
                     "DELETION MISMATCH: scan removed %lu records, active %lu "
                     "on %s\n",
                     static_cast<unsigned long>(scan.edges_deleted),
                     static_cast<unsigned long>(active.edges_deleted),
                     label.c_str());
        ok = false;
      }

      // The shrinking-regime gate: across grow/churn/drain the active
      // engine must not do meaningfully more host work than the scan
      // oracle. This is the deletion-path analogue of bench_active_set's
      // dense gate — the repair waves keep occupancy high.
      if (static_cast<double>(active.cell_visits) >
          1.1 * static_cast<double>(scan.cell_visits)) {
        std::fprintf(stderr,
                     "SHRINK-REGIME GATE MISSED: active visits %lu > 1.1x "
                     "scan visits %lu on %s\n",
                     static_cast<unsigned long>(active.cell_visits),
                     static_cast<unsigned long>(scan.cell_visits),
                     label.c_str());
        ok = false;
      }

      reporter.record(label, scan.cycles, scan.energy_uj, scan.threads,
                      scan.wall_ms, "scan", scan.cell_visits);
      reporter.record(label, active.cycles, active.energy_uj,
                      active.threads, active.wall_ms, "active",
                      active.cell_visits);
    }
  }
  return ok ? 0 : 1;
}
