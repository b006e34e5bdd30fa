// Mesh-scale sweep: streaming BFS over windowed increments on square
// meshes far beyond the paper's 32x32 chip — 256x256 and 512x512 at the
// default scale (128x128 at tiny, 1024x1024 = a million cells behind
// CCASTREAM_STRESS=1) — recording cell visits, wall-clock, and peak RSS.
// This is the bench the struct-of-arrays cell refactor answers to: at
// ~10^5-10^6 cells the engine's phase sweeps are memory-bound on
// per-cell state, so layout changes show up here as wall-clock and as
// resident bytes per cell.
//
// Gates (enforced wherever a baseline row exists for the mesh side):
//   - wall-clock must beat the committed pre-refactor (array-of-structs
//     ComputeCell) baseline, and
//   - peak resident bytes per cell must drop vs the same baseline
//     (SoA hot words and pooled message slots replace per-cell heap
//     containers).
//
// Pre-refactor baselines (array-of-structs ComputeCell with per-cell heap
// containers), measured on a 1-core host (Release, serial, rows, active
// engine) at commit a0f405b:
//   256x256: 19374.5 ms wall, 343.6 MiB peak RSS = 5498 B/cell
//   512x512: 236321.6 ms wall, 1372.6 MiB peak RSS = 5490 B/cell
// The gates compare wall-clock and resident bytes per cell directly
// against those measured AoS numbers. Wall-clock, not wall-clock per
// visit: what counts as a visit depends on the engine's sweep, so a
// per-visit ceiling would move whenever the sweep changes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace ccastream;

/// Pre-refactor reference points for one mesh side; `wall_ms` is the
/// wall-clock gate ceiling and `bytes_per_cell` the peak-RSS gate ceiling.
/// Sides without a row (128, 1024) run ungated.
struct Baseline {
  double wall_ms = 0.0;
  double bytes_per_cell = 0.0;
};

std::optional<Baseline> baseline_for(std::uint32_t side) {
  // Ceilings: the measured pre-refactor wall-clock and bytes-per-cell
  // (header comment above) — the SoA layout must beat the AoS layout
  // outright on both axes.
  if (side == 256) return Baseline{19374.5, 5498.0};
  if (side == 512) return Baseline{236321.6, 5490.0};
  return std::nullopt;
}

struct Scenario {
  std::uint32_t side = 0;
  std::uint64_t vertices = 0;
  wl::StreamSchedule sched;
};

/// A windowed ingest sized to the mesh: one vertex per cell and 2x edges,
/// streamed in 3 increments under a 2-increment window, so the final
/// increment carries the first increment's expirations through the
/// deletion-repair path while BFS keeps settling new arrivals.
Scenario make_scenario(std::uint32_t side) {
  Scenario s;
  s.side = side;
  s.vertices = static_cast<std::uint64_t>(side) * side;
  const auto arrivals = wl::make_graphchallenge_like(
      s.vertices, 2 * s.vertices, wl::SamplingKind::kEdge,
      /*increments=*/3, /*seed=*/42);
  s.sched = wl::apply_sliding_window(arrivals, /*window=*/2,
                                     /*drain=*/false);
  return s;
}

struct Measurement {
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  double wall_ms = 0.0;
  std::uint64_t cell_visits = 0;
  std::uint64_t threads = 1;
  std::uint64_t rss_kb = 0;
};

Measurement run_once(const Scenario& sc) {
  sim::ChipConfig cfg = bench::paper_chip_config();
  cfg.width = sc.side;
  cfg.height = sc.side;
  cfg.engine = sim::EngineKind::kActive;

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
  // Sampled while the chip is still alive, so the per-cell state it owns
  // is resident. Scenarios run in ascending size, keeping the lifetime
  // high-water mark equal to the current mesh's peak (see peak_rss_kb).
  m.rss_kb = bench::peak_rss_kb();
  return m;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  bench::JsonReporter reporter("mesh_scale");

  std::vector<std::uint32_t> sides;
  switch (scale) {
    case bench::Scale::kTiny:
      sides = {128};
      break;
    case bench::Scale::kPaper:
    case bench::Scale::kLarge:
      sides = {256, 512};
      break;
  }
  const char* stress = std::getenv("CCASTREAM_STRESS");
  if (stress != nullptr && std::strcmp(stress, "1") == 0) {
    sides.push_back(1024);  // the million-cell mesh
  }
  // CCASTREAM_MESH_MAX caps the mesh side (after scale/stress selection):
  // CI's Release perf-smoke leg gates the 256x256 run on every push
  // without paying the minutes-long 512x512 leg. Unparsable or zero
  // values are ignored, like every other knob.
  if (const char* cap_env = std::getenv("CCASTREAM_MESH_MAX")) {
    const unsigned long cap = std::strtoul(cap_env, nullptr, 10);
    if (cap > 0) {
      std::erase_if(sides, [cap](std::uint32_t s) { return s > cap; });
    }
  }

  bench::print_header(
      (std::string("Mesh scale: windowed streaming BFS, active engine "
                   "(scale ") +
       bench::to_string(scale) + ")")
          .c_str());
  std::printf("%-10s %10s %12s %14s %10s %10s %10s %10s\n", "Mesh",
              "Vertices", "SimCycles", "CellVisits", "Wall ms", "ns/visit",
              "RSS MiB", "B/cell");

  // CCASTREAM_BENCH_REPS: repetitions per scenario, keeping the
  // best (minimum) wall-clock — the classic defense against host noise
  // for wall-clock gates. Simulated results are rep-invariant by the
  // determinism invariant; only wall-clock varies. Default 1; CI's
  // perf-smoke leg uses 3.
  std::uint32_t reps = 1;
  if (const char* reps_env = std::getenv("CCASTREAM_BENCH_REPS")) {
    const unsigned long parsed = std::strtoul(reps_env, nullptr, 10);
    if (parsed > 0 && parsed <= 100) reps = static_cast<std::uint32_t>(parsed);
  }

  bool ok = true;
  for (const std::uint32_t side : sides) {
    const Scenario sc = make_scenario(side);
    Measurement m = run_once(sc);
    for (std::uint32_t rep = 1; rep < reps; ++rep) {
      const Measurement again = run_once(sc);
      const double best_wall = m.wall_ms;
      // peak_rss_kb is the process-lifetime high water, so the latest
      // sample is the honest (monotone) one regardless of which rep wins
      // on wall-clock.
      m = again;
      m.wall_ms = std::min(m.wall_ms, best_wall);
    }
    const std::uint64_t cells = static_cast<std::uint64_t>(side) * side;
    const double per_visit_ns =
        m.cell_visits != 0 ? m.wall_ms * 1e6 / static_cast<double>(m.cell_visits)
                           : 0.0;
    const double bytes_per_cell =
        static_cast<double>(m.rss_kb) * 1024.0 / static_cast<double>(cells);
    const std::string label = "mesh" + std::to_string(side);

    std::printf("%-10s %10lu %12lu %14lu %10.1f %10.2f %10.1f %10.0f\n",
                label.c_str(), static_cast<unsigned long>(sc.vertices),
                static_cast<unsigned long>(m.cycles),
                static_cast<unsigned long>(m.cell_visits), m.wall_ms,
                per_visit_ns,
                static_cast<double>(m.rss_kb) / 1024.0, bytes_per_cell);

    if (const auto base = baseline_for(side)) {
      if (m.wall_ms >= base->wall_ms) {
        std::fprintf(stderr,
                     "WALL-CLOCK GATE MISSED: %.1f ms >= pre-refactor "
                     "%.1f ms at %s\n",
                     m.wall_ms, base->wall_ms, label.c_str());
        ok = false;
      }
      if (base->bytes_per_cell > 0.0 && m.rss_kb != 0 &&
          bytes_per_cell >= base->bytes_per_cell) {
        std::fprintf(stderr,
                     "RSS GATE MISSED: %.0f B/cell >= pre-refactor bound "
                     "%.0f B/cell at %s\n",
                     bytes_per_cell, base->bytes_per_cell, label.c_str());
        ok = false;
      }
    }

    bench::BenchRecord rec;
    rec.dataset = label;
    rec.cycles = m.cycles;
    rec.energy_uj = m.energy_uj;
    rec.threads = m.threads;
    rec.wall_ms = m.wall_ms;
    rec.engine = "active";
    rec.cell_visits = m.cell_visits;
    rec.rss_kb = m.rss_kb;
    reporter.record(rec);
  }
  return ok ? 0 : 1;
}
