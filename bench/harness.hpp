// Shared experiment harness for the paper-reproduction benchmarks.
//
// Scale control (environment):
//   CCASTREAM_SCALE=tiny   — smoke-test sizes (seconds; CI-friendly)
//   CCASTREAM_SCALE=paper  — the paper's 50K-vertex rows at full size and
//                            the 500K rows scaled 1/5 (default)
//   CCASTREAM_SCALE=large  — the full 500K/10.2M rows as well
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccastream/ccastream.hpp"

namespace ccastream::bench {

struct DatasetSpec {
  std::string label;         ///< e.g. "50K"
  std::uint64_t vertices;
  std::uint64_t edges;
  bool scaled = false;       ///< true if reduced from the paper's size
};

enum class Scale { kTiny, kPaper, kLarge };

inline Scale scale_from_env() {
  const char* s = std::getenv("CCASTREAM_SCALE");
  if (s == nullptr) return Scale::kPaper;
  if (std::strcmp(s, "tiny") == 0) return Scale::kTiny;
  if (std::strcmp(s, "large") == 0) return Scale::kLarge;
  return Scale::kPaper;
}

/// Peak resident set of this process in KiB (`VmHWM` from
/// /proc/self/status), or 0 where the procfs interface is unavailable.
/// The counter is a process-lifetime high-water mark — it never resets —
/// so benches that sweep several footprints should run them in ascending
/// size order, making each sample the current scenario's peak.
inline std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// The two dataset rows of paper Table 1, at the configured scale.
inline std::vector<DatasetSpec> datasets(Scale scale) {
  switch (scale) {
    case Scale::kTiny:
      return {{"2K(tiny)", 2'000, 40'000, true},
              {"8K(tiny)", 8'000, 160'000, true}};
    case Scale::kPaper:
      return {{"50K", 50'000, 1'000'000, false},
              {"500K(1/5)", 100'000, 2'040'000, true}};
    case Scale::kLarge:
      return {{"50K", 50'000, 1'000'000, false},
              {"500K", 500'000, 10'200'000, false}};
  }
  return {};
}

/// The paper's chip: 32x32 mesh, YX routing, vicinity allocation. The
/// thread count is left at 0 (= CCASTREAM_THREADS env, default serial) so
/// a whole bench sweep can be re-run on the parallel backend by exporting
/// one variable; results are cycle-identical either way.
inline sim::ChipConfig paper_chip_config() {
  sim::ChipConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.routing = sim::RoutingPolicyKind::kYX;
  cfg.alloc_policy = rt::AllocPolicyKind::kVicinity;
  cfg.vicinity_radius = 2;
  cfg.cc_memory_bytes = 4u << 20;
  return cfg;
}

/// Which vertex program an experiment installs. kNone is the ingestion-only
/// variant (hooks disabled — the paper's "disabling the subsequent
/// propagation of bfs-action").
enum class AppKind { kNone, kBfs, kSssp, kComponents };

inline const char* to_string(AppKind app) {
  switch (app) {
    case AppKind::kNone: return "none";
    case AppKind::kBfs: return "bfs";
    case AppKind::kSssp: return "sssp";
    case AppKind::kComponents: return "components";
  }
  return "none";
}

/// One assembled experiment: chip + protocol + installed app + graph. Only
/// the requested app is built (none for the ingestion-only kNone).
struct Experiment {
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<apps::MonotoneApp> app;
  std::unique_ptr<graph::StreamingGraph> graph;
};

/// Builds a streaming experiment running `app`. `source` seeds BFS/SSSP
/// (components self-seeds every vertex with its own label).
inline Experiment make_experiment(const sim::ChipConfig& cfg,
                                  std::uint64_t num_vertices, AppKind app,
                                  std::uint64_t source) {
  Experiment e;
  e.chip = std::make_unique<sim::Chip>(cfg);
  e.proto = std::make_unique<graph::GraphProtocol>(*e.chip);
  switch (app) {
    case AppKind::kNone:  // ingestion only: the protocol's empty hooks
      break;
    case AppKind::kBfs:
      e.app = std::make_unique<apps::StreamingBfs>(*e.proto);
      break;
    case AppKind::kSssp:
      e.app = std::make_unique<apps::StreamingSssp>(*e.proto);
      break;
    case AppKind::kComponents:
      e.app = std::make_unique<apps::StreamingComponents>(*e.proto);
      break;
  }
  if (e.app) e.app->install();
  graph::GraphConfig gc;
  gc.num_vertices = num_vertices;
  gc.root_init = e.proto->hooks().ghost_init;  // roots start like ghosts
  e.graph = std::make_unique<graph::StreamingGraph>(*e.proto, gc);
  if (app == AppKind::kComponents) {
    static_cast<const apps::StreamingComponents&>(*e.app).seed_labels(*e.graph);
  } else if (e.app) {
    e.app->seed(*e.graph, source, 0);
  }
  return e;
}

/// Streams every increment of a schedule; returns per-increment reports.
inline std::vector<graph::IncrementReport> run_schedule(
    Experiment& e, const wl::StreamSchedule& sched) {
  std::vector<graph::IncrementReport> reports;
  reports.reserve(sched.increments.size());
  for (const auto& inc : sched.increments) {
    reports.push_back(e.graph->stream_increment(inc));
  }
  return reports;
}

inline std::uint64_t total_cycles(const std::vector<graph::IncrementReport>& r) {
  std::uint64_t c = 0;
  for (const auto& x : r) c += x.cycles;
  return c;
}

inline double total_energy_uj(const std::vector<graph::IncrementReport>& r) {
  double e = 0;
  for (const auto& x : r) e += x.energy_uj;
  return e;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline const char* to_string(Scale scale) {
  switch (scale) {
    case Scale::kTiny: return "tiny";
    case Scale::kPaper: return "paper";
    case Scale::kLarge: return "large";
  }
  return "paper";
}

// ---------------------------------------------------------------------------
// Machine-readable reporting: each bench emits one headline JSON record per
// run so every PR leaves a perf datapoint (aggregated into BENCH_*.json by
// tools/run_benches.sh).

/// One measurement record: `{"bench":...,"dataset":...,"cycles":N,
/// "energy_uj":X,"scale":...,"threads":T,"engine":E
/// [,"wall_ms":W][,"cell_visits":V][,"rss_kb":R],"host_cores":H}`.
/// `threads` and `engine` identify the simulator backend the record was
/// measured on (1 = serial; engine as in CCASTREAM_ENGINE, "scan" or
/// "active"), making records comparable across
/// backends in aggregated BENCH_*.json files. `wall_ms` is host wall-clock
/// and `cell_visits` the phase-sweep visit total (`Chip::cell_visits()`) —
/// the only numbers that *should* differ across backends (simulated
/// cycles are backend-invariant by the determinism guarantee); 0 means
/// unmeasured and the field is omitted. `rss_kb` is the process's peak
/// resident set (`VmHWM` from /proc/self/status, in KiB) sampled right
/// after the measurement — the memory-side currency for the mesh-scale
/// benches, where per-cell state dominates the footprint; 0 means
/// unmeasured (e.g. a non-Linux host) and the field is omitted.
/// `host_cores` records the host machine's logical core count
/// (`std::thread::hardware_concurrency()`), giving the wall_ms numbers in
/// aggregated files the hardware context needed to compare them across
/// machines; the reporter stamps it on every record it writes.
struct BenchRecord {
  std::string bench;
  std::string dataset;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  std::string scale;
  std::uint64_t threads = 1;
  double wall_ms = 0.0;
  std::string engine = "scan";
  std::uint64_t cell_visits = 0;
  std::uint64_t rss_kb = 0;
  std::uint64_t host_cores = 1;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/// Replaces filesystem-hostile characters in a dataset label ('/' would
/// introduce a directory component) for use in output filenames.
inline std::string path_safe_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (c == '/' || c == '\\' || c == ' ') c = '-';
  }
  return out;
}

/// Serialises one record as a single-line JSON object (read back by
/// tools/check_bench_records.py). `%.17g` keeps the doubles bit-exact.
inline std::string format_record(const BenchRecord& r) {
  char num[64];
  std::string out = "{\"bench\":\"" + json_escape(r.bench) + "\"";
  out += ",\"dataset\":\"" + json_escape(r.dataset) + "\"";
  std::snprintf(num, sizeof num, "%llu",
                static_cast<unsigned long long>(r.cycles));
  out += std::string(",\"cycles\":") + num;
  std::snprintf(num, sizeof num, "%.17g", r.energy_uj);
  out += std::string(",\"energy_uj\":") + num;
  out += ",\"scale\":\"" + json_escape(r.scale) + "\"";
  std::snprintf(num, sizeof num, "%llu",
                static_cast<unsigned long long>(r.threads));
  out += std::string(",\"threads\":") + num;
  out += ",\"engine\":\"" + json_escape(r.engine) + "\"";
  if (r.wall_ms != 0.0) {
    std::snprintf(num, sizeof num, "%.17g", r.wall_ms);
    out += std::string(",\"wall_ms\":") + num;
  }
  if (r.cell_visits != 0) {
    std::snprintf(num, sizeof num, "%llu",
                  static_cast<unsigned long long>(r.cell_visits));
    out += std::string(",\"cell_visits\":") + num;
  }
  if (r.rss_kb != 0) {
    std::snprintf(num, sizeof num, "%llu",
                  static_cast<unsigned long long>(r.rss_kb));
    out += std::string(",\"rss_kb\":") + num;
  }
  std::snprintf(num, sizeof num, "%llu",
                static_cast<unsigned long long>(r.host_cores));
  out += std::string(",\"host_cores\":") + num;
  out += "}";
  return out;
}

/// Appends records (JSON Lines) to the file named by CCASTREAM_BENCH_JSON;
/// a no-op when the variable is unset, so interactive runs stay unchanged.
/// Benches whose workload ignores CCASTREAM_SCALE pass `fixed_scale` so
/// identical measurements are never tagged with different scales.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench, const char* fixed_scale = nullptr)
      : bench_(std::move(bench)),
        scale_(fixed_scale != nullptr ? fixed_scale
                                      : to_string(scale_from_env())),
        threads_(sim::resolve_threads(0)),
        engine_(sim::to_string(sim::resolve_engine({}))),
        // hardware_concurrency() may report 0 on hosts it cannot probe;
        // fall back to 1 rather than writing an impossible core count.
        host_cores_(std::max(1u, std::thread::hardware_concurrency())) {
    const char* path = std::getenv("CCASTREAM_BENCH_JSON");
    if (path != nullptr && *path != '\0') path_ = path;
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Appends one record. `threads` should be the *measured* backend — pass
  /// `chip.threads()` (the resolved worker count, which clamps the env
  /// request to the mesh height) rather than the raw env
  /// value; 0 falls back to the env-resolved default for chip-less
  /// measurements. `engine` likewise should be the measured engine
  /// (`to_string(chip.engine())`); empty falls back to the env-resolved
  /// default. `wall_ms` and `cell_visits`, when nonzero,
  /// persist host wall-clock and the phase-loop visit total so backend
  /// speedup is trackable from the aggregated BENCH_*.json files.
  /// Measurements carrying more fields (rss_kb) use the BenchRecord
  /// overload below and name them.
  void record(const std::string& dataset, std::uint64_t cycles,
              double energy_uj, std::uint64_t threads = 0,
              double wall_ms = 0.0, const std::string& engine = {},
              std::uint64_t cell_visits = 0) const {
    BenchRecord r;
    r.dataset = dataset;
    r.cycles = cycles;
    r.energy_uj = energy_uj;
    r.threads = threads;
    r.wall_ms = wall_ms;
    r.engine = engine;
    r.cell_visits = cell_visits;
    record(r);
  }

  /// Struct form for measurements with many optional fields: callers
  /// name each field instead of threading a long positional tail of
  /// same-typed integers. `bench` and `scale` are
  /// overwritten by the reporter; threads/engine fall back to
  /// the env-resolved defaults when left 0/empty.
  void record(BenchRecord r) const {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
      return;
    }
    r.bench = bench_;
    r.scale = scale_;
    if (r.threads == 0) r.threads = threads_;
    if (r.engine.empty()) r.engine = engine_;
    // Like `bench` and `scale`, the host's logical core count is always
    // the reporter's to stamp: wall_ms without the hardware it was
    // measured on is not comparable across machines.
    r.host_cores = host_cores_;
    std::fprintf(f, "%s\n", format_record(r).c_str());
    std::fclose(f);
  }

 private:
  std::string bench_;
  std::string scale_;
  std::string path_;
  std::uint64_t threads_ = 1;
  std::string engine_ = "scan";
  std::uint64_t host_cores_ = 1;
};

}  // namespace ccastream::bench
