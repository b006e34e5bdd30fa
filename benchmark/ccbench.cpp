// ccbench — the end-to-end streaming benchmark of ccastream.
//
//   ccbench --workload W --seed S [--seconds N] [--trace DIR] [--smoke]
//
// The seed selects only the generated inputs: an SBM graph streamed in
// edge-sampled increments and encoded as a binary increment log. Everything
// else (chip geometry, chip seed, engine, partition, thread count, queue
// policy) is fixed in the workload table below, and every CCASTREAM_*
// environment variable is removed before the first chip is built, so
// nothing outside this file can change a workload.
//
// A run first streams a reference input, the same for every seed, whose
// modelled cycles and energy are the run's sim_* metrics; that pass also
// warms the process up. It then repeats passes over the seeded input until
// --seconds have elapsed. Each pass builds a fresh chip + graph + BFS app
// (timed as set-up), streams the whole log, reads the refreshed result
// while streaming, and checks every read and the final levels against
// base::DynamicBfs. Modelled cycles and energy must repeat exactly in every
// pass. Times are medians over passes, or percentiles over the samples
// pooled from all passes.
//
// Layers are timed from outside, around calls into their public functions:
// io decode, graph stream_increment / save_snapshot, svc submit / snapshot
// / query, baseline bfs_levels. Without --trace the run prints the
// end-to-end metrics. With --trace DIR it alternates untraced and traced
// passes, keeps spans in memory and writes them as Chrome trace-event JSON
// to DIR/<workload>.trace.json, adds the replay passes the per-layer
// metrics need, and prints the per-layer metrics, host times of the
// untraced passes included. The last line of stdout is one JSON record;
// the process exits 1 when a check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ccastream/ccastream.hpp"

extern char** environ;

using namespace ccastream;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

constexpr std::uint64_t kSource = 0;  ///< BFS source in every workload.
/// Generator seed of the reference input behind sim_cycles / sim_energy_uj.
constexpr std::uint64_t kReferenceSeed = 1;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User + system time of the whole process (all threads), in seconds.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// VmHWM (peak resident set) in MiB; 0 when /proc is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  std::uint32_t width, height;
  std::size_t scratchpad_bytes;
  std::uint32_t threads;
  std::uint64_t vertices, edges;
  std::uint32_t increments;
  std::uint32_t window;  ///< Sliding window in increments; 0 = insert-only.
  bool service;          ///< Through svc::StreamService, not batch calls.
};

// Why each workload exists is recorded in benchmark/README.md; in short:
//   bfs_ingest   dense frontier on the paper's chip: sim per-visit cost and
//                the graph insert path dominate; svc is bypassed.
//   bfs_window   the same chip with a sliding window: 44% of the ops are
//                deletes, so apps/repair's invalidate/resettle waves dominate.
//   mesh_sparse  a 128x128 mesh at 4 threads with about a fifth of the cells
//                live per cycle: active-set sweeps, barriers and partition
//                traffic dominate. It is sized so that 4 threads ran 2.2x
//                faster than 1 (sim.speedup_vs_1t) when the host's vCPUs
//                were not stolen; with a sparser frontier they run no
//                faster even then.
//   serve_replay the service layer: closed-loop ingest through
//                StreamService with a watcher and an open-loop reader.
constexpr Workload kWorkloads[] = {
    {"bfs_ingest", 32, 32, 4u << 20, 1, 12'500, 250'000, 50, 0, false},
    {"bfs_window", 32, 32, 4u << 20, 1, 4'000, 40'000, 40, 8, false},
    {"mesh_sparse", 128, 128, 1u << 20, 4, 12'288, 196'608, 24, 0, false},
    {"serve_replay", 16, 16, 1u << 20, 1, 2'048, 61'440, 150, 0, true},
};

/// The --smoke inputs: about 20x fewer edges, for the schema self-test.
Workload smoke(Workload w) {
  w.vertices = std::max<std::uint64_t>(w.vertices / 20, 64);
  w.edges /= 20;
  w.increments = std::max<std::uint32_t>(w.increments / 5, 8);
  w.window = w.window == 0 ? 0 : std::max<std::uint32_t>(w.window / 4, 2);
  return w;
}

/// Every field that can change host cost is set here; none is left to an
/// environment default.
sim::ChipConfig chip_config(const Workload& w, std::uint32_t threads) {
  sim::ChipConfig cfg;
  cfg.width = w.width;
  cfg.height = w.height;
  cfg.routing = sim::RoutingPolicyKind::kYX;
  cfg.alloc_policy = rt::AllocPolicyKind::kVicinity;
  cfg.vicinity_radius = 2;
  cfg.cc_memory_bytes = w.scratchpad_bytes;
  cfg.seed = 42;
  cfg.threads = threads;
  cfg.partition = sim::PartitionSpec{};  // row stripes, no rebalancing
  cfg.engine = sim::EngineKind::kActive;
  cfg.check_level = rt::CheckLevel::off;
  return cfg;
}

constexpr svc::QueueSpec kQueue{svc::QueuePolicy::kBlock, 8};

/// Open-loop reader rate of serve_replay: one query every 2.5 ms (400/s),
/// alternating kAppWord and kBfs.
constexpr auto kReadPeriod = std::chrono::microseconds(2500);
/// The watcher polls the published snapshot at least this often.
constexpr auto kWatchPeriod = std::chrono::microseconds(200);
/// Set-ups timed on their own before every pass. setup_s is the upper
/// quartile of all of them: the host runs this code in two speed modes,
/// about 1.6x apart, that switch within seconds, and a run's median flips
/// between them while its upper quartile stays in the slower, more common
/// one (benchmark/README.md, "Statistics").
constexpr int kSetupsPerPass = 10;

void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.starts_with("CCASTREAM_")) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

// --- Inputs -------------------------------------------------------------------

struct Inputs {
  std::string log;  ///< io::write_increment_log bytes.
  std::uint64_t increments = 0, ops = 0, deletes = 0;
  /// Oracle BFS levels after batch k (index 0 = before any batch).
  std::vector<std::vector<rt::Word>> levels;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  wl::StreamSchedule sched = wl::make_graphchallenge_like(
      w.vertices, w.edges, wl::SamplingKind::kEdge, w.increments, seed);
  if (w.window != 0) sched = wl::apply_sliding_window(sched, w.window);

  Inputs in;
  std::ostringstream log(std::ios::binary);
  io::write_increment_log(log, w.vertices, sched.increments);
  in.log = std::move(log).str();
  in.increments = sched.increments.size();

  base::DynamicBfs oracle(w.vertices, kSource);
  in.levels.push_back(oracle.levels());
  for (const auto& inc : sched.increments) {
    oracle.apply_increment(inc);
    in.levels.push_back(oracle.levels());
    in.ops += inc.size();
    for (const auto& e : inc) in.deletes += e.is_delete() ? 1 : 0;
  }
  return in;
}

// --- Tracing ------------------------------------------------------------------

struct Span {
  const char* name;
  Clock::time_point start, end;
  std::uint64_t batch;  ///< Parent id: the batch the span belongs to.
  int tid;
};

/// Spans of one thread; written out only when the benchmark ends.
struct SpanLog {
  bool on = false;
  int tid = 0;
  std::vector<Span> spans;

  void add(const char* name, Clock::time_point a, Clock::time_point b,
           std::uint64_t batch) {
    if (on) spans.push_back({name, a, b, batch, tid});
  }
};

/// Host time one span costs the thread that records it, in ns: the push
/// into its buffer, the only work tracing adds (every timestamp a span
/// holds is taken in untraced passes too). Median of five timed bursts.
double span_cost_ns() {
  constexpr std::uint64_t kSpans = 1 << 16;
  const auto now = Clock::now();
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    SpanLog log{true, 0, {}};
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSpans; ++i) log.add("span", now, now, i);
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                 static_cast<double>(log.spans.size()));
  }
  return median(ns);
}

void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<std::vector<Span>>& passes) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (const Span& s : passes[p]) {
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - kEpoch).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":" << p << ",\"tid\":" << s.tid
          << ",\"ts\":" << ts << ",\"dur\":" << dur
          << ",\"args\":{\"batch\":" << s.batch << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

// --- One pass -----------------------------------------------------------------

/// One chip + graph + BFS app, set up the way a user starts a streaming run.
struct Rig {
  Rig(const Workload& w, std::uint32_t threads)
      : chip(chip_config(w, threads)), proto(chip, rpvo()), bfs(proto) {
    bfs.install();
    graph::GraphConfig gc;
    gc.num_vertices = w.vertices;
    gc.placement = graph::PlacementPolicy::kRoundRobin;
    gc.root_init = apps::StreamingBfs::initial_state();
    gc.rhizomes = 1;
    const auto t0 = Clock::now();
    graph.emplace(proto, gc);
    build_ms = ms_between(t0, Clock::now());
    bfs.set_source(*graph, kSource);
  }

  static graph::RpvoConfig rpvo() {
    graph::RpvoConfig rc;
    rc.edge_capacity = 16;
    rc.ghost_fanout = 1;
    return rc;
  }

  sim::Chip chip;
  graph::GraphProtocol proto;
  apps::StreamingBfs bfs;
  std::optional<graph::StreamingGraph> graph;
  double build_ms = 0.0;
};

struct Pass {
  bool traced = false;
  double setup_s = 0.0, build_ms = 0.0, decode_ms = 0.0;
  double stream_s = 0.0;  ///< First hand-off to last result visible.
  double cpu_s = 0.0;     ///< Process CPU time over the streaming phase.
  std::uint64_t ops = 0, queries = 0, failed = 0;

  /// Batch mode: visible_ms is the stream_increment call itself.
  std::vector<double> visible_ms, publish_ms, latch_ms;
  std::vector<double> insert_increment_ms, repair_increment_ms;
  std::vector<double> app_ms, bfs_ms, view_build_ms, bfs_compute_ms, late_ms;
  std::vector<double> queue_depth, staleness;
  /// Per publish interval: was the batch already queued when its
  /// predecessor became visible (so the interval is pure service time)?
  std::vector<bool> back_to_back;
  double submit_blocked_ms = 0.0;
  std::uint64_t batches_dropped = 0;

  std::uint64_t repair_cycles = 0, repair_ops = 0;
  std::vector<double> save_snapshot_ms;  ///< Traced batch passes only.
  double energy_uj = 0.0;
  graph::ProtocolStats proto;
  sim::ChipStats chip;
  std::uint64_t visits = 0, syncs = 0;

  std::vector<Span> spans;
  std::vector<std::string> errors;
};

std::vector<rt::Word> read_levels(const Rig& rig, std::uint64_t n) {
  std::vector<rt::Word> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(rig.bfs.level_of(*rig.graph, i));
  return v;
}

base::RefGraph read_graph(const Rig& rig, std::uint64_t n) {
  base::RefGraph g(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    for (const auto& [dst, weight] : rig.graph->neighbors(v)) g.add_edge(v, dst, weight);
  }
  return g;
}

void record_model(const Rig& rig, Pass& p) {
  p.energy_uj = sim::pj_to_uj(rig.chip.energy_pj());
  p.chip = rig.chip.stats();
  p.proto = rig.proto.stats();
  p.visits = rig.chip.cell_visits();
  p.syncs = rig.chip.barrier_syncs();
}

/// Batch mode: the caller hands each decoded increment to stream_increment
/// and, once it returns, reads the refreshed result both ways (closed
/// loop): the app's level words, then a BFS recomputed over the graph read
/// back from the chip.
void stream_batch(Rig& rig, const Workload& w, const Inputs& in, Pass& p) {
  SpanLog spans{p.traced, 0, {}};
  std::istringstream log(in.log, std::ios::binary);
  io::IncrementLogReader reader(log);
  Clock::time_point prev_visible;
  for (std::uint64_t k = 1;; ++k) {
    const auto d0 = Clock::now();
    std::optional<std::vector<StreamEdge>> inc = reader.next();
    const auto d1 = Clock::now();
    if (!inc) break;
    p.decode_ms += ms_between(d0, d1);
    spans.add("decode", d0, d1, k);

    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const graph::IncrementReport rep = rig.graph->stream_increment(*inc);
    const auto t1 = Clock::now();
    p.cpu_s += cpu_seconds() - c0;
    spans.add("increment", t0, t1, k);

    const double ms = ms_between(t0, t1);
    p.stream_s += ms / 1000.0;
    p.visible_ms.push_back(ms);
    p.submit_blocked_ms += ms;
    p.queue_depth.push_back(0.0);
    if (k > 1) {
      p.publish_ms.push_back(ms_between(prev_visible, t1));
      p.latch_ms.push_back(p.publish_ms.back() - ms);
    }
    prev_visible = t1;
    p.ops += rep.edges;
    if (rep.deletes != 0) {
      p.repair_increment_ms.push_back(ms);
      p.repair_cycles += rep.cycles;
      p.repair_ops += rep.edges;
    } else {
      p.insert_increment_ms.push_back(ms);
    }

    // The first read is due the moment the result is visible, the second
    // when the first returns.
    const auto q0 = Clock::now();
    p.late_ms.push_back(ms_between(t1, q0));
    const std::vector<rt::Word> app = read_levels(rig, w.vertices);
    const auto q1 = Clock::now();
    const base::RefGraph g = read_graph(rig, w.vertices);
    const auto q2 = Clock::now();
    const std::vector<rt::Word> bfs = base::bfs_levels(g, kSource);
    const auto q3 = Clock::now();
    p.app_ms.push_back(ms_between(t1, q1));
    p.view_build_ms.push_back(ms_between(q1, q2));
    p.bfs_compute_ms.push_back(ms_between(q2, q3));
    p.bfs_ms.push_back(ms_between(q1, q3));
    spans.add("query.app", q0, q1, k);
    spans.add("query.bfs", q1, q3, k);
    p.queries += 2;
    p.staleness.push_back(0.0);
    if ((app != in.levels[k] || bfs != in.levels[k]) && p.errors.empty()) {
      p.errors.push_back("read after batch " + std::to_string(k) +
                         " differs from the oracle");
    }
  }
  p.spans = std::move(spans.spans);
}

/// Service mode: the main thread is a closed-loop producer (decode, then
/// submit, blocking when the queue is full); a watcher polls the published
/// snapshot's seq; an open-loop reader issues a query every kReadPeriod
/// and times it from when it was due.
void stream_service(svc::StreamService& service, const Inputs& in, Pass& p) {
  const std::uint64_t n = in.increments;
  std::vector<Clock::time_point> submit_at(n + 1), visible_at(n + 1);
  std::atomic<std::uint64_t> offered{0}, seen{0};
  std::atomic<bool> abort{false};
  SpanLog producer_spans{p.traced, 0, {}}, watcher_spans{p.traced, 1, {}},
      reader_spans{p.traced, 2, {}};
  std::vector<std::string> watcher_errors, reader_errors;
  Pass reader_pass;  // the reader's samples, merged after join

  const double c0 = cpu_seconds();
  const auto start = Clock::now();

  std::thread watcher([&] {
    std::uint64_t last = 0;
    while (last < n && !abort.load()) {
      const std::uint64_t s = service.snapshot()->seq();
      const auto now = Clock::now();
      if (s < last) {
        watcher_errors.push_back("published seq went backwards");
        abort.store(true);
        break;
      }
      if (s > last) {
        for (std::uint64_t j = last + 1; j <= s; ++j) visible_at[j] = now;
        last = s;
        seen.store(s);
      } else {
        std::this_thread::sleep_for(kWatchPeriod);
      }
    }
  });

  std::thread reader([&] {
    std::uint64_t last_seq = 0;
    for (std::uint64_t i = 0; seen.load() < n && !abort.load(); ++i) {
      const auto due = start + i * kReadPeriod;
      std::this_thread::sleep_until(due);
      const auto q0 = Clock::now();
      svc::QueryRequest req;
      const bool app = i % 2 == 0;
      req.kind = app ? svc::QueryKind::kAppWord : svc::QueryKind::kBfs;
      req.source = kSource;
      req.app_word = apps::StreamingBfs::kLevelWord;
      svc::QueryResult res;
      try {
        res = service.query(req);
      } catch (const std::exception& e) {
        ++reader_pass.failed;
        reader_errors.push_back(std::string("query failed: ") + e.what());
        continue;
      }
      const auto q1 = Clock::now();
      const std::uint64_t watched = seen.load();
      const std::uint64_t input = offered.load();
      reader_pass.late_ms.push_back(ms_between(due, q0));
      (app ? reader_pass.app_ms : reader_pass.bfs_ms).push_back(ms_between(due, q1));
      reader_spans.add(app ? "query.app" : "query.bfs", q0, q1, res.seq);
      reader_pass.staleness.push_back(
          watched > res.seq ? static_cast<double>(watched - res.seq) : 0.0);
      ++reader_pass.queries;
      if (reader_errors.empty()) {
        if (res.seq < last_seq) {
          reader_errors.push_back("query seq went backwards");
        } else if (res.seq > input) {
          reader_errors.push_back("query answered from a batch not yet submitted");
        } else if (res.values != in.levels[res.seq]) {
          reader_errors.push_back("query at seq " + std::to_string(res.seq) +
                                  " differs from the oracle");
        }
      }
      last_seq = res.seq;
    }
  });

  try {
    std::istringstream log(in.log, std::ios::binary);
    io::IncrementLogReader reader_log(log);
    for (std::uint64_t k = 1;; ++k) {
      const auto d0 = Clock::now();
      std::optional<std::vector<StreamEdge>> inc = reader_log.next();
      const auto d1 = Clock::now();
      if (!inc) break;
      p.decode_ms += ms_between(d0, d1);
      producer_spans.add("decode", d0, d1, k);
      const svc::ServiceStats st = service.stats();
      p.queue_depth.push_back(
          static_cast<double>(st.batches_submitted - st.batches_executed));
      const std::uint64_t size = inc->size();
      offered.store(k);
      submit_at[k] = Clock::now();
      const bool accepted = service.submit(std::move(*inc));
      const auto s1 = Clock::now();
      p.submit_blocked_ms += ms_between(submit_at[k], s1);
      producer_spans.add("submit", submit_at[k], s1, k);
      p.ops += size;
      if (!accepted) p.failed += size;
    }
    service.flush();
  } catch (const std::exception& e) {
    p.errors.push_back(std::string("service failed: ") + e.what());
    p.failed += in.ops - p.ops;
    abort.store(true);
  }
  watcher.join();
  reader.join();
  p.cpu_s = cpu_seconds() - c0;

  for (auto& e : watcher_errors) p.errors.push_back(std::move(e));
  for (auto& e : reader_errors) p.errors.push_back(std::move(e));
  p.failed += reader_pass.failed;
  p.queries = reader_pass.queries;
  p.late_ms = std::move(reader_pass.late_ms);
  p.app_ms = std::move(reader_pass.app_ms);
  p.bfs_ms = std::move(reader_pass.bfs_ms);
  p.staleness = std::move(reader_pass.staleness);
  if (!p.errors.empty()) return;

  p.stream_s = ms_between(start, visible_at[n]) / 1000.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    p.visible_ms.push_back(ms_between(submit_at[k], visible_at[k]));
    watcher_spans.add("visible", submit_at[k], visible_at[k], k);
    if (k > 1) {
      p.publish_ms.push_back(ms_between(visible_at[k - 1], visible_at[k]));
      p.back_to_back.push_back(submit_at[k] <= visible_at[k - 1]);
    }
  }
  p.spans = std::move(producer_spans.spans);
  for (auto* log : {&watcher_spans, &reader_spans}) {
    p.spans.insert(p.spans.end(), log->spans.begin(), log->spans.end());
  }

  p.batches_dropped = service.stats().batches_dropped;
  if (p.batches_dropped != 0) {
    p.errors.push_back(std::to_string(p.batches_dropped) + " batches dropped");
  }
  svc::QueryRequest req;
  req.kind = svc::QueryKind::kAppWord;
  req.app_word = apps::StreamingBfs::kLevelWord;
  const svc::QueryResult last = service.query(req);
  if (last.seq != n || last.values != in.levels[n]) {
    p.errors.push_back("final kAppWord query differs from the oracle");
  }
}

/// Latch estimate for serve_replay: for each batch that was already queued
/// when its predecessor became visible, the publish interval minus the
/// time the same batch takes in a batch-mode twin.
void derive_latch(Pass& p, const std::vector<double>& twin_increment_ms) {
  // publish_ms[i] is the interval that ends when batch i + 2 is visible.
  p.latch_ms.clear();
  for (std::size_t i = 0; i < p.publish_ms.size(); ++i) {
    if (p.back_to_back[i]) {
      p.latch_ms.push_back(p.publish_ms[i] - twin_increment_ms[i + 1]);
    }
  }
}

struct Run {
  std::vector<Pass> passes;
  std::vector<double> setup_s;  ///< The set-ups timed before the passes.
  std::vector<std::string> errors;
  /// Modelled totals of the reference input (see main).
  std::uint64_t model_cycles = 0;
  double model_energy_uj = 0.0;
  // Traced extras.
  std::vector<double> save_snapshot_ms, twin_increment_ms, twin_view_build_ms,
      twin_bfs_ms;
  double twin_stream_s = 0.0;
  std::uint64_t twin_visits = 0, twin_cycles = 0;
  double speedup_vs_1t = 1.0;
};

/// What a user builds before the first increment: the rig and, in service
/// workloads, the running service (which latches the empty graph).
struct Stack {
  std::unique_ptr<Rig> rig;
  std::unique_ptr<svc::StreamService> service;  // destroyed before the rig
  double setup_s = 0.0;
};

Stack set_up(const Workload& w, std::uint32_t threads) {
  Stack s;
  const auto t0 = Clock::now();
  s.rig = std::make_unique<Rig>(w, threads);
  if (w.service) {
    s.service = std::make_unique<svc::StreamService>(
        *s.rig->graph, svc::StreamService::Config{kQueue});
  }
  s.setup_s = ms_between(t0, Clock::now()) / 1000.0;
  return s;
}

Pass run_pass(const Workload& w, const Inputs& in, bool traced,
              std::uint32_t threads) {
  Pass p;
  p.traced = traced;
  Stack stack = set_up(w, threads);
  auto& rig = stack.rig;
  auto& service = stack.service;
  p.setup_s = stack.setup_s;
  p.build_ms = rig->build_ms;

  try {
    if (service) {
      stream_service(*service, in, p);
    } else {
      stream_batch(*rig, w, in, p);
    }
  } catch (const std::exception& e) {
    p.errors.push_back(std::string("stream failed: ") + e.what());
  }
  if (service) {
    service->stop();  // the engine thread writes the chip until it is joined
    std::uint64_t cycles = 0;
    for (const auto& r : service->batch_reports()) cycles += r.cycles;
    if (p.errors.empty() && cycles != rig->chip.stats().cycles) {
      p.errors.push_back("batch_reports cycles do not sum to the chip total");
    }
  }
  if (p.errors.empty() && read_levels(*rig, w.vertices) != in.levels.back()) {
    p.errors.push_back("final BFS levels differ from base::DynamicBfs");
  }
  record_model(*rig, p);
  if (traced && !service) {
    // What a snapshot of the final graph costs; serve_replay's twin times
    // one per batch instead.
    for (int i = 0; i < 3; ++i) {
      std::ostringstream text;
      const auto t0 = Clock::now();
      rig->graph->save_snapshot(text);
      p.save_snapshot_ms.push_back(ms_between(t0, Clock::now()));
    }
  }
  return p;
}

/// serve_replay's traced extra: the same log through a batch-mode twin,
/// timing each increment, each save_snapshot, and the read path
/// (snapshot digest -> SnapshotView::ref_graph -> base::bfs_levels).
void twin_replay(const Workload& w, const Inputs& in, Run& run) {
  try {
    Rig twin(w, 1);
    std::istringstream log(in.log, std::ios::binary);
    io::IncrementLogReader reader(log);
    for (std::uint64_t k = 1;; ++k) {
      std::optional<std::vector<StreamEdge>> inc = reader.next();
      if (!inc) break;
      const auto t0 = Clock::now();
      twin.graph->stream_increment(*inc);
      const auto t1 = Clock::now();
      std::ostringstream text;
      twin.graph->save_snapshot(text);
      const auto t2 = Clock::now();
      std::istringstream parse(std::move(text).str());
      const svc::SnapshotView view(graph::parse_snapshot_digest(parse), k);
      const auto t3 = Clock::now();
      const base::RefGraph g = view.ref_graph();
      const auto t4 = Clock::now();
      const auto levels = base::bfs_levels(g, kSource);
      const auto t5 = Clock::now();
      run.twin_increment_ms.push_back(ms_between(t0, t1));
      run.twin_stream_s += ms_between(t0, t1) / 1000.0;
      run.save_snapshot_ms.push_back(ms_between(t1, t2));
      run.twin_view_build_ms.push_back(ms_between(t3, t4));
      run.twin_bfs_ms.push_back(ms_between(t4, t5));
      if (levels != in.levels[k]) {
        run.errors.push_back("twin replay differs from the oracle at batch " +
                             std::to_string(k));
        return;
      }
    }
    run.twin_visits = twin.chip.cell_visits();
    run.twin_cycles = twin.chip.stats().cycles;
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("twin replay failed: ") + e.what());
  }
}

// --- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

template <typename F>
std::vector<double> collect(const std::vector<Pass>& passes, F field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(field(p));
  return v;
}

template <typename F>
std::vector<double> pooled(const std::vector<Pass>& passes, F field) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    const std::vector<double>& s = field(p);
    v.insert(v.end(), s.begin(), s.end());
  }
  return v;
}

/// Latency percentiles are taken per pass and then the median over passes,
/// so one pass slowed by the host cannot own the whole tail. Every pass
/// replays the same log, so the passes are repeats of one sample set.
template <typename F>
double pass_percentile(const std::vector<Pass>& passes, F series, double q) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(percentile(series(p), q));
  return median(v);
}

const auto visible_series = [](const Pass& p) -> auto& { return p.visible_ms; };
const auto app_series = [](const Pass& p) -> auto& { return p.app_ms; };
const auto bfs_series = [](const Pass& p) -> auto& { return p.bfs_ms; };

// Only metrics that hold a regression bound across runs are end-to-end.
// The host times go into the traced record's per-layer metrics and the
// untraced record's "host_times", without a bound: on a shared host their
// 10-run spread exceeds every bound a metric may have (benchmark/README.md,
// "Host noise").
std::vector<Metric> end_to_end(const Run& run) {
  return {
      {"setup_s", percentile(run.setup_s, 0.75), "s"},
      {"sim_cycles", static_cast<double>(run.model_cycles), "cycles"},
      {"sim_energy_uj", run.model_energy_uj, "uJ"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

/// What a user's stream costs in host time, over the untraced passes.
std::vector<Metric> host_times(const std::vector<Pass>& ps) {
  return {
      {"ingest_ops_per_s",
       median(collect(ps, [](const Pass& p) {
         return static_cast<double>(p.ops) / p.stream_s;
       })),
       "ops/s"},
      {"visible_ms_p50", pass_percentile(ps, visible_series, 0.5), "ms"},
      {"visible_ms_p95", pass_percentile(ps, visible_series, 0.95), "ms"},
      {"app_query_ms_p50", pass_percentile(ps, app_series, 0.5), "ms"},
      {"app_query_ms_p95", pass_percentile(ps, app_series, 0.95), "ms"},
      {"bfs_query_ms_p50", pass_percentile(ps, bfs_series, 0.5), "ms"},
      {"bfs_query_ms_p95", pass_percentile(ps, bfs_series, 0.95), "ms"},
      {"cpu_s", median(collect(ps, [](const Pass& p) { return p.cpu_s; })), "s"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Run& run,
                              const std::vector<Pass>& traced,
                              const std::vector<Pass>& untraced) {
  const Pass& last = traced.back();
  const auto med = [&](auto field) { return median(collect(traced, field)); };
  const auto pool = [&](auto field, double q) {
    return percentile(pooled(traced, field), q);
  };
  const auto stream_s = [](const Pass& p) { return p.stream_s; };

  // Engine-side times: serve_replay's engine runs inside the service, so
  // they come from its batch-mode twin.
  std::vector<double> increment_ms, insert_ms, repair_ms, view_build_ms, bfs_ms;
  double engine_s = 0.0;
  std::uint64_t visits = last.visits;
  if (w.service) {
    increment_ms = insert_ms = run.twin_increment_ms;
    view_build_ms = run.twin_view_build_ms;
    bfs_ms = run.twin_bfs_ms;
    engine_s = run.twin_stream_s;
    visits = run.twin_visits;
  } else {
    increment_ms = pooled(traced, visible_series);
    insert_ms = pooled(traced, [](const Pass& p) -> auto& { return p.insert_increment_ms; });
    repair_ms = pooled(traced, [](const Pass& p) -> auto& { return p.repair_increment_ms; });
    view_build_ms = pooled(traced, [](const Pass& p) -> auto& { return p.view_build_ms; });
    bfs_ms = pooled(traced, [](const Pass& p) -> auto& { return p.bfs_compute_ms; });
    engine_s = med(stream_s);
  }
  const double cycles = static_cast<double>(last.chip.cycles);

  // Tracing overhead of the primary passes: the host time their spans cost
  // to record, as a share of their streaming time. Comparing traced with
  // untraced passes cannot resolve it: two untraced passes of one run
  // already differ by up to 12 % on a shared host (benchmark/README.md).
  const double span_ns = span_cost_ns();
  const double overhead = med([&](const Pass& p) {
    return static_cast<double>(p.spans.size()) * span_ns / (p.stream_s * 1e9) * 100.0;
  });

  std::vector<Metric> metrics = host_times(untraced);
  metrics.insert(metrics.end(), {
      {"io.decode_ms", med([](const Pass& p) { return p.decode_ms; }), "ms"},
      {"graph.build_ms", med([](const Pass& p) { return p.build_ms; }), "ms"},
      {"graph.increment_ms_p50", percentile(increment_ms, 0.5), "ms"},
      {"graph.increment_ms_p95", percentile(increment_ms, 0.95), "ms"},
      {"graph.save_snapshot_ms_p50",
       median(w.service ? run.save_snapshot_ms
                        : pooled(traced, [](const Pass& p) -> auto& {
                            return p.save_snapshot_ms;
                          })),
       "ms"},
      {"graph.edges_inserted", static_cast<double>(last.proto.edges_inserted), "count"},
      {"graph.edges_deleted", static_cast<double>(last.proto.edges_deleted), "count"},
      {"graph.ghost_allocs", static_cast<double>(last.proto.ghost_allocs_started), "count"},
      {"graph.ops_deferred",
       static_cast<double>(last.proto.inserts_deferred + last.proto.deletes_deferred),
       "count"},
      {"sim.cell_visits", static_cast<double>(last.visits), "count"},
      {"sim.visits_per_cycle", static_cast<double>(last.visits) / cycles, "visits/cycle"},
      {"sim.ns_per_visit", engine_s * 1e9 / static_cast<double>(visits), "ns"},
      {"sim.ns_per_cycle", engine_s * 1e9 / cycles, "ns"},
      {"sim.barrier_syncs", static_cast<double>(last.syncs), "count"},
      {"sim.syncs_per_cycle", static_cast<double>(last.syncs) / cycles, "syncs/cycle"},
      {"sim.parallelism",
       med([](const Pass& p) { return p.cpu_s / p.stream_s; }), "ratio"},
      {"sim.speedup_vs_1t", run.speedup_vs_1t, "ratio"},
      {"sim.hops", static_cast<double>(last.chip.hops), "count"},
      {"sim.stage_stalls", static_cast<double>(last.chip.stage_stalls), "count"},
      {"sim.alloc_forwards", static_cast<double>(last.chip.alloc_forwards), "count"},
      {"sim.mean_delivery_latency", last.chip.mean_delivery_latency(), "cycles"},
      {"apps.insert_increment_ms_p50", percentile(insert_ms, 0.5), "ms"},
      {"apps.repair_increment_ratio",
       repair_ms.empty() ? 0.0 : median(repair_ms) / median(insert_ms), "ratio"},
      {"apps.repair_cycles_per_op",
       last.repair_ops == 0 ? 0.0
                            : static_cast<double>(last.repair_cycles) /
                                  static_cast<double>(last.repair_ops),
       "cycles"},
      {"svc.submit_blocked_ms_total", med([](const Pass& p) { return p.submit_blocked_ms; }), "ms"},
      {"svc.queue_depth_p50", pool([](const Pass& p) -> auto& { return p.queue_depth; }, 0.5), "count"},
      {"svc.publish_interval_ms_p50", pool([](const Pass& p) -> auto& { return p.publish_ms; }, 0.5), "ms"},
      {"svc.publish_interval_ms_p95", pool([](const Pass& p) -> auto& { return p.publish_ms; }, 0.95), "ms"},
      {"svc.latch_ms_p50", pool([](const Pass& p) -> auto& { return p.latch_ms; }, 0.5), "ms"},
      {"svc.view_staleness_batches_p95", pool([](const Pass& p) -> auto& { return p.staleness; }, 0.95), "count"},
      {"svc.reader_late_ms_p95", pool([](const Pass& p) -> auto& { return p.late_ms; }, 0.95), "ms"},
      {"svc.batches_dropped", static_cast<double>(last.batches_dropped), "count"},
      {"svc.view_build_ms_p50", percentile(view_build_ms, 0.5), "ms"},
      {"baseline.bfs_ms_p50", percentile(bfs_ms, 0.5), "ms"},
      {"trace.overhead_pct", overhead, "%"},
  });
  return metrics;
}

// --- Command line and main ----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir;
  bool smoke = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "ccbench: %s\n"
               "usage: ccbench --workload bfs_ingest|bfs_window|mesh_sparse|"
               "serve_replay --seed S [--seconds N] [--trace DIR] [--smoke]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_error("invalid --seed '" + v + "'");
    } else if (a == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage_error("invalid --seconds '" + v + "' (want 0 < N <= 600)");
      }
    } else if (a == "--trace") {
      o.trace_dir = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage_error("unknown option '" + a + "'");
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf(",\"%s\":{", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}");
}

/// The record's "metrics" are the end-to-end metrics (untraced) or the
/// per-layer ones (traced). An untraced record also carries "host_times",
/// which have no bound but are what compare.py pairs for host-time gains.
void print_record(const Options& o, const Workload& w, const Run& run,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& host, std::uint64_t attempted,
                  std::uint64_t failed) {
  std::string errors;
  for (const auto& e : run.errors) {
    std::string quoted;
    for (char c : e) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    errors += (errors.empty() ? "\"" : ",\"") + quoted + "\"";
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%lu,\"smoke\":%s,\"trace\":%s,"
      "\"valid\":%s,\"errors\":[%s],\"passes\":%zu,\"host_cores\":%ld,"
      "\"build_type\":\"%s\",\"git\":\"%s\",\"attempted\":%lu,\"failed\":%lu",
      w.name, o.seed, o.smoke ? "true" : "false",
      o.trace_dir.empty() ? "false" : "true", run.errors.empty() ? "true" : "false",
      errors.c_str(), run.passes.size(), sysconf(_SC_NPROCESSORS_ONLN),
      CCBENCH_BUILD_TYPE, CCBENCH_GIT_DESCRIBE, attempted, failed);
  print_metrics("metrics", metrics);
  if (!host.empty()) print_metrics("host_times", host);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  scrub_environment();
  const Options o = parse(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) found = &w;
  }
  if (found == nullptr) usage_error("unknown workload '" + o.workload + "'");
  const Workload w = o.smoke ? smoke(*found) : *found;
  const bool trace = !o.trace_dir.empty();

  // A warm-up pass whose times are discarded: the first pass of a process
  // runs on cold memory and is consistently the slowest, a cost a
  // long-lived stream pays once. It streams the reference input, the same
  // whatever --seed is, and its modelled cycles and energy are the run's
  // sim_cycles and sim_energy_uj. Those are exact, so they carry a
  // regression bound of 0; on the seeded input they would differ by the
  // 2-5 % by which the seeds' graphs differ.
  Run run;
  const Pass warm = run_pass(w, make_inputs(w, kReferenceSeed), false, w.threads);
  run.errors = warm.errors;
  run.model_cycles = warm.chip.cycles;
  run.model_energy_uj = warm.energy_uj;

  const Inputs in = make_inputs(w, o.seed);
  std::fprintf(stderr,
               "ccbench: %s seed %lu: %lu vertices, %lu increments, %lu ops "
               "(%lu deletes), chip %ux%u, %u thread(s)%s\n",
               w.name, o.seed, w.vertices, in.increments, in.ops, in.deletes,
               w.width, w.height, w.threads, trace ? ", traced" : "");

  // Passes until the next one would overrun --seconds. A traced run
  // alternates untraced and traced passes, host times coming from the
  // former and the layer breakdown from the latter, so it needs one of
  // each. Beyond that a run makes three passes for its medians unless
  // twice --seconds have gone: a contended host can stretch a mesh_sparse
  // pass to 30 s, and a run must end within 180 s.
  const std::size_t required = trace ? 2 : 1;
  const auto begin = Clock::now();
  double pass_s = 0.0;
  while (run.errors.empty()) {
    const double elapsed_s = ms_between(begin, Clock::now()) / 1000.0;
    const std::size_t n = run.passes.size();
    if (n >= required && (n >= 3 || elapsed_s >= 2 * o.seconds) &&
        elapsed_s + pass_s > o.seconds) {
      break;
    }
    const auto p0 = Clock::now();
    for (int i = 0; i < kSetupsPerPass; ++i) {
      run.setup_s.push_back(set_up(w, w.threads).setup_s);
    }
    const bool traced = trace && n % 2 == 1;
    run.passes.push_back(run_pass(w, in, traced, w.threads));
    pass_s = ms_between(p0, Clock::now()) / 1000.0;
    const Pass& p = run.passes.back();
    std::fprintf(stderr,
                 "ccbench: pass %zu%s: set-up %.3f ms, streaming %.3f s, "
                 "cpu %.3f s\n",
                 run.passes.size(), traced ? " (traced)" : "", p.setup_s * 1e3,
                 p.stream_s, p.cpu_s);
    for (const auto& e : p.errors) run.errors.push_back(e);
    const Pass& first = run.passes.front();
    if (run.errors.empty() &&
        (p.chip.cycles != first.chip.cycles || p.energy_uj != first.energy_uj)) {
      run.errors.push_back("modelled cycles/energy differ between passes");
    }
  }

  std::vector<Pass> traced, untraced;
  for (const Pass& p : run.passes) (p.traced ? traced : untraced).push_back(p);

  if (trace && run.errors.empty()) {
    const Pass& first = run.passes.front();
    if (w.service) {
      twin_replay(w, in, run);
      if (run.errors.empty() && run.twin_cycles != first.chip.cycles) {
        run.errors.push_back("service and batch replays differ in cycles");
      }
      if (run.errors.empty() && run.twin_increment_ms.size() == in.increments) {
        for (Pass& p : traced) derive_latch(p, run.twin_increment_ms);
      }
    }
    if (w.threads > 1 && run.errors.empty()) {
      const Pass serial = run_pass(w, in, false, 1);
      for (const auto& e : serial.errors) run.errors.push_back(e);
      if (serial.chip.cycles != first.chip.cycles || serial.energy_uj != first.energy_uj) {
        run.errors.push_back("1-thread replay differs in cycles or energy");
      }
      run.speedup_vs_1t = serial.stream_s / median(collect(
          untraced, [](const Pass& p) { return p.stream_s; }));
    }
  }

  std::uint64_t attempted = warm.ops + warm.queries, failed = warm.failed;
  for (const Pass& p : run.passes) {
    attempted += p.ops + p.queries;
    failed += p.failed;
  }
  std::vector<Metric> metrics, host;
  if (run.errors.empty() && trace) {
    metrics = per_layer(w, run, traced, untraced);
  } else if (run.errors.empty()) {
    metrics = end_to_end(run);
    host = host_times(untraced);
  }
  if (trace) {
    std::vector<std::vector<Span>> spans;
    for (const Pass& p : traced) spans.push_back(p.spans);
    std::filesystem::create_directories(o.trace_dir);
    write_chrome_trace(std::filesystem::path(o.trace_dir) /
                           (std::string(w.name) + ".trace.json"),
                       spans);
  }
  print_record(o, w, run, metrics, host, attempted, failed);
  return run.errors.empty() ? 0 : 1;
}
