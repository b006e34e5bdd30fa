// ccastream_cli — run a streaming dynamic-graph experiment from the command
// line: pick the chip, the workload, the sampling order and the application,
// get a per-increment report (and optionally CSV series, an activation
// trace, oracle verification, and a snapshot of the final graph).
//
// Examples:
//   ccastream_cli --vertices 5000 --edges 100000 --sampling snowball --app bfs
//   ccastream_cli --edges-file graph.el --app components --verify
//   ccastream_cli --vertices 2000 --edges 40000 --rhizomes 4
//                 --routing odd-even --alloc random --csv run.csv
//
// Service mode: `serve` replays a recorded binary increment log through the
// long-lived streaming service (svc::StreamService) — continuous ingest with
// backpressure, queries answered from latched snapshots — and emits the same
// JSON lines a batch run with --json-results produces, cycle for cycle:
//   ccastream_cli --vertices 500 --edges 4000 --record-log inc.bin
//                 --json-results batch.jsonl
//   ccastream_cli serve --increment-log inc.bin > serve.jsonl
//   diff batch.jsonl serve.jsonl
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccastream/ccastream.hpp"

using namespace ccastream;

namespace {

struct Options {
  std::uint64_t vertices = 2000;
  std::uint64_t edges = 40000;
  std::string edges_file;
  wl::SamplingKind sampling = wl::SamplingKind::kEdge;
  std::uint32_t increments = 10;
  std::uint32_t width = 16, height = 16;
  std::uint32_t threads = 0;  // 0 = CCASTREAM_THREADS env, else serial
  std::optional<sim::EngineKind> engine;  // unset = env, else active
  std::optional<rt::CheckLevel> check;  // unset = CCASTREAM_CHECK env, else off
  sim::RoutingPolicyKind routing = sim::RoutingPolicyKind::kYX;
  rt::AllocPolicyKind alloc = rt::AllocPolicyKind::kVicinity;
  std::uint32_t vicinity_radius = 2;
  std::uint32_t edge_capacity = 16;
  std::uint32_t ghost_fanout = 1;
  std::uint32_t rhizomes = 1;
  std::string app = "bfs";  // none|bfs|sssp|components
  std::uint32_t window = 0;  // 0 = CCASTREAM_WINDOW env, else no expiry
  bool window_drain = false;
  std::uint64_t source = 0;
  bool source_set = false;
  std::uint64_t seed = 42;
  bool verify = false;
  std::string csv_path;
  std::string activation_path;
  std::string snapshot_path;
  bool serve = false;
  std::string increment_log;                    // serve: log to replay
  std::string record_log;                       // batch: log to record
  std::string json_results;                     // JSON lines ('-' = stdout)
  std::optional<svc::QueueSpec> svc_queue;      // unset = env, else block:8
};

void usage() {
  std::puts(
      "ccastream_cli [serve] [options]\n"
      "  serve                         service mode: replay --increment-log\n"
      "                                through the streaming service (bounded\n"
      "                                ingest queue + engine loop + snapshot\n"
      "                                queries) and emit JSON lines — output\n"
      "                                is identical to a batch run of the\n"
      "                                same log with --json-results\n"
      "  --increment-log PATH          serve: binary increment log to replay\n"
      "                                ('-' = stdin; vertex count comes from\n"
      "                                the log header)\n"
      "  --record-log PATH             batch: also record the streamed\n"
      "                                increments as a binary increment log\n"
      "                                (replayable with serve)\n"
      "  --json-results PATH           emit per-increment and final-result\n"
      "                                JSON lines ('-' = stdout; serve mode\n"
      "                                defaults to stdout)\n"
      "  --svc-queue SPEC              serve ingest queue, block|drop|flush\n"
      "                                [:capacity 1..65536] (default:\n"
      "                                CCASTREAM_SVC_QUEUE or block:8)\n"
      "  --vertices N --edges M        synthetic SBM workload size\n"
      "  --edges-file PATH             stream an edge-list file instead\n"
      "  --sampling edge|snowball      streaming order (default edge)\n"
      "  --increments K                number of increments (default 10)\n"
      "  --width W --height H          chip mesh (default 16x16)\n"
      "  --threads N                   simulator worker threads, 1..4096,\n"
      "                                at most one per mesh row (default:\n"
      "                                CCASTREAM_THREADS or 1; results are\n"
      "                                identical for every N)\n"
      "  --engine scan|active          cycle engine: the event-driven\n"
      "                                active-set bitmap engine (default:\n"
      "                                CCASTREAM_ENGINE or active) or the\n"
      "                                full-mesh scan oracle; results are\n"
      "                                identical either way\n"
      "  --check off|cheap|full        runtime invariant checking (default:\n"
      "                                CCASTREAM_CHECK or off; full adds an\n"
      "                                O(mesh) sweep per cycle)\n"
      "  --routing yx|xy|west-first|odd-even\n"
      "  --alloc vicinity|random|round-robin|local\n"
      "  --radius R                    vicinity radius (default 2)\n"
      "  --edge-capacity C             edge slots per fragment (default 16)\n"
      "  --ghost-fanout F              ghost futures per fragment (default 1)\n"
      "  --rhizomes R                  roots per vertex (default 1)\n"
      "  --app none|bfs|sssp|components\n"
      "  --window K                    sliding window: edges expire (as delete\n"
      "                                ops) K increments after their latest\n"
      "                                observation (default: CCASTREAM_WINDOW\n"
      "                                or no expiry; bfs, sssp and components\n"
      "                                repair deletions, none applies them\n"
      "                                structure-only; needs --rhizomes 1)\n"
      "  --window-drain                append delete-only increments until the\n"
      "                                window empties (shrinking-frontier tail)\n"
      "  --source V                    BFS/SSSP source (default snowball seed\n"
      "                                or vertex 0)\n"
      "  --seed X                      workload/chip seed (default 42)\n"
      "  --verify                      check results against the CPU oracle\n"
      "                                (serve: the final latched view against\n"
      "                                the graph's digest)\n"
      "  --csv PATH                    per-increment CSV\n"
      "  --activation PATH             per-cycle activation CSV\n"
      "  --snapshot PATH               save the final graph snapshot\n");
}

bool parse(int argc, char** argv, Options& o) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  auto invalid = [](const std::string& flag, const std::string& v,
                    const char* want) {
    std::fprintf(stderr, "invalid %s '%s' (want %s)\n", flag.c_str(),
                 v.c_str(), want);
    return false;
  };
  // Every numeric flag goes through here: the value must be one whole
  // base-10 token (no sign, blanks or trailing junk) in [lo, hi], where hi
  // defaults to the field's range.
  auto number = [&]<typename T>(int& i, const std::string& flag, T& out,
                                std::uint64_t lo,
                                std::uint64_t hi = std::numeric_limits<T>::max()) {
    const char* v = need(i);
    errno = 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE || n < lo ||
        n > hi) {
      const std::string want =
          hi == std::numeric_limits<T>::max()
              ? "an integer >= " + std::to_string(lo)
              : std::to_string(lo) + ".." + std::to_string(hi);
      return invalid(flag, v, want.c_str());
    }
    out = static_cast<T>(n);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    }
    if (a == "serve") o.serve = true;
    else if (a == "--increment-log") o.increment_log = need(i);
    else if (a == "--record-log") o.record_log = need(i);
    else if (a == "--json-results") o.json_results = need(i);
    else if (a == "--svc-queue") {
      const char* v = need(i);
      o.svc_queue = svc::parse_queue_spec(v);
      if (!o.svc_queue) return invalid(a, v, "block|drop|flush[:1..65536]");
    }
    else if (a == "--vertices") {
      if (!number(i, a, o.vertices, 1)) return false;
    } else if (a == "--edges") {
      if (!number(i, a, o.edges, 0)) return false;
    } else if (a == "--edges-file") o.edges_file = need(i);
    else if (a == "--sampling") {
      const std::string v = need(i);
      if (v == "edge") o.sampling = wl::SamplingKind::kEdge;
      else if (v == "snowball") o.sampling = wl::SamplingKind::kSnowball;
      else return invalid(a, v, "edge|snowball");
    } else if (a == "--increments") {
      if (!number(i, a, o.increments, 1)) return false;
    } else if (a == "--width") {
      if (!number(i, a, o.width, 1)) return false;
    } else if (a == "--height") {
      if (!number(i, a, o.height, 1)) return false;
    } else if (a == "--threads") {
      // The cap CCASTREAM_THREADS gets (sim::resolve_threads).
      if (!number(i, a, o.threads, 1, 4096)) return false;
    } else if (a == "--engine") {
      const char* v = need(i);
      o.engine = sim::parse_engine(v);
      if (!o.engine) return invalid(a, v, "scan|active");
    } else if (a == "--check") {
      const char* v = need(i);
      o.check = rt::parse_check_level(v);
      if (!o.check) return invalid(a, v, "off|cheap|full");
    } else if (a == "--routing") {
      const std::string v = need(i);
      if (v == "yx") o.routing = sim::RoutingPolicyKind::kYX;
      else if (v == "xy") o.routing = sim::RoutingPolicyKind::kXY;
      else if (v == "west-first") o.routing = sim::RoutingPolicyKind::kWestFirst;
      else if (v == "odd-even") o.routing = sim::RoutingPolicyKind::kOddEven;
      else return invalid(a, v, "yx|xy|west-first|odd-even");
    } else if (a == "--alloc") {
      const std::string v = need(i);
      if (v == "vicinity") o.alloc = rt::AllocPolicyKind::kVicinity;
      else if (v == "random") o.alloc = rt::AllocPolicyKind::kRandom;
      else if (v == "round-robin") o.alloc = rt::AllocPolicyKind::kRoundRobin;
      else if (v == "local") o.alloc = rt::AllocPolicyKind::kLocal;
      else return invalid(a, v, "vicinity|random|round-robin|local");
    } else if (a == "--radius") {
      if (!number(i, a, o.vicinity_radius, 0)) return false;
    } else if (a == "--edge-capacity") {
      if (!number(i, a, o.edge_capacity, 1)) return false;
    } else if (a == "--ghost-fanout") {
      if (!number(i, a, o.ghost_fanout, 1)) return false;
    } else if (a == "--rhizomes") {
      if (!number(i, a, o.rhizomes, 1)) return false;
    } else if (a == "--app") {
      o.app = need(i);
      if (o.app != "none" && o.app != "bfs" && o.app != "sssp" &&
          o.app != "components") {
        return invalid(a, o.app, "none|bfs|sssp|components");
      }
    } else if (a == "--window") {
      // The range resolve_window applies to the env var (0 would mean
      // "use the env").
      if (!number(i, a, o.window, 1, 1'000'000)) return false;
    } else if (a == "--window-drain") {
      o.window_drain = true;
    } else if (a == "--source") {
      if (!number(i, a, o.source, 0)) return false;
      o.source_set = true;
    } else if (a == "--seed") {
      if (!number(i, a, o.seed, 0)) return false;
    } else if (a == "--verify") {
      o.verify = true;
    } else if (a == "--csv") {
      o.csv_path = need(i);
    } else if (a == "--activation") {
      o.activation_path = need(i);
    } else if (a == "--snapshot") {
      o.snapshot_path = need(i);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

// JSON-lines emission shared by batch (--json-results) and serve mode, so
// the two outputs are byte-diffable (the CI serve smoke relies on this).
void print_increment_json(std::FILE* f, std::uint64_t seq, std::uint64_t edges,
                          std::uint64_t deletes, std::uint64_t cycles,
                          double energy_uj) {
  std::fprintf(f,
               "{\"type\":\"increment\",\"seq\":%lu,\"edges\":%lu,"
               "\"deletes\":%lu,\"cycles\":%lu,\"energy_uj\":%.6f}\n",
               seq, edges, deletes, cycles, energy_uj);
}

void print_result_json(std::FILE* f, const std::string& app, std::uint64_t seq,
                       std::span<const rt::Word> values) {
  std::fprintf(f, "{\"type\":\"result\",\"app\":\"%s\",\"seq\":%lu,\"values\":[",
               app.c_str(), seq);
  for (std::size_t v = 0; v < values.size(); ++v) {
    std::fprintf(f, "%s%lu", v == 0 ? "" : ",", values[v]);
  }
  std::fprintf(f, "]}\n");
}

/// The selected --app, built alone so only its three handlers register;
/// null for "none".
std::unique_ptr<apps::MonotoneApp> make_app(const std::string& name,
                                            graph::GraphProtocol& proto) {
  if (name == "bfs") return std::make_unique<apps::StreamingBfs>(proto);
  if (name == "sssp") return std::make_unique<apps::StreamingSssp>(proto);
  if (name == "components") {
    return std::make_unique<apps::StreamingComponents>(proto);
  }
  return nullptr;
}

// The oracles mark unreachable vertices with the apps' own sentinel, so
// oracle and chip values compare directly.
static_assert(base::kUnreached == apps::StreamingBfs::kUnreached &&
              base::kUnreached == apps::StreamingSssp::kUnreached);

/// The CPU oracle's fixed point for `app` after the whole schedule.
std::vector<rt::Word> oracle_values(const std::string& app,
                                    std::uint64_t vertices,
                                    const wl::StreamSchedule& sched,
                                    std::uint64_t source) {
  base::RefGraph ref(vertices);
  for (const auto& inc : sched.increments) ref.add_edges(inc);
  // The streamed components fixed point is the *directed* min-reaching
  // label (the CLI does not symmetrize the stream), not undirected
  // union-find.
  if (app == "components") return base::min_reaching_labels(ref);
  return app == "bfs" ? base::bfs_levels(ref, source)
                      : base::sssp_distances(ref, source);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.serve && o.increment_log.empty()) {
    std::fprintf(stderr, "serve requires --increment-log PATH\n");
    return 2;
  }
  if (o.serve && o.json_results.empty()) o.json_results = "-";

  // Serve mode replays a recorded log; the log header carries the vertex
  // count, so the reader must open before graph construction.
  std::ifstream log_file;
  std::optional<io::IncrementLogReader> log_reader;
  if (o.serve) {
    std::istream* in = &std::cin;
    if (o.increment_log != "-") {
      log_file.open(o.increment_log, std::ios::binary);
      if (!log_file) {
        std::fprintf(stderr, "cannot open increment log '%s'\n",
                     o.increment_log.c_str());
        return 2;
      }
      in = &log_file;
    }
    try {
      log_reader.emplace(*in);
    } catch (const io::IncrementCodecError& e) {
      std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
      return 2;
    }
    o.vertices = log_reader->header().num_vertices;
  }

  // --- Workload --------------------------------------------------------------
  wl::StreamSchedule sched;
  if (o.serve) {
    // No synthetic schedule: increments come framed from the log.
  } else if (!o.edges_file.empty()) {
    std::vector<StreamEdge> edges;
    try {
      edges = io::read_edgelist_file(o.edges_file);
    } catch (const std::runtime_error& e) {
      // An unreadable file or a malformed line, named by its number.
      std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
      return 2;
    }
    std::uint64_t max_vid = 0;
    for (const auto& e : edges) max_vid = std::max({max_vid, e.src, e.dst});
    if (max_vid == std::numeric_limits<std::uint64_t>::max()) {
      // The vertex count, max_vid + 1, would wrap to 0.
      std::fprintf(stderr,
                   "ccastream_cli: %s: vertex id %lu is out of range (ids "
                   "must be below %lu)\n",
                   o.edges_file.c_str(), max_vid, max_vid);
      return 2;
    }
    o.vertices = max_vid + 1;
    sched = o.sampling == wl::SamplingKind::kSnowball
                ? wl::snowball_sampling(edges, o.vertices, o.increments, o.seed)
                : wl::edge_sampling(std::move(edges), o.increments, o.seed);
  } else {
    try {
      sched = wl::make_graphchallenge_like(o.vertices, o.edges, o.sampling,
                                           o.increments, o.seed);
    } catch (const std::invalid_argument& e) {
      // A graph the generator cannot draw, e.g. edges on one vertex.
      std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
      return 2;
    }
  }
  if (!o.source_set && !o.serve) {
    o.source = o.sampling == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;
  }
  if (o.source >= o.vertices) {
    std::fprintf(stderr, "invalid --source %lu (the graph has %lu vertices)\n",
                 o.source, o.vertices);
    return 2;
  }

  // Sliding window (config > env > disabled): rewrite the schedule so aged
  // edges expire as delete ops. Deletions are repaired by the monotone-raise
  // framework for bfs/sssp/components and applied structure-only for
  // "none". The rhizomes > 1 conflict is reported by the streaming layer as
  // graph::DeletionRhizomeError — caught around the increment loop below.
  // A replayed log already contains its delete ops verbatim, so serve mode
  // never rewrites.
  if (!o.serve) {
    o.window = wl::resolve_window(o.window);
    if (o.window != 0) {
      sched = wl::apply_sliding_window(sched, o.window, o.window_drain);
    }
  }

  // --- Chip + graph + app ------------------------------------------------------
  sim::ChipConfig cfg;
  cfg.width = o.width;
  cfg.height = o.height;
  cfg.routing = o.routing;
  cfg.alloc_policy = o.alloc;
  cfg.vicinity_radius = o.vicinity_radius;
  cfg.seed = o.seed;
  cfg.threads = o.threads;
  cfg.engine = o.engine;
  cfg.check_level = o.check;
  cfg.record_activation = !o.activation_path.empty();
  sim::Chip chip(cfg);

  graph::RpvoConfig rc;
  rc.edge_capacity = o.edge_capacity;
  rc.ghost_fanout = o.ghost_fanout;
  graph::GraphProtocol proto(chip, rc);

  const std::unique_ptr<apps::MonotoneApp> app = make_app(o.app, proto);
  if (app) app->install();

  graph::GraphConfig gc;
  gc.num_vertices = o.vertices;
  gc.rhizomes = o.rhizomes;
  gc.root_init = proto.hooks().ghost_init;  // roots start like ghosts
  // Batch and serve both stop here on a graph the chip cannot hold (serve
  // takes the vertex count from the log header).
  std::optional<graph::StreamingGraph> graph_slot;
  try {
    graph_slot.emplace(proto, gc);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
    return 2;
  }
  graph::StreamingGraph& g = *graph_slot;
  if (o.app == "components") {
    static_cast<const apps::StreamingComponents&>(*app).seed_labels(g);
  } else if (app) {
    app->seed(g, o.source, 0);
  }

  std::FILE* jf = nullptr;
  if (!o.json_results.empty()) {
    jf = o.json_results == "-" ? stdout : std::fopen(o.json_results.c_str(), "w");
    if (!jf) {
      std::fprintf(stderr, "cannot open json results '%s'\n",
                   o.json_results.c_str());
      return 2;
    }
  }

  // --- Serve: replay the log through the streaming service ---------------------
  if (o.serve) {
    // Human chatter goes to stderr so stdout stays pure JSON lines for the
    // batch-vs-serve diff.
    const svc::QueueSpec queue = svc::resolve_queue_spec(o.svc_queue);
    std::fprintf(stderr,
                 "serve: chip %ux%u  app %s  queue %s  %lu vertices, "
                 "engine %s, threads %u\n",
                 o.width, o.height, o.app.c_str(), queue.to_string().c_str(),
                 o.vertices, std::string(sim::to_string(chip.engine())).c_str(),
                 chip.threads());
    svc::StreamService service(g, {queue});
    try {
      while (auto inc = log_reader->next()) {
        service.submit(std::move(*inc));
      }
      service.flush();
    } catch (const io::IncrementCodecError& e) {
      std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
      return 2;
    } catch (const graph::DeletionRhizomeError& e) {
      std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
      return 2;
    }
    for (const auto& r : service.batch_reports()) {
      print_increment_json(jf, r.seq, r.edges, r.deletes, r.cycles, r.energy_uj);
    }
    if (app) {
      svc::QueryRequest req;
      req.kind = svc::QueryKind::kAppWord;
      req.app_word = 0;
      const svc::QueryResult res = service.query(req);
      print_result_json(jf, o.app, res.seq, res.values);
    }
    service.stop();
    std::fprintf(stderr, "serve: %lu increments, %lu cycles, %lu queries\n",
                 service.stats().batches_executed, chip.stats().cycles,
                 service.stats().queries_answered);
    if (jf != stdout) std::fclose(jf);
    if (o.verify) {
      // The last view the latches built, batch by batch, against one read
      // of the whole idle graph.
      const bool same = service.snapshot()->matches(g.digest());
      std::fprintf(stderr, "serve: latched view vs graph digest: %s\n",
                   same ? "OK" : "FAILED");
      if (!same) return 1;
    }
    return 0;
  }

  // --- Record the schedule as a replayable increment log -----------------------
  if (!o.record_log.empty()) {
    std::ofstream f(o.record_log, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open record log '%s'\n", o.record_log.c_str());
      return 2;
    }
    io::write_increment_log(f, o.vertices, sched.increments);
    std::printf("wrote increment log (%zu increments) to %s\n",
                sched.increments.size(), o.record_log.c_str());
  }

  // --- Stream ------------------------------------------------------------------
  std::printf(
      "chip %ux%u  routing %s  alloc %s  rhizomes %u  app %s  threads %u  "
      "engine %s\n",
      o.width, o.height, std::string(sim::to_string(o.routing)).c_str(),
      std::string(rt::to_string(o.alloc)).c_str(), o.rhizomes, o.app.c_str(),
      chip.threads(), std::string(sim::to_string(chip.engine())).c_str());
  std::printf("%lu vertices, %lu ops, %s sampling, %zu increments, source %lu",
              o.vertices, sched.total_edges(),
              std::string(wl::to_string(sched.kind)).c_str(),
              sched.increments.size(), o.source);
  if (o.window != 0) {
    std::printf("  window %u%s", o.window, o.window_drain ? "+drain" : "");
  }
  std::printf("\n");
  std::printf("%-10s %10s %12s %12s %12s\n", "Increment", "Edges", "Cycles",
              "Energy µJ", "Msgs");

  std::optional<io::CsvWriter> csv;
  if (!o.csv_path.empty()) {
    csv.emplace(o.csv_path, std::initializer_list<std::string>{
                                "increment", "edges", "cycles", "energy_uj",
                                "messages"});
  }
  for (std::size_t i = 0; i < sched.increments.size(); ++i) {
    graph::IncrementReport r;
    try {
      r = g.stream_increment(sched.increments[i]);
    } catch (const graph::DeletionRhizomeError& e) {
      std::fprintf(stderr, "ccastream_cli: %s\n", e.what());
      return 2;
    }
    std::printf("%-10zu %10lu %12lu %12.2f %12lu\n", i + 1, r.edges, r.cycles,
                r.energy_uj, r.stats_delta.actions_created);
    if (jf) {
      print_increment_json(jf, i + 1, r.edges, r.deletes, r.cycles, r.energy_uj);
    }
    if (csv) {
      csv->row_numeric({static_cast<double>(i + 1), static_cast<double>(r.edges),
                        static_cast<double>(r.cycles), r.energy_uj,
                        static_cast<double>(r.stats_delta.actions_created)});
    }
  }
  std::printf("total: %lu cycles (%.1f µs @1GHz), %.1f µJ, %lu hops\n",
              chip.stats().cycles, sim::cycles_to_us(chip.stats().cycles),
              sim::pj_to_uj(chip.energy_pj()), chip.stats().hops);

  if (jf) {
    if (app) {
      // Same final-result line serve mode emits: the app's fixed point per
      // vertex, read from the chip.
      std::vector<rt::Word> values;
      values.reserve(o.vertices);
      for (std::uint64_t v = 0; v < o.vertices; ++v) {
        values.push_back(app->value_of(g, v));
      }
      print_result_json(jf, o.app, sched.increments.size(), values);
    }
    if (jf != stdout) std::fclose(jf);
  }

  // --- Optional outputs ----------------------------------------------------------
  if (!o.activation_path.empty()) {
    io::CsvWriter act(o.activation_path, {"cycle", "percent_active"});
    for (const auto& [cycle, pct] :
         chip.activation().percent_series(chip.geometry().cell_count(), 2048)) {
      act.row_numeric({static_cast<double>(cycle), pct});
    }
    std::printf("wrote activation series to %s\n", o.activation_path.c_str());
  }
  if (!o.snapshot_path.empty()) {
    std::ofstream snap(o.snapshot_path);
    g.save_snapshot(snap);
    std::printf("wrote graph snapshot to %s\n", o.snapshot_path.c_str());
  }

  // --- Verification ---------------------------------------------------------------
  if (o.verify && app) {
    const std::vector<rt::Word> want =
        oracle_values(o.app, o.vertices, sched, o.source);
    std::uint64_t mismatches = 0;
    for (std::uint64_t v = 0; v < o.vertices; ++v) {
      if (app->value_of(g, v) != want[v]) ++mismatches;
    }
    std::printf("verification vs oracle: %s (%lu mismatches)\n",
                mismatches == 0 ? "OK" : "FAILED", mismatches);
    if (mismatches != 0) return 1;
  }
  return 0;
}
