// A miniature of the paper's headline experiment: a GraphChallenge-like
// SBM graph streamed in 10 increments onto a 16x16 chip, with per-increment
// cycle counts for ingestion-only vs ingestion+BFS (Figure 8 in the small)
// and verification against the sequential oracle.
//
//   $ ./streaming_increments [vertices] [edges]
#include <cstdio>
#include <cstdlib>

#include "ccastream/ccastream.hpp"

using namespace ccastream;

namespace {

struct Run {
  std::vector<std::uint64_t> cycles_per_increment;
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<apps::StreamingBfs> bfs;
  std::unique_ptr<graph::StreamingGraph> graph;
};

Run run(const wl::StreamSchedule& sched, std::uint64_t verts, bool with_bfs,
        std::uint64_t source) {
  Run r;
  sim::ChipConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  r.chip = std::make_unique<sim::Chip>(cfg);
  r.proto = std::make_unique<graph::GraphProtocol>(*r.chip);
  r.bfs = std::make_unique<apps::StreamingBfs>(*r.proto);
  if (with_bfs) r.bfs->install();
  graph::GraphConfig gc;
  gc.num_vertices = verts;
  gc.root_init = apps::StreamingBfs::initial_state();
  r.graph = std::make_unique<graph::StreamingGraph>(*r.proto, gc);
  if (with_bfs) r.bfs->set_source(*r.graph, source);
  for (const auto& inc : sched.increments) {
    r.cycles_per_increment.push_back(r.graph->stream_increment(inc).cycles);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t verts = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  const std::uint64_t edges = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 40000;

  for (const auto kind : {wl::SamplingKind::kEdge, wl::SamplingKind::kSnowball}) {
    const auto sched = wl::make_graphchallenge_like(verts, edges, kind, 10, 7);
    const std::uint64_t source =
        kind == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;

    auto ingest = run(sched, verts, /*with_bfs=*/false, source);
    auto full = run(sched, verts, /*with_bfs=*/true, source);

    std::printf("\n%s sampling (%lu vertices, %lu edges, source %lu):\n",
                std::string(wl::to_string(kind)).c_str(), verts, edges, source);
    std::printf("%-10s %10s %12s %12s\n", "Increment", "Edges", "Streaming",
                "Stream+BFS");
    for (std::size_t i = 0; i < sched.increments.size(); ++i) {
      std::printf("%-10zu %10zu %12lu %12lu\n", i + 1,
                  sched.increments[i].size(), ingest.cycles_per_increment[i],
                  full.cycles_per_increment[i]);
    }

    // Verify the final levels against the sequential oracle.
    base::DynamicBfs oracle(verts, source);
    for (const auto& inc : sched.increments) oracle.apply_increment(inc);
    std::uint64_t mismatches = 0;
    for (std::uint64_t v = 0; v < verts; ++v) {
      const rt::Word want = oracle.level_of(v) == base::kUnreached
                                ? apps::StreamingBfs::kUnreached
                                : oracle.level_of(v);
      if (full.bfs->level_of(*full.graph, v) != want) ++mismatches;
    }
    std::printf("verification vs oracle: %s (%lu mismatches)\n",
                mismatches == 0 ? "OK" : "FAILED", mismatches);
  }
  return 0;
}
