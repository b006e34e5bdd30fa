// Streaming single-source shortest paths — the weighted generalisation of
// the paper's streaming BFS (first of the "more complex message-driven
// streaming dynamic algorithms" the conclusion calls for), as the distance
// policy of MonotoneApp (apps/monotone.hpp).
//
// sssp-action(v, d) lowers v's tentative distance and re-diffuses d + w(e)
// along each edge. Deletion repair seeds conservatively
// (SeedWhen::kDownstream), which relies on edge weights >= 1; every
// generator in workload/ emits weight >= 1.
#pragma once

#include <cstdint>

#include "apps/monotone.hpp"

namespace ccastream::apps {

class StreamingSssp : public MonotoneApp {
 public:
  static constexpr rt::Word kUnreached = ~0ull;
  static constexpr std::size_t kDistWord = 0;

  /// Registers app.sssp, app.sssp-unsettle and app.sssp-resettle.
  explicit StreamingSssp(graph::GraphProtocol& protocol)
      : MonotoneApp(protocol, {.name = "sssp",
                               .word = kDistWord,
                               .unsettled = kUnreached,
                               .step = EdgeStep::kPlusWeight,
                               .seed = SeedWhen::kDownstream,
                               .reset = ResetTo::kUnsettled}) {}

  [[nodiscard]] static graph::AppState initial_state() {
    graph::AppState s{};
    s[kDistWord] = kUnreached;
    return s;
  }

  /// Marks `vid` as the source (distance 0) before streaming.
  void set_source(graph::StreamingGraph& g, std::uint64_t vid) const {
    seed(g, vid, 0);
  }

  /// Injects sssp-action(root(vid), 0) to (re)start on a built graph.
  void kick_source(graph::StreamingGraph& g, std::uint64_t vid) const {
    kick(g, vid, 0);
  }

  [[nodiscard]] rt::Word distance_of(const graph::StreamingGraph& g,
                                     std::uint64_t vid) const {
    return value_of(g, vid);
  }
};

}  // namespace ccastream::apps
