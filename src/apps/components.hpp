// Streaming connected components by asynchronous min-label propagation, as
// the label policy of MonotoneApp (apps/monotone.hpp).
//
// Every root starts with label = vid; labels spread over edges and the
// minimum wins. For undirected semantics the stream must carry both edge
// directions (use workload::symmetrize) — the algorithm then converges to
// the minimum vertex id of each connected component, updating incrementally
// as new edges merge components.
//
// Deletion repair clears the equal-label region downstream of a deleted
// edge back to each vertex's OWN vid (ResetTo::kSelfId), and resettle lets
// min win again. Note the fixed point is that of the *directed* stream: the
// label of v is the minimum vid that reaches v along streamed arcs. With a
// symmetrized stream that equals the undirected component minimum, but a
// sliding window can expire the two arcs of a pair in different
// increments, so windowed runs are checked against the directed oracle
// (base::DynamicComponents), not union-find.
#pragma once

#include <cstdint>

#include "apps/monotone.hpp"

namespace ccastream::apps {

class StreamingComponents : public MonotoneApp {
 public:
  static constexpr rt::Word kNoLabel = ~0ull;
  static constexpr std::size_t kLabelWord = 0;

  /// Registers app.components, app.components-unsettle and
  /// app.components-resettle.
  explicit StreamingComponents(graph::GraphProtocol& protocol)
      : MonotoneApp(protocol, {.name = "components",
                               .word = kLabelWord,
                               .unsettled = kNoLabel,
                               .step = EdgeStep::kSame,
                               .seed = SeedWhen::kSameLabel,
                               .reset = ResetTo::kSelfId}) {}

  /// Ghosts start unlabeled; the ghost-link hook forwards the root's label.
  [[nodiscard]] static graph::AppState initial_state() {
    graph::AppState s{};
    s[kLabelWord] = kNoLabel;
    return s;
  }

  /// Seeds every root's label with its own vertex id. Call once after
  /// constructing the StreamingGraph, before streaming.
  void seed_labels(graph::StreamingGraph& g) const {
    for (std::uint64_t vid = 0; vid < g.num_vertices(); ++vid) seed(g, vid, vid);
  }

  [[nodiscard]] rt::Word label_of(const graph::StreamingGraph& g,
                                  std::uint64_t vid) const {
    return value_of(g, vid);
  }
};

}  // namespace ccastream::apps
