// Streaming multi-source reachability — a bit-parallel diffusive
// application: up to 256 sources are tracked simultaneously, one bit each,
// packed into the fragment's four app words (one full 256-bit flit of
// payload per action).
//
// reach-action(v, mask) ORs the mask into v's reached-set; any *new* bits
// re-diffuse along v's edges. Monotone (bits only get set), so asynchronous
// delivery order cannot affect the fixed point — and streamed edge
// insertions extend reachability incrementally, like the paper's BFS.
#pragma once

#include <array>
#include <cstdint>

#include "graph/builder.hpp"
#include "graph/protocol.hpp"

namespace ccastream::apps {

class MultiSourceReach {
 public:
  /// Maximum simultaneous sources (4 app words x 64 bits).
  static constexpr std::size_t kMaxSources = graph::kAppWords * 64;

  explicit MultiSourceReach(graph::GraphProtocol& protocol);

  void install();
  [[nodiscard]] graph::AppHooks make_hooks() const;

  /// Fragments start with an empty reached-set.
  [[nodiscard]] static graph::AppState initial_state() { return {}; }

  /// Marks `vid` as source number `source_index` (sets its own bit).
  /// Call before streaming (or kick afterwards via chip injection).
  void add_source(graph::StreamingGraph& g, std::uint64_t vid,
                  std::size_t source_index) const;

  /// True if `vid` is reachable from source number `source_index`. Throws
  /// std::out_of_range for an index >= kMaxSources, like add_source.
  [[nodiscard]] bool reached(const graph::StreamingGraph& g, std::uint64_t vid,
                             std::size_t source_index) const;

  /// Number of sources that reach `vid`.
  [[nodiscard]] std::uint32_t reach_count(const graph::StreamingGraph& g,
                                          std::uint64_t vid) const;

  [[nodiscard]] rt::HandlerId handler() const noexcept { return h_reach_; }

 private:
  void handle_reach(rt::Context& ctx, const rt::Action& a);
  static bool merge(graph::VertexFragment& frag, const rt::Payload& mask,
                    rt::Payload& fresh);

  graph::GraphProtocol& proto_;
  rt::HandlerId h_reach_ = 0;
};

}  // namespace ccastream::apps
