// Whole-graph reads of the streaming graph: checkpoint/restore
// (StreamingGraph::save_snapshot / load_snapshot) and the digest
// (StreamingGraph::digest / parse_snapshot_digest). The snapshot captures
// the *physical* state of every vertex fragment — scratchpad placement,
// edge records (as global addresses), ghost link values, rhizome links, and
// application words — so a restored chip is bit-identical as far as the
// graph protocol and the applications are concerned, and streaming can
// continue seamlessly. Both text readers share one header reader, one
// fragment-block reader and one set of chain checks, which load_snapshot
// applies before it places anything; both digests come from one builder
// over the one RPVO chain walk (which fragments_of uses too).
//
// Only quiescent chips can be checkpointed or digested: a pending ghost
// future has an allocation continuation in flight, which has no meaningful
// serialised form.
//
// Text format (one fragment block per arena slot, cells in index order):
//   ccastream-snapshot v2
//   chip <width> <height>
//   rpvo <edge_capacity> <ghost_fanout>
//   graph <num_vertices> <rhizomes> <src_rr> <dst_rr>
//   roots <n> [<addr>]...
//   frag <cc> <slot> <vid> <is_root> <root> <rhizome_next> <inserts_seen> <deletes_seen>
//   app <w0> <w1> <w2> <w3>
//   edges <n> [<dst> <weight>]...
//   ghosts <k> [R <addr> | E]...
//   end
//
// v1 snapshots (no <deletes_seen> on the frag line) still load; the
// counter restores as 0.
#include <algorithm>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "graph/builder.hpp"

namespace ccastream::graph {

namespace {

constexpr std::string_view kMagic = "ccastream-snapshot";
constexpr std::string_view kVersion = "v2";
constexpr std::string_view kVersionLegacy = "v1";  // pre-deletion format

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("graph snapshot: " + what);
}

void expect_tag(std::istream& in, std::string_view tag) {
  std::string got;
  if (!(in >> got) || got != tag) {
    fail("expected '" + std::string(tag) + "', got '" + got + "'");
  }
}

void require_quiescent(const sim::Chip& chip) {
  if (!chip.quiescent()) {
    throw std::logic_error(
        "graph snapshot: chip must be quiescent (run to termination first)");
  }
}

/// Everything before the first fragment block.
struct Header {
  bool legacy_v1 = false;
  std::uint32_t width = 0, height = 0, edge_capacity = 0, ghost_fanout = 0;
  std::uint64_t num_vertices = 0;
  std::uint32_t rhizomes = 0;
  std::uint64_t src_rr = 0, dst_rr = 0;
  std::vector<rt::GlobalAddress> roots;  ///< vid-major, as StreamingGraph's.
};

Header read_header(std::istream& in) {
  expect_tag(in, kMagic);
  std::string version;
  if (!(in >> version) || (version != kVersion && version != kVersionLegacy)) {
    fail("unsupported snapshot version '" + version + "'");
  }
  Header h;
  h.legacy_v1 = version == kVersionLegacy;
  expect_tag(in, "chip");
  in >> h.width >> h.height;
  expect_tag(in, "rpvo");
  in >> h.edge_capacity >> h.ghost_fanout;
  expect_tag(in, "graph");
  in >> h.num_vertices >> h.rhizomes >> h.src_rr >> h.dst_rr;
  if (!in) fail("truncated header");
  if (h.rhizomes == 0) fail("zero rhizome count");

  expect_tag(in, "roots");
  std::uint64_t nroots = 0;
  if (!(in >> nroots)) fail("truncated roots table");
  // Divided rather than multiplied, so a huge vertex count cannot wrap.
  if (nroots % h.rhizomes != 0 || nroots / h.rhizomes != h.num_vertices) {
    fail("roots table size mismatch");
  }
  for (std::uint64_t i = 0; i < nroots; ++i) {  // no reserve: nroots is untrusted
    rt::Word w = 0;
    if (!(in >> w)) fail("truncated roots table");
    h.roots.push_back(rt::GlobalAddress::unpack(w));
  }
  return h;
}

/// One `frag ... end` record, holding only what the stream carried (a
/// VertexFragment would reserve the header's edge capacity up front).
struct FragmentBlock {
  std::uint32_t cc = 0, slot = 0;
  std::uint64_t vid = 0;
  bool is_root = false;
  rt::GlobalAddress root, rhizome_next;
  std::uint64_t inserts_seen = 0, deletes_seen = 0;
  AppState app{};
  std::vector<EdgeRecord> edges;
  std::vector<rt::FutureAddr> ghosts;
};

/// The next fragment block, or std::nullopt at the end of the stream.
std::optional<FragmentBlock> read_block(std::istream& in, const Header& h) {
  std::string tag;
  if (!(in >> tag)) return std::nullopt;
  if (tag != "frag") fail("expected 'frag', got '" + tag + "'");
  FragmentBlock b;
  int is_root = 0;
  rt::Word root_w = 0, rhz_w = 0;
  in >> b.cc >> b.slot >> b.vid >> is_root >> root_w >> rhz_w >> b.inserts_seen;
  if (!h.legacy_v1) in >> b.deletes_seen;
  b.is_root = is_root != 0;
  b.root = rt::GlobalAddress::unpack(root_w);
  b.rhizome_next = rt::GlobalAddress::unpack(rhz_w);

  expect_tag(in, "app");
  for (auto& w : b.app) in >> w;

  expect_tag(in, "edges");
  std::uint64_t nedges = 0;
  in >> nedges;
  if (nedges > h.edge_capacity) fail("fragment overflows edge capacity");
  for (std::uint64_t i = 0; i < nedges; ++i) {
    rt::Word dst_w = 0;
    std::uint32_t weight = 0;
    if (!(in >> dst_w >> weight)) fail("truncated fragment record");
    b.edges.push_back({rt::GlobalAddress::unpack(dst_w), weight});
  }

  expect_tag(in, "ghosts");
  std::uint64_t nghosts = 0;
  in >> nghosts;
  if (nghosts != h.ghost_fanout) fail("ghost fan-out mismatch");
  for (std::uint64_t i = 0; i < nghosts; ++i) {
    std::string state;
    in >> state;
    if (state == "R") {
      rt::Word addr_w = 0;
      in >> addr_w;
      b.ghosts.push_back(rt::FutureAddr::ready(rt::GlobalAddress::unpack(addr_w)));
    } else if (state == "E") {
      b.ghosts.emplace_back();
    } else {
      fail("bad ghost state '" + state + "'");
    }
  }
  expect_tag(in, "end");
  if (!in) fail("truncated fragment record");
  return b;
}

/// The one RPVO chain walk. Visits a vertex's fragments breadth-first: its
/// rhizome roots in table order, then every ready, non-null ghost link,
/// level by level (ghost fan-out > 1 makes the RPVO a small tree).
/// `at(addr)` returns the VertexFragment or FragmentBlock at `addr`, or
/// nullptr to skip it; `visit(addr, frag)` sees every fragment reached.
template <typename At, typename Visit>
void walk_chain(std::span<const rt::GlobalAddress> roots, At&& at, Visit&& visit) {
  std::vector<rt::GlobalAddress> frontier(roots.begin(), roots.end());
  while (!frontier.empty()) {
    std::vector<rt::GlobalAddress> next;
    for (const auto addr : frontier) {
      const auto* frag = at(addr);
      if (frag == nullptr) continue;
      visit(addr, *frag);
      for (const auto& g : frag->ghosts) {
        if (g.is_ready() && !g.value().is_null()) next.push_back(g.value());
      }
    }
    frontier = std::move(next);
  }
}

/// Every fragment block of the stream, in stream order.
std::vector<FragmentBlock> read_blocks(std::istream& in, const Header& h) {
  std::vector<FragmentBlock> blocks;
  while (auto b = read_block(in, h)) blocks.push_back(std::move(*b));
  return blocks;
}

/// The chain checks both text readers apply before they trust a block:
/// every edge record targets an address in the roots table, a block is
/// flagged root exactly when the table lists it (for its own vertex), and
/// every ready ghost link reaches a block of the same vertex, no block
/// twice (a second visit is a corrupt link and, unchecked, a cycle every
/// chain walk would follow forever), with no link dangling. `vid_of_root`
/// maps an address to the table's vid, or std::nullopt. Returns the
/// blocks by address.
template <typename VidOfRoot>
std::unordered_map<rt::GlobalAddress, const FragmentBlock*> check_chains(
    const Header& h, const std::vector<FragmentBlock>& blocks,
    VidOfRoot&& vid_of_root) {
  std::unordered_map<rt::GlobalAddress, const FragmentBlock*> at;
  for (const FragmentBlock& b : blocks) {
    for (const EdgeRecord& e : b.edges) {
      if (!vid_of_root(e.dst)) fail("edge record targets a non-root");
    }
    const rt::GlobalAddress addr{b.cc, b.slot};
    const std::optional<std::uint64_t> root_vid = vid_of_root(addr);
    if (b.is_root != root_vid.has_value() || (b.is_root && *root_vid != b.vid)) {
      fail("root flag of fragment (cell " + std::to_string(b.cc) +
           ") disagrees with the roots table");
    }
    if (!at.emplace(addr, &b).second) fail("two fragment blocks at one address");
  }
  std::unordered_set<rt::GlobalAddress> seen;
  for (std::uint64_t vid = 0; vid < h.num_vertices; ++vid) {
    walk_chain(
        std::span(h.roots).subspan(vid * h.rhizomes, h.rhizomes),
        [&](rt::GlobalAddress a) {
          const auto it = at.find(a);
          if (it == at.end()) fail("chain link to a missing fragment");
          if (!seen.insert(a).second) fail("chain link revisits a fragment");
          return it->second;
        },
        [&](rt::GlobalAddress, const FragmentBlock& f) {
          if (f.vid != vid) fail("chain link crosses vertices");
        });
  }
  return at;
}

/// One vertex's digest row: appends the out-arcs of the chain rooted at
/// `vertex_roots` to `arcs` in walk_chain's order, which is neighbors()'s,
/// and returns the primary root's app words. `vid_of_root` is
/// check_chains's.
template <typename VidOfRoot, typename At>
AppState read_row(std::span<const rt::GlobalAddress> vertex_roots,
                  VidOfRoot&& vid_of_root, At&& at,
                  std::vector<SnapshotDigest::Arc>& arcs) {
  AppState app{};
  bool first = true;
  walk_chain(vertex_roots, at, [&](rt::GlobalAddress, const auto& f) {
    if (first) {
      app = f.app;  // primary root carries the result words
      first = false;
    }
    for (const EdgeRecord& e : f.edges) {
      if (const auto dst = vid_of_root(e.dst)) arcs.push_back({*dst, e.weight});
    }
  });
  return app;
}

/// The one digest builder: read_row for every vertex.
template <typename VidOfRoot, typename At>
SnapshotDigest build_digest(std::uint64_t num_vertices, std::uint32_t rhizomes,
                            std::span<const rt::GlobalAddress> roots,
                            VidOfRoot&& vid_of_root, At&& at) {
  SnapshotDigest d;
  d.num_vertices = num_vertices;
  d.rhizomes = rhizomes;
  d.adjacency.resize(num_vertices);
  d.app_words.resize(num_vertices);
  for (std::uint64_t vid = 0; vid < num_vertices; ++vid) {
    d.app_words[vid] = read_row(roots.subspan(vid * rhizomes, rhizomes),
                                vid_of_root, at, d.adjacency[vid]);
    d.num_edges += d.adjacency[vid].size();
  }
  return d;
}

}  // namespace

void StreamingGraph::save_snapshot(std::ostream& out) const {
  require_quiescent(chip_);
  sim::Chip& chip = const_cast<sim::Chip&>(chip_);
  const auto& mesh = chip.geometry();
  const auto& rpvo = proto_.rpvo_config();

  out << kMagic << ' ' << kVersion << '\n';
  out << "chip " << mesh.width() << ' ' << mesh.height() << '\n';
  out << "rpvo " << rpvo.edge_capacity << ' ' << rpvo.ghost_fanout << '\n';
  out << "graph " << cfg_.num_vertices << ' ' << rhizomes_ << ' ' << src_rr_
      << ' ' << dst_rr_ << '\n';
  // The roots table is recorded explicitly so the restored graph addresses
  // the same primary/secondary rhizome order the saved one used.
  out << "roots " << roots_.size();
  for (const auto a : roots_) out << ' ' << a.pack();
  out << '\n';

  for (std::uint32_t cc = 0; cc < mesh.cell_count(); ++cc) {
    const auto& arena = chip.cell(cc).arena;
    for (std::uint32_t slot = 0; slot < arena.object_count(); ++slot) {
      const auto* frag = dynamic_cast<const VertexFragment*>(
          chip.cell(cc).arena.get(slot));
      if (frag == nullptr) {
        fail("cell " + std::to_string(cc) +
             " holds a non-fragment object; only graph-only chips can be "
             "checkpointed");
      }
      out << "frag " << cc << ' ' << slot << ' ' << frag->vid << ' '
          << (frag->is_root ? 1 : 0) << ' ' << frag->root.pack() << ' '
          << frag->rhizome_next.pack() << ' ' << frag->inserts_seen << ' '
          << frag->deletes_seen << '\n';
      out << "app";
      for (const auto w : frag->app) out << ' ' << w;
      out << '\n';
      out << "edges " << frag->edges.size();
      for (const auto& e : frag->edges) out << ' ' << e.dst.pack() << ' ' << e.weight;
      out << '\n';
      out << "ghosts " << frag->ghosts.size();
      for (const auto& g : frag->ghosts) {
        if (g.is_pending()) fail("pending ghost future cannot be checkpointed");
        if (g.is_ready()) {
          out << " R " << g.value().pack();
        } else {
          out << " E";
        }
      }
      out << '\n';
      out << "end\n";
    }
  }
}

std::vector<rt::GlobalAddress> StreamingGraph::fragments_of(std::uint64_t vid) const {
  sim::Chip& chip = const_cast<sim::Chip&>(chip_);
  std::vector<rt::GlobalAddress> chain;
  walk_chain(
      rhizome_roots(vid), [&](rt::GlobalAddress a) { return chip.as<VertexFragment>(a); },
      [&](rt::GlobalAddress a, const VertexFragment&) { chain.push_back(a); });
  return chain;
}

SnapshotDigest StreamingGraph::digest() const {
  require_quiescent(chip_);
  sim::Chip& chip = const_cast<sim::Chip&>(chip_);
  return build_digest(
      cfg_.num_vertices, rhizomes_, roots_,
      [&](rt::GlobalAddress a) { return index_.find(a); },
      [&](rt::GlobalAddress a) { return chip.as<VertexFragment>(a); });
}

AppState StreamingGraph::digest_row(std::uint64_t vid,
                                    std::vector<SnapshotDigest::Arc>& arcs) const {
  sim::Chip& chip = const_cast<sim::Chip&>(chip_);
  return read_row(
      rhizome_roots(vid), [&](rt::GlobalAddress a) { return index_.find(a); },
      [&](rt::GlobalAddress a) { return chip.as<VertexFragment>(a); }, arcs);
}

StreamingGraph::StreamingGraph(GraphProtocol& protocol, GraphConfig cfg,
                               RestoreTag)
    : proto_(protocol),
      chip_(protocol.chip()),
      cfg_(cfg),
      rhizomes_(cfg.rhizomes == 0 ? 1 : cfg.rhizomes) {}

std::unique_ptr<StreamingGraph> StreamingGraph::load_snapshot(
    GraphProtocol& protocol, std::istream& in) {
  sim::Chip& chip = protocol.chip();
  const RpvoConfig& rpvo = protocol.rpvo_config();

  Header h = read_header(in);
  if (h.width != chip.geometry().width() || h.height != chip.geometry().height()) {
    fail("chip geometry mismatch: snapshot is " + std::to_string(h.width) + "x" +
         std::to_string(h.height));
  }
  if (h.edge_capacity != rpvo.edge_capacity || h.ghost_fanout != rpvo.ghost_fanout) {
    fail("RPVO configuration mismatch");
  }

  auto g = std::unique_ptr<StreamingGraph>(new StreamingGraph(
      protocol, {.num_vertices = h.num_vertices, .rhizomes = h.rhizomes}, RestoreTag{}));
  g->src_rr_ = h.src_rr;
  g->dst_rr_ = h.dst_rr;
  if (!g->index_.build(h.roots, h.rhizomes, chip.geometry().cell_count())) {
    fail("roots table places a root off the chip, or a cell's roots on "
         "non-consecutive slots");
  }

  // Nothing is placed until every chain checks out: a corrupt link would
  // otherwise leave a cycle that every chain walk follows forever.
  const std::vector<FragmentBlock> blocks = read_blocks(in, h);
  check_chains(h, blocks, [&](rt::GlobalAddress a) { return g->index_.find(a); });
  for (const FragmentBlock& b : blocks) {
    auto frag = VertexFragment::make(b.vid, b.is_root, rpvo, b.app);
    frag->root = b.root;
    frag->rhizome_next = b.rhizome_next;
    frag->inserts_seen = b.inserts_seen;
    frag->deletes_seen = b.deletes_seen;
    frag->edges.assign(b.edges.begin(), b.edges.end());
    std::ranges::copy(b.ghosts, frag->ghosts.begin());

    const auto addr = chip.host_allocate(b.cc, std::move(frag));
    if (!addr || addr->slot != b.slot) {
      fail("fragment placement diverged (cell " + std::to_string(b.cc) +
           "): restore requires a fresh chip");
    }
  }
  g->roots_ = std::move(h.roots);
  return g;
}

SnapshotDigest parse_snapshot_digest(std::istream& in) {
  const Header h = read_header(in);
  // The parser's own roots table: the text need not come from a chip whose
  // roots sit on consecutive slots, which the graph's index assumes.
  std::unordered_map<rt::GlobalAddress, std::uint64_t> root_to_vid;
  for (std::uint64_t i = 0; i < h.roots.size(); ++i) {
    root_to_vid.emplace(h.roots[i], i / h.rhizomes);
  }
  const auto vid_of_root = [&](rt::GlobalAddress a) -> std::optional<std::uint64_t> {
    const auto it = root_to_vid.find(a);
    if (it == root_to_vid.end()) return std::nullopt;
    return it->second;
  };
  const std::vector<FragmentBlock> blocks = read_blocks(in, h);
  const auto at = check_chains(h, blocks, vid_of_root);
  return build_digest(h.num_vertices, h.rhizomes, h.roots, vid_of_root,
                      [&](rt::GlobalAddress a) { return at.find(a)->second; });
}

}  // namespace ccastream::graph
