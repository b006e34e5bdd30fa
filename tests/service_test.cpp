// Service-level pinning of svc::StreamService — the ISSUE's streaming
// service mode. Covered here:
//   - ingest/drain lifecycle (initial latch, per-batch reports, stop
//     semantics incl. a pause() racing stop(), misuse after stop)
//   - service-batched increments land on the exact one-shot results
//     (cycles, counters, energy, per-vertex fixed points)
//   - queries answer from the latched snapshot: never a torn mid-increment
//     state, always the fixed point of some executed batch prefix
//   - backpressure policies: block waits for space, drop counts rejects,
//     flush quiesces the queue before enqueueing
//   - engine failures surface on the caller's thread
//   - copy-on-write views: every latched view is the digest of its batch
//     prefix, and shares with the view before it the arc array of every
//     vertex the batch did not name as a source
//   - a seeded concurrent soak vs the oracle, gated on CCASTREAM_STRESS=1
// The whole suite runs under the TSan CI leg (the service is one of the
// two sanctioned threading sites; see tools/lint/rules.toml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

using svc::QueuePolicy;
using svc::QueueSpec;
using svc::StreamService;

constexpr std::uint64_t kVertices = 120;
constexpr std::uint64_t kSeed = 515;

// A chip + protocol + BFS app + graph bundle, identical every time it is
// built — so a service-mode run and a one-shot run are comparable
// cycle-for-cycle.
struct Rig {
  sim::Chip chip;
  graph::GraphProtocol proto;
  apps::StreamingBfs bfs;
  std::unique_ptr<graph::StreamingGraph> g;

  explicit Rig(std::uint64_t n = kVertices, std::uint32_t rhizomes = 1,
               std::uint32_t threads = 1,
               std::optional<sim::EngineKind> engine = std::nullopt)
      : chip([&] {
          sim::ChipConfig cfg = test::small_chip_config();
          cfg.seed = kSeed;
          cfg.threads = threads;
          cfg.engine = engine;
          return cfg;
        }()),
        proto(chip),
        bfs(proto) {
    bfs.install();
    graph::GraphConfig gc;
    gc.num_vertices = n;
    gc.rhizomes = rhizomes;
    gc.root_init = apps::StreamingBfs::initial_state();
    g = std::make_unique<graph::StreamingGraph>(proto, gc);
    bfs.set_source(*g, 0);
  }
};

std::vector<std::vector<StreamEdge>> make_increments(std::size_t count,
                                                     std::uint64_t seed = kSeed) {
  return wl::make_graphchallenge_like(kVertices, 1'200,
                                      wl::SamplingKind::kEdge, count, seed)
      .increments;
}

/// BFS oracle over the first `prefix` increments, in app encoding
/// (kUnreached instead of base::kUnreached).
std::vector<rt::Word> oracle_after(
    const std::vector<std::vector<StreamEdge>>& incs, std::size_t prefix) {
  base::RefGraph ref(kVertices);
  for (std::size_t i = 0; i < prefix; ++i) ref.add_edges(incs[i]);
  std::vector<rt::Word> want = base::bfs_levels(ref, 0);
  for (auto& w : want) {
    if (w == base::kUnreached) w = apps::StreamingBfs::kUnreached;
  }
  return want;
}

std::vector<rt::Word> app_word_query(const StreamService& s) {
  svc::QueryRequest req;
  req.kind = svc::QueryKind::kAppWord;
  req.app_word = apps::StreamingBfs::kLevelWord;
  return s.query(req).values;
}

// --- Queue-spec parsing and resolution ---------------------------------------

TEST(QueueSpec, ParsesPolicyAndCapacity) {
  EXPECT_EQ(svc::parse_queue_spec("block"),
            (QueueSpec{QueuePolicy::kBlock, 8}));
  EXPECT_EQ(svc::parse_queue_spec("drop:32"),
            (QueueSpec{QueuePolicy::kDrop, 32}));
  EXPECT_EQ(svc::parse_queue_spec("flush:1"),
            (QueueSpec{QueuePolicy::kFlush, 1}));
  EXPECT_EQ(svc::parse_queue_spec("block:65536"),
            (QueueSpec{QueuePolicy::kBlock, 65536}));

  for (const char* bad : {"", "Block", "drop:", "drop:0", "drop:65537",
                          "drop:8x", "flush:-1", "block:8:8", "fifo"}) {
    EXPECT_EQ(svc::parse_queue_spec(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(QueueSpec{}.to_string(), "block:8");
  EXPECT_EQ((QueueSpec{QueuePolicy::kFlush, 4}).to_string(), "flush:4");
}

TEST(QueueSpec, ResolvesExplicitOverEnvOverDefault) {
  {
    test::ScopedEnv env("CCASTREAM_SVC_QUEUE", "drop:2");
    EXPECT_EQ(svc::resolve_queue_spec(),
              (QueueSpec{QueuePolicy::kDrop, 2}));
    // An explicit spec beats the env var.
    EXPECT_EQ(svc::resolve_queue_spec(QueueSpec{QueuePolicy::kFlush, 3}),
              (QueueSpec{QueuePolicy::kFlush, 3}));
  }
  {
    test::ScopedEnv env("CCASTREAM_SVC_QUEUE", nullptr);
    EXPECT_EQ(svc::resolve_queue_spec(), QueueSpec{});
  }
  {
    // Unparsable env values fall back to the default instead of failing.
    test::ScopedEnv env("CCASTREAM_SVC_QUEUE", "bogus:99");
    EXPECT_EQ(svc::resolve_queue_spec(), QueueSpec{});
  }
}

// --- Ingest/drain lifecycle --------------------------------------------------

TEST(StreamService, LifecycleLatchesDrainsAndStops) {
  Rig rig;
  const auto incs = make_increments(2);
  StreamService s(*rig.g);
  EXPECT_EQ(s.queue_spec(), QueueSpec{});

  // Before any ingest: the seq-0 (pre-stream) snapshot is already latched
  // and queryable.
  const auto initial = s.snapshot();
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->seq(), 0u);
  EXPECT_EQ(initial->num_vertices(), kVertices);
  EXPECT_EQ(initial->num_edges(), 0u);
  EXPECT_EQ(app_word_query(s), oracle_after(incs, 0));

  EXPECT_TRUE(s.submit(incs[0]));
  EXPECT_TRUE(s.submit(incs[1]));
  s.flush();

  const svc::ServiceStats st = s.stats();
  EXPECT_EQ(st.batches_submitted, 2u);
  EXPECT_EQ(st.batches_executed, 2u);
  EXPECT_EQ(st.batches_dropped, 0u);
  EXPECT_EQ(st.ops_executed, incs[0].size() + incs[1].size());
  EXPECT_EQ(st.snapshots_latched, 3u);  // seq 0, 1, 2

  const auto reports = s.batch_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].seq, 1u);
  EXPECT_EQ(reports[1].seq, 2u);
  EXPECT_GT(reports[0].cycles, 0u);
  EXPECT_EQ(reports[0].edges, incs[0].size());

  s.stop();
  s.stop();  // idempotent
  EXPECT_TRUE(rig.chip.quiescent());
  EXPECT_THROW((void)s.submit(incs[0]), std::logic_error);
}

TEST(StreamService, StopDrainsAcceptedBatchesWithoutFlush) {
  Rig rig;
  const auto incs = make_increments(3);
  {
    StreamService s(*rig.g);
    for (const auto& inc : incs) ASSERT_TRUE(s.submit(inc));
    // Destructor-driven stop: everything accepted still executes.
  }
  EXPECT_TRUE(rig.chip.quiescent());
  std::vector<rt::Word> got;
  for (std::uint64_t v = 0; v < kVertices; ++v) {
    got.push_back(rig.bfs.level_of(*rig.g, v));
  }
  EXPECT_EQ(got, oracle_after(incs, incs.size()));
}

TEST(StreamService, PauseWhileStopDrainsCannotParkTheEngine) {
  // stop() drains every accepted batch; a pause() that lands while it
  // drains must not park the engine stop() is waiting to join. The
  // scenario runs in a child process under a watchdog, so a hang fails in
  // bounded time instead of stalling the suite.
  const auto incs = make_increments(40);
  EXPECT_EXIT(
      {
        std::thread watchdog([] {
          std::this_thread::sleep_for(std::chrono::seconds(30));
          std::_Exit(2);
        });
        Rig rig;
        StreamService s(*rig.g, {QueueSpec{QueuePolicy::kBlock, incs.size()}});
        s.pause();  // queue every batch before the engine runs one
        for (const auto& inc : incs) s.submit(inc);
        std::thread stopper([&] { s.stop(); });
        while (s.stats().batches_executed == 0) std::this_thread::yield();
        s.pause();  // stop() has begun draining: this must be a no-op
        stopper.join();
        // _Exit skips every destructor, the joinable watchdog's included.
        std::_Exit(s.stats().batches_executed == incs.size() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(StreamService, RejectsZeroCapacity) {
  Rig rig;
  EXPECT_THROW(StreamService(*rig.g, {QueueSpec{QueuePolicy::kBlock, 0}}),
               std::invalid_argument);
}

// --- Service-batched == one-shot ---------------------------------------------

TEST(StreamService, BatchedIncrementsMatchOneShotRunExactly) {
  const auto incs = make_increments(4);

  Rig oneshot;
  for (const auto& inc : incs) oneshot.g->stream_increment(inc);
  std::vector<rt::Word> oneshot_levels;
  for (std::uint64_t v = 0; v < kVertices; ++v) {
    oneshot_levels.push_back(oneshot.bfs.level_of(*oneshot.g, v));
  }

  Rig served;
  StreamService s(*served.g);
  for (const auto& inc : incs) ASSERT_TRUE(s.submit(inc));
  s.flush();

  // Cycle-for-cycle: the service pays exactly the one-shot cycles and
  // energy, counter for counter (snapshot latching is host-side only).
  EXPECT_EQ(served.chip.stats(), oneshot.chip.stats());
  EXPECT_EQ(served.chip.energy_pj(), oneshot.chip.energy_pj());

  // Per-batch cycles sum to the chip total.
  std::uint64_t cycles = 0;
  for (const auto& r : s.batch_reports()) cycles += r.cycles;
  EXPECT_EQ(cycles, served.chip.stats().cycles);

  // The latched view carries the identical fixed point and adjacency.
  EXPECT_EQ(app_word_query(s), oneshot_levels);
  const auto view = s.snapshot();
  EXPECT_EQ(view->seq(), incs.size());
  for (std::uint64_t v = 0; v < kVertices; ++v) {
    const auto want = served.g->neighbors(v);
    const auto& got = view->out(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].dst, want[i].first);
      EXPECT_EQ(got[i].weight, want[i].second);
    }
  }
  s.stop();
}

TEST(StreamService, AlgorithmicQueriesMatchOracles) {
  Rig rig;
  const auto incs = make_increments(3);
  StreamService s(*rig.g);
  for (const auto& inc : incs) ASSERT_TRUE(s.submit(inc));
  s.flush();

  base::RefGraph ref(kVertices);
  for (const auto& inc : incs) ref.add_edges(inc);

  svc::QueryRequest req;
  req.kind = svc::QueryKind::kBfs;
  req.source = 0;
  EXPECT_EQ(s.query(req).values, base::bfs_levels(ref, 0));

  req.kind = svc::QueryKind::kSssp;
  EXPECT_EQ(s.query(req).values, base::sssp_distances(ref, 0));

  req.kind = svc::QueryKind::kComponents;
  base::DynamicComponents comps(kVertices);
  for (const auto& inc : incs) comps.apply_increment(inc);
  EXPECT_EQ(s.query(req).values, comps.recompute());

  req.kind = svc::QueryKind::kPagerank;
  const auto pr = s.query(req);
  // The digest stores arcs in fragment-chain order, not insertion order,
  // so the delta-push sums accumulate in a different order: compare with
  // a tolerance instead of bit-exactly.
  const auto want_pr = base::pagerank(ref, req.damping, req.epsilon);
  ASSERT_EQ(pr.ranks.size(), want_pr.size());
  for (std::size_t v = 0; v < want_pr.size(); ++v) {
    EXPECT_NEAR(pr.ranks[v], want_pr[v], 1e-6) << "vertex " << v;
  }

  req.kind = svc::QueryKind::kBfs;
  req.source = kVertices;  // out of range
  EXPECT_THROW((void)s.query(req), std::out_of_range);

  req.kind = svc::QueryKind::kAppWord;
  req.app_word = graph::kAppWords;  // out of range
  EXPECT_THROW((void)s.query(req), std::out_of_range);

  EXPECT_EQ(s.stats().queries_answered, 4u);  // the throwing ones answered nothing
  s.stop();
}

// --- Snapshot latching: queries are never torn -------------------------------

TEST(StreamService, QueryDuringQueuedIncrementReturnsLatchedSnapshot) {
  Rig rig;
  const auto incs = make_increments(2);
  StreamService s(*rig.g);

  ASSERT_TRUE(s.submit(incs[0]));
  s.flush();
  ASSERT_EQ(s.snapshot()->seq(), 1u);

  // Park the engine, then submit batch 2: it sits in the queue, and every
  // query keeps answering the batch-1 fixed point — not empty, not a
  // partial batch 2.
  s.pause();
  ASSERT_TRUE(s.submit(incs[1]));
  for (int i = 0; i < 3; ++i) {
    const auto res = app_word_query(s);
    EXPECT_EQ(s.snapshot()->seq(), 1u);
    EXPECT_EQ(res, oracle_after(incs, 1));
  }
  s.resume();
  s.flush();
  EXPECT_EQ(s.snapshot()->seq(), 2u);
  EXPECT_EQ(app_word_query(s), oracle_after(incs, 2));
  s.stop();
}

TEST(StreamService, ConcurrentQueriesAlwaysSeeSomePrefixFixedPoint) {
  Rig rig;
  const auto incs = make_increments(6);
  // Every query must equal the oracle fixed point of exactly the prefix
  // its seq claims — the torn-read detector. Precompute all prefixes.
  std::vector<std::vector<rt::Word>> prefix_oracle;
  for (std::size_t k = 0; k <= incs.size(); ++k) {
    prefix_oracle.push_back(oracle_after(incs, k));
  }

  StreamService s(*rig.g);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        svc::QueryRequest req;
        req.kind = svc::QueryKind::kAppWord;
        req.app_word = apps::StreamingBfs::kLevelWord;
        const svc::QueryResult res = s.query(req);
        ASSERT_LE(res.seq, incs.size());
        // gtest assertions are not thread-safe for output, but a failing
        // EXPECT here still fails the test; keep the hot check cheap.
        EXPECT_EQ(res.values, prefix_oracle[res.seq]) << "seq " << res.seq;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const auto& inc : incs) ASSERT_TRUE(s.submit(inc));
  s.flush();
  done.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  s.stop();

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(s.snapshot()->seq(), incs.size());
  EXPECT_GE(s.stats().queries_answered, checked.load());
}

// --- Backpressure policies ---------------------------------------------------

TEST(StreamService, DropPolicyCountsAndRejectsOverflow) {
  Rig rig;
  const auto incs = make_increments(3);
  StreamService s(*rig.g, {QueueSpec{QueuePolicy::kDrop, 1}});
  s.pause();  // engine parked: the queue fills deterministically

  EXPECT_TRUE(s.submit(incs[0]));    // queue: [0]
  EXPECT_FALSE(s.submit(incs[1]));   // full -> dropped
  EXPECT_FALSE(s.submit(incs[2]));   // still full -> dropped
  EXPECT_EQ(s.stats().batches_dropped, 2u);
  EXPECT_EQ(s.stats().batches_submitted, 1u);

  s.resume();
  s.flush();
  EXPECT_EQ(s.stats().batches_executed, 1u);
  // Only the accepted batch's ops ran.
  EXPECT_EQ(app_word_query(s), oracle_after(incs, 1));
  s.stop();
}

TEST(StreamService, BlockPolicyWaitsForQueueSpace) {
  Rig rig;
  const auto incs = make_increments(2);
  StreamService s(*rig.g, {QueueSpec{QueuePolicy::kBlock, 1}});
  s.pause();
  ASSERT_TRUE(s.submit(incs[0]));  // fills the queue

  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    EXPECT_TRUE(s.submit(incs[1]));  // must block until the engine drains
    second_accepted.store(true, std::memory_order_release);
  });
  // The producer is wedged on the full queue: while the engine stays
  // parked, the submit cannot complete (a buggy non-blocking submit races
  // to true here and fails the check below).
  for (int i = 0; i < 50 && !second_accepted.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(second_accepted.load(std::memory_order_acquire));
  EXPECT_EQ(s.stats().batches_submitted, 1u);

  s.resume();  // engine drains batch 1 -> slot frees -> producer unblocks
  producer.join();
  EXPECT_TRUE(second_accepted.load(std::memory_order_acquire));
  s.flush();
  EXPECT_EQ(s.stats().batches_submitted, 2u);
  EXPECT_EQ(s.stats().batches_executed, 2u);
  EXPECT_EQ(s.stats().batches_dropped, 0u);
  EXPECT_EQ(app_word_query(s), oracle_after(incs, 2));
  s.stop();
}

TEST(StreamService, FlushPolicyQuiescesTheQueueBeforeEnqueueing) {
  Rig rig;
  const auto incs = make_increments(3);
  StreamService s(*rig.g, {QueueSpec{QueuePolicy::kFlush, 2}});
  s.pause();
  ASSERT_TRUE(s.submit(incs[0]));
  ASSERT_TRUE(s.submit(incs[1]));  // queue now at capacity

  std::atomic<bool> third_accepted{false};
  std::thread producer([&] {
    EXPECT_TRUE(s.submit(incs[2]));  // full -> quiesce first
    third_accepted.store(true, std::memory_order_release);
  });
  // Wait until the producer is parked in its flush wait (submit bumps the
  // counter under the lock just before blocking), so resume() cannot race
  // ahead of the submit it is meant to release. A submit that returns
  // without waiting ends the loop too, and fails the check below.
  while (s.stats().flush_waits == 0 &&
         !third_accepted.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(third_accepted.load(std::memory_order_acquire));

  s.resume();
  producer.join();
  s.flush();
  const svc::ServiceStats st = s.stats();
  EXPECT_EQ(st.flush_waits, 1u);
  EXPECT_EQ(st.batches_submitted, 3u);
  EXPECT_EQ(st.batches_executed, 3u);
  EXPECT_EQ(app_word_query(s), oracle_after(incs, 3));
  s.stop();
}

// --- Engine failure propagation ----------------------------------------------

TEST(StreamService, EngineFailureRethrowsOnCallerThread) {
  // Deletes on a rhizomed graph are a structured streaming-layer error
  // (graph::DeletionRhizomeError); raised on the engine thread, it must
  // surface on the next client call, and the service must stay joinable.
  Rig rig(kVertices, /*rhizomes=*/2);
  StreamService s(*rig.g);
  ASSERT_TRUE(s.submit({make_insert_edge(0, 1), make_insert_edge(1, 2)}));
  s.flush();

  ASSERT_TRUE(s.submit({make_delete_edge(0, 1)}));
  EXPECT_THROW(s.flush(), graph::DeletionRhizomeError);
  EXPECT_THROW((void)s.submit({make_insert_edge(2, 3)}),
               graph::DeletionRhizomeError);
  // The last good snapshot is still queryable.
  EXPECT_EQ(s.snapshot()->seq(), 1u);
  s.stop();
}

// --- Copy-on-write views -----------------------------------------------------

/// The first difference between a latched view and a digest, or "" when
/// the view holds exactly the digest's graph: arcs in chain order,
/// num_edges and every app word.
std::string view_vs_digest(const svc::SnapshotView& view,
                           const graph::SnapshotDigest& d) {
  if (view.num_vertices() != d.num_vertices) return "num_vertices";
  if (view.num_edges() != d.num_edges) {
    return "num_edges " + std::to_string(view.num_edges()) + " vs " +
           std::to_string(d.num_edges);
  }
  for (std::uint64_t v = 0; v < d.num_vertices; ++v) {
    if (!std::ranges::equal(view.out(v), d.adjacency[v])) {
      return "arcs of vertex " + std::to_string(v);
    }
    for (std::size_t w = 0; w < graph::kAppWords; ++w) {
      if (view.app_word(v, w) != d.app_words[v][w]) {
        return "app word " + std::to_string(w) + " of vertex " + std::to_string(v);
      }
    }
  }
  return "";
}

/// Starts a service on `g` and submits and flush()es `incs` one batch at a
/// time. After each flush the latched view must equal digest() of the idle
/// graph, and every vertex no op of the batch names as its source must
/// keep the previous view's arc array (the same data() pointer). Returns
/// how many non-empty arrays were shared that way.
std::uint64_t expect_views_are_digests(
    graph::StreamingGraph& g, const std::vector<std::vector<StreamEdge>>& incs) {
  StreamService s(g);
  std::shared_ptr<const svc::SnapshotView> prev = s.snapshot();
  graph::SnapshotDigest prev_digest = g.digest();
  EXPECT_EQ(view_vs_digest(*prev, prev_digest), "") << "seq 0";
  EXPECT_TRUE(prev->matches(prev_digest));
  std::uint64_t shared = 0;
  for (std::size_t k = 0; k < incs.size(); ++k) {
    SCOPED_TRACE("batch " + std::to_string(k + 1));
    EXPECT_TRUE(s.submit(incs[k]));
    s.flush();
    const auto view = s.snapshot();
    const graph::SnapshotDigest d = g.digest();
    EXPECT_EQ(view->seq(), k + 1);
    EXPECT_EQ(view_vs_digest(*view, d), "");
    EXPECT_TRUE(view->matches(d));
    if (d != prev_digest) {
      EXPECT_FALSE(prev->matches(d));
    }

    std::vector<bool> source(g.num_vertices(), false);
    for (const StreamEdge& e : incs[k]) source[e.src] = true;
    for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
      if (source[v]) continue;
      if (view->out(v).data() != prev->out(v).data()) {
        ADD_FAILURE() << "vertex " << v << " is no source, but its arcs were copied";
        break;
      }
      if (!view->out(v).empty()) ++shared;
    }
    prev = view;
    prev_digest = d;
  }
  s.stop();
  return shared;
}

/// The views' logs: 4 000 edges over 400 vertices in 8 increments, so a
/// batch leaves vertices unnamed while the hubs' chains grow ghosts past
/// the 16 edge slots of a fragment.
constexpr std::uint64_t kViewVertices = 400;

std::vector<std::vector<StreamEdge>> view_increments(std::uint32_t window) {
  auto sched = wl::make_graphchallenge_like(kViewVertices, 4'000,
                                            wl::SamplingKind::kEdge, 8, kSeed);
  if (window != 0) sched = wl::apply_sliding_window(sched, window);
  return sched.increments;
}

/// Batches naming a vertex as the source of a delete but of no insert,
/// summed over the log: the rows a latch that re-read insert sources only
/// would leave stale.
std::uint64_t delete_only_sources(const std::vector<std::vector<StreamEdge>>& incs) {
  std::uint64_t count = 0;
  for (const auto& inc : incs) {
    std::vector<std::uint8_t> kinds(kViewVertices, 0);  // bit 0 insert, bit 1 delete
    for (const StreamEdge& e : inc) kinds[e.src] |= e.is_delete() ? 2 : 1;
    count += static_cast<std::uint64_t>(std::ranges::count(kinds, 2));
  }
  return count;
}

/// Ghost fragments across every vertex's chain.
std::uint64_t ghost_count(const graph::StreamingGraph& g) {
  std::uint64_t ghosts = 0;
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    ghosts += g.fragments_of(v).size() - g.rhizome_count();
  }
  return ghosts;
}

TEST(SnapshotViews, EachViewIsTheDigestOfItsPrefixWindowedBfs) {
  const auto incs = view_increments(/*window=*/3);
  ASSERT_GT(delete_only_sources(incs), 0u);
  Rig rig(kViewVertices);
  EXPECT_GT(expect_views_are_digests(*rig.g, incs), 0u);
  EXPECT_GT(ghost_count(*rig.g), 0u);
}

TEST(SnapshotViews, EachViewIsTheDigestOfItsPrefixWindowedComponents) {
  const auto incs = view_increments(/*window=*/4);
  ASSERT_GT(delete_only_sources(incs), 0u);
  sim::ChipConfig cfg = test::small_chip_config();
  cfg.seed = kSeed;
  sim::Chip chip(cfg);
  graph::GraphProtocol proto(chip);
  apps::StreamingComponents comps(proto);
  comps.install();
  graph::GraphConfig gc;
  gc.num_vertices = kViewVertices;
  gc.root_init = apps::StreamingComponents::initial_state();
  graph::StreamingGraph g(proto, gc);
  comps.seed_labels(g);
  EXPECT_GT(expect_views_are_digests(g, incs), 0u);
  EXPECT_GT(ghost_count(g), 0u);
}

TEST(SnapshotViews, EachViewIsTheDigestOfItsPrefixWithRhizomes) {
  Rig rig(kViewVertices, /*rhizomes=*/2);
  EXPECT_GT(expect_views_are_digests(*rig.g, view_increments(/*window=*/0)), 0u);
  EXPECT_GT(ghost_count(*rig.g), 0u);
}

TEST(SnapshotViews, FirstLatchReadsAGraphStreamedBeforeTheService) {
  // The seq-0 latch has no previous view: it reads every vertex of a graph
  // that already holds arcs and app state.
  auto incs = view_increments(/*window=*/3);
  Rig rig(kViewVertices);
  for (std::size_t k = 0; k < 4; ++k) rig.g->stream_increment(incs[k]);
  ASSERT_GT(rig.g->digest().num_edges, 0u);
  incs.erase(incs.begin(), incs.begin() + 4);
  EXPECT_GT(expect_views_are_digests(*rig.g, incs), 0u);
}

// --- Seeded concurrent soak (CCASTREAM_STRESS=1) -----------------------------

TEST(StreamService, StressSoakAgainstOracle) {
  if (const char* flag = std::getenv("CCASTREAM_STRESS");
      flag == nullptr || std::string(flag) != "1") {
    GTEST_SKIP() << "set CCASTREAM_STRESS=1 to run the service soak";
  }
  // A longer windowed schedule (inserts + expiry deletions) streamed
  // through the service while reader threads hammer queries — checked
  // against the per-prefix oracle at every answer, on a 4-thread chip with
  // the active-set engine (the production configuration).
  auto sched = wl::make_graphchallenge_like(kVertices, 4'000,
                                            wl::SamplingKind::kEdge,
                                            /*increments=*/12, kSeed);
  sched = wl::apply_sliding_window(sched, /*window=*/3, /*drain=*/true);
  const auto& incs = sched.increments;

  std::vector<base::RefGraph> prefix_ref;
  prefix_ref.emplace_back(kVertices);
  for (const auto& inc : incs) {
    base::RefGraph next = prefix_ref.back();
    next.add_edges(inc);  // mixed-op batch: deletes first, like the chip
    prefix_ref.push_back(std::move(next));
  }
  std::vector<std::vector<rt::Word>> prefix_oracle;
  for (const auto& ref : prefix_ref) {
    std::vector<rt::Word> want = base::bfs_levels(ref, 0);
    for (auto& w : want) {
      if (w == base::kUnreached) w = apps::StreamingBfs::kUnreached;
    }
    prefix_oracle.push_back(std::move(want));
  }

  Rig rig(kVertices, /*rhizomes=*/1, /*threads=*/4, sim::EngineKind::kActive);
  StreamService s(*rig.g, {QueueSpec{QueuePolicy::kBlock, 2}});
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        svc::QueryRequest req;
        req.kind = svc::QueryKind::kAppWord;
        req.app_word = apps::StreamingBfs::kLevelWord;
        const svc::QueryResult res = s.query(req);
        ASSERT_LT(res.seq, prefix_oracle.size());
        EXPECT_EQ(res.values, prefix_oracle[res.seq]) << "seq " << res.seq;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const auto& inc : incs) ASSERT_TRUE(s.submit(inc));
  s.flush();
  done.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(s.stats().batches_executed, incs.size());
  EXPECT_EQ(app_word_query(s), prefix_oracle.back());
  s.stop();
}

}  // namespace
}  // namespace ccastream
