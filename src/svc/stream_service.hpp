// Long-lived streaming service mode: continuous ingest of batched edge
// increments with backpressure, plus concurrent read queries answered from
// the snapshot layer while the next increment executes — the ROADMAP's
// "heavy traffic from millions of users" scenario.
//
// Architecture (the gnrc-style decoupled event loops, one per concern):
//
//   producers ──submit()──► bounded batch queue ──► engine loop (1 thread)
//                           block / drop / flush        │ StreamingGraph::
//                           backpressure policy         │ stream_increment
//                                                       ▼
//   readers  ◄──query()──── latched SnapshotView ◄── latch (StreamingGraph::
//                           (immutable, shared_ptr)     digest())
//
// The engine thread is the ONLY thread that ever touches the
// StreamingGraph/chip after start; everything the query front-end reads is
// an immutable SnapshotView latched at a quiescent point between
// increments and published by shared_ptr swap. Queries therefore never
// observe a torn mid-cycle view — they see exactly the fixed point after
// batch k, for some k ≤ the number of executed batches — and the engine
// never blocks on readers.
//
// Determinism: the engine loop calls stream_increment batch-by-batch in
// submission order on one thread, exactly like a one-shot batch run of the
// same schedule — so a service-mode replay of a recorded increment log is
// cycle-for-cycle identical to the batch run (pinned by
// tests/determinism_test.cpp's service-replay leg and the CI serve smoke).
// Snapshot latching only reads the quiescent chip.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/graph.hpp"
#include "graph/builder.hpp"
#include "graph/stream_edge.hpp"

namespace ccastream::svc {

/// What submit() does when the ingest queue is full.
enum class QueuePolicy : std::uint8_t {
  kBlock,  ///< Wait for the engine to free a slot (lossless, applies
           ///< backpressure to the producer). Default.
  kDrop,   ///< Reject the batch (returns false, counted in stats) — the
           ///< load-shedding mode for overloaded ingest.
  kFlush,  ///< Quiesce: wait until the queue fully drains AND the engine
           ///< goes idle, then enqueue — amortised batching for producers
           ///< that prefer rare long stalls over per-batch pushback.
};

[[nodiscard]] std::string_view to_string(QueuePolicy p) noexcept;

/// Parsed `--svc-queue` / CCASTREAM_SVC_QUEUE value: `policy[:capacity]`
/// with policy block|drop|flush and capacity 1..65536 (default 8).
struct QueueSpec {
  QueuePolicy policy = QueuePolicy::kBlock;
  std::size_t capacity = 8;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const QueueSpec&, const QueueSpec&) = default;
};

/// Parses `block`, `drop:32`, `flush:4`, ... Returns std::nullopt on
/// anything else (bad policy, capacity outside 1..65536, trailing junk).
[[nodiscard]] std::optional<QueueSpec> parse_queue_spec(std::string_view s);

/// Resolution follows the global knob rule (docs/TUNING.md): an explicit
/// spec wins, else CCASTREAM_SVC_QUEUE (unparsable values ignored with a
/// one-shot warning), else the default block:8.
[[nodiscard]] QueueSpec resolve_queue_spec(
    std::optional<QueueSpec> requested = std::nullopt);

/// Service counters. Monotone; a consistent copy is returned by
/// StreamService::stats().
struct ServiceStats {
  std::uint64_t batches_submitted = 0;  ///< Accepted into the queue.
  std::uint64_t batches_dropped = 0;    ///< Rejected by the kDrop policy.
  std::uint64_t batches_executed = 0;   ///< Drained through stream_increment.
  std::uint64_t ops_executed = 0;       ///< StreamEdge ops across them.
  std::uint64_t deletes_executed = 0;   ///< Delete ops among those.
  std::uint64_t snapshots_latched = 0;  ///< Published SnapshotViews.
  std::uint64_t flush_waits = 0;        ///< kFlush full-queue quiesces.
  std::uint64_t queries_answered = 0;   ///< query() calls served.

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

/// Per-batch execution record (the service-mode counterpart of
/// graph::IncrementReport), kept in submission order for post-run
/// reporting — the CLI's `serve` mode emits these as JSON lines.
struct BatchReport {
  std::uint64_t seq = 0;  ///< 1-based batch sequence number.
  std::uint64_t edges = 0;
  std::uint64_t deletes = 0;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
};

/// An immutable graph view latched between increments: the logical
/// adjacency plus the installed app's result words, as the
/// graph::SnapshotDigest that StreamingGraph::digest() builds from the
/// fragments at a quiescent point. seq() says how many batches the view
/// reflects. Thread-safe by construction — nothing mutates after the
/// constructor.
class SnapshotView {
 public:
  SnapshotView(graph::SnapshotDigest digest, std::uint64_t seq)
      : digest_(std::move(digest)), seq_(seq) {}

  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return digest_.num_vertices;
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return digest_.num_edges;
  }
  [[nodiscard]] const std::vector<graph::SnapshotDigest::Arc>& out(
      std::uint64_t vid) const {
    return digest_.adjacency[vid];
  }
  /// The installed app's latched result word for a vertex (primary-root
  /// app state — e.g. StreamingBfs::kLevelWord holds the BFS level).
  [[nodiscard]] rt::Word app_word(std::uint64_t vid, std::size_t word) const {
    return digest_.app_words[vid][word];
  }
  /// Copies the view into the sequential-oracle graph type, for answering
  /// algorithmic queries host-side.
  [[nodiscard]] base::RefGraph ref_graph() const;

 private:
  graph::SnapshotDigest digest_;
  std::uint64_t seq_ = 0;
};

/// Read queries the front-end answers from the latched view.
enum class QueryKind : std::uint8_t {
  kBfs,         ///< BFS levels from `source` (base::bfs_levels).
  kSssp,        ///< Dijkstra distances from `source` (base::sssp_distances).
  kComponents,  ///< Directed min-reaching labels (base::min_reaching_labels).
  kPagerank,    ///< Delta-push PageRank (base::pagerank).
  kAppWord,     ///< The installed app's own latched word per vertex.
};

struct QueryRequest {
  QueryKind kind = QueryKind::kAppWord;
  std::uint64_t source = 0;   ///< kBfs / kSssp.
  std::size_t app_word = 0;   ///< kAppWord: which AppState word.
  double damping = 0.85;      ///< kPagerank.
  double epsilon = 1e-7;      ///< kPagerank.
};

struct QueryResult {
  std::uint64_t seq = 0;  ///< Which latched view answered (≤ batches run).
  std::vector<rt::Word> values;  ///< kBfs/kSssp/kComponents/kAppWord.
  std::vector<double> ranks;     ///< kPagerank.
};

class StreamService {
 public:
  struct Config {
    QueueSpec queue;  ///< Pass resolve_queue_spec(...) for env resolution.
  };

  /// The service takes over the graph: after construction, the engine
  /// thread is the only writer of `g` (and its chip) until stop(). The
  /// initial empty-graph snapshot (seq 0) is latched before the engine
  /// starts, so queries are answerable immediately.
  explicit StreamService(graph::StreamingGraph& g, Config cfg = {});

  /// stop()s if still running.
  ~StreamService();

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  // --- Ingest front-end (any thread) ---------------------------------------

  /// Offers one batch (one streaming increment) to the engine. Returns
  /// true when accepted; false when the kDrop policy rejected it. Under
  /// kBlock a full queue blocks the caller; under kFlush it quiesces
  /// first (see QueuePolicy). Rethrows a pending engine failure.
  bool submit(std::vector<StreamEdge> batch);

  /// Blocks until every accepted batch has executed and its snapshot is
  /// latched. Rethrows a pending engine failure (e.g.
  /// graph::DeletionRhizomeError from a delete batch on a rhizomed graph).
  void flush();

  /// flush() (best-effort when the engine failed), then joins the engine
  /// thread. Idempotent. After stop() returns, the caller owns the graph
  /// again and submit() is a misuse.
  void stop();

  /// Maintenance valve, also the deterministic handle the backpressure
  /// tests use: the engine finishes its current batch and parks; the
  /// queue keeps accepting per its policy. resume() restarts draining.
  /// Both only move between running and paused: once stop() has begun
  /// they are no-ops, and stop() drains a paused queue.
  void pause();
  void resume();

  // --- Query front-end (any thread, concurrent with ingest) ----------------

  /// The newest latched view (never null after construction).
  [[nodiscard]] std::shared_ptr<const SnapshotView> snapshot() const;

  /// Answers a read query from the newest latched view ON THE CALLER'S
  /// THREAD — the engine is never involved, so queries run concurrently
  /// with the next increment's execution. Throws std::out_of_range for a
  /// kBfs/kSssp `source` outside the graph or a kAppWord `app_word` >=
  /// graph::kAppWords.
  [[nodiscard]] QueryResult query(const QueryRequest& req) const;

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] ServiceStats stats() const;
  /// Per-batch execution records so far (copy; submission order).
  [[nodiscard]] std::vector<BatchReport> batch_reports() const;
  [[nodiscard]] const QueueSpec& queue_spec() const noexcept {
    return cfg_.queue;
  }

 private:
  struct State;  // queue + latch + cv plumbing, hidden from the header
  void engine_loop();
  void latch_snapshot_locked(std::uint64_t seq);

  graph::StreamingGraph& graph_;
  Config cfg_;
  std::unique_ptr<State> st_;
};

}  // namespace ccastream::svc
