// StreamService implementation. Concurrency layout:
//
//   - One engine thread owns the StreamingGraph/chip exclusively between
//     construction and stop(); stream_increment and snapshot latching run
//     with the service mutex RELEASED, so producers and readers never wait
//     on simulated work.
//   - One mutex guards the batch queue, the published SnapshotView
//     pointer, the stats/report blocks, the lifecycle state and the
//     failure. Everything under it is O(1) bookkeeping.
//   - Readers copy the shared_ptr under the mutex and compute on their own
//     thread against the immutable view.
//
// An exception escaping the engine (DeletionRhizomeError, out-of-range
// endpoint ids, digest failures) is captured as the service's terminal
// failure: the engine parks, and every subsequent submit()/flush()
// rethrows it on the caller's thread.
#include "svc/stream_service.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baseline/algorithms.hpp"

namespace ccastream::svc {

std::string_view to_string(QueuePolicy p) noexcept {
  switch (p) {
    case QueuePolicy::kBlock: return "block";
    case QueuePolicy::kDrop: return "drop";
    case QueuePolicy::kFlush: return "flush";
  }
  return "?";
}

std::string QueueSpec::to_string() const {
  return std::string(svc::to_string(policy)) + ":" + std::to_string(capacity);
}

std::optional<QueueSpec> parse_queue_spec(std::string_view s) {
  QueueSpec spec;
  const auto colon = s.find(':');
  const std::string_view policy = s.substr(0, colon);
  if (policy == "block") spec.policy = QueuePolicy::kBlock;
  else if (policy == "drop") spec.policy = QueuePolicy::kDrop;
  else if (policy == "flush") spec.policy = QueuePolicy::kFlush;
  else return std::nullopt;
  if (colon != std::string_view::npos) {
    const std::string_view cap = s.substr(colon + 1);
    std::size_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(cap.data(), cap.data() + cap.size(), v);
    if (ec != std::errc{} || ptr != cap.data() + cap.size() || v < 1 ||
        v > 65536) {
      return std::nullopt;
    }
    spec.capacity = v;
  }
  return spec;
}

QueueSpec resolve_queue_spec(std::optional<QueueSpec> requested) {
  if (requested) return *requested;
  if (const char* env = std::getenv("CCASTREAM_SVC_QUEUE")) {
    if (auto spec = parse_queue_spec(env)) return *spec;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccastream: ignoring invalid CCASTREAM_SVC_QUEUE '%s' "
                   "(want block|drop|flush[:1..65536]; using block:8)\n",
                   env);
    }
  }
  return QueueSpec{};
}

base::RefGraph SnapshotView::ref_graph() const {
  base::RefGraph g(num_vertices());
  for (std::uint64_t v = 0; v < num_vertices(); ++v) {
    for (const auto& arc : out(v)) g.add_edge(v, arc.dst, arc.weight);
  }
  return g;
}

struct StreamService::State {
  /// running <-> paused by pause()/resume(); stop() moves either to
  /// stopping (the engine drains the queue), then to stopped once joined.
  /// A pause() after stop() began is a no-op: it cannot park the engine.
  enum class Lifecycle : std::uint8_t { kRunning, kPaused, kStopping, kStopped };

  mutable std::mutex m;
  std::condition_variable cv_engine;  ///< Wakes the engine: work / stop.
  std::condition_variable cv_client;  ///< Wakes producers/flushers.
  std::deque<std::vector<StreamEdge>> queue;
  std::shared_ptr<const SnapshotView> view;
  ServiceStats stats;
  std::vector<BatchReport> reports;
  Lifecycle lifecycle = Lifecycle::kRunning;
  std::exception_ptr failure;  ///< Terminal engine failure; parks the engine.
  std::thread engine;

  void rethrow_failure_locked() const {
    if (failure) std::rethrow_exception(failure);
  }
  /// Every accepted batch has executed and latched (or the engine failed).
  [[nodiscard]] bool drained_locked() const {
    return failure || stats.batches_executed == stats.batches_submitted;
  }
};

StreamService::StreamService(graph::StreamingGraph& g, Config cfg)
    : graph_(g), cfg_(cfg), st_(std::make_unique<State>()) {
  if (cfg_.queue.capacity == 0) {
    throw std::invalid_argument("StreamService: queue capacity must be >= 1");
  }
  // Latch the pre-stream view (seq 0) before the engine exists, so queries
  // have an answerable snapshot from the first instant.
  latch_snapshot_locked(0);
  st_->stats.snapshots_latched = 1;
  st_->engine = std::thread([this] { engine_loop(); });
}

StreamService::~StreamService() { stop(); }

void StreamService::latch_snapshot_locked(std::uint64_t seq) {
  // Caller guarantees exclusive graph access (constructor, or the engine
  // thread between increments). Only the publish itself needs the mutex.
  auto view = std::make_shared<const SnapshotView>(graph_.digest(), seq);
  const std::lock_guard<std::mutex> lock(st_->m);
  st_->view = std::move(view);
}

void StreamService::engine_loop() {
  for (;;) {
    std::vector<StreamEdge> batch;
    std::uint64_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(st_->m);
      // Running pops queued work; stopping drains what is left, then exits.
      // Paused, or failed, pops nothing.
      st_->cv_engine.wait(lock, [&] {
        return st_->lifecycle == State::Lifecycle::kStopping ||
               (st_->lifecycle == State::Lifecycle::kRunning &&
                !st_->queue.empty() && !st_->failure);
      });
      if (st_->queue.empty() || st_->failure) return;  // stopping: drained or failed
      batch = std::move(st_->queue.front());
      st_->queue.pop_front();
      seq = st_->stats.batches_executed + 1;
    }

    try {
      const graph::IncrementReport rep = graph_.stream_increment(batch);
      latch_snapshot_locked(seq);
      const std::lock_guard<std::mutex> lock(st_->m);
      st_->stats.batches_executed = seq;
      st_->stats.ops_executed += rep.edges;
      st_->stats.deletes_executed += rep.deletes;
      ++st_->stats.snapshots_latched;
      st_->reports.push_back({seq, rep.edges, rep.deletes, rep.cycles,
                              rep.energy_uj});
    } catch (...) {
      const std::lock_guard<std::mutex> lock(st_->m);
      st_->failure = std::current_exception();
    }
    st_->cv_client.notify_all();
  }
}

bool StreamService::submit(std::vector<StreamEdge> batch) {
  std::unique_lock<std::mutex> lock(st_->m);
  if (st_->lifecycle == State::Lifecycle::kStopping ||
      st_->lifecycle == State::Lifecycle::kStopped) {
    throw std::logic_error("StreamService: submit after stop");
  }
  st_->rethrow_failure_locked();
  switch (cfg_.queue.policy) {
    case QueuePolicy::kDrop:
      if (st_->queue.size() >= cfg_.queue.capacity) {
        ++st_->stats.batches_dropped;
        return false;
      }
      break;
    case QueuePolicy::kBlock:
      st_->cv_client.wait(lock, [&] {
        return st_->failure || st_->queue.size() < cfg_.queue.capacity;
      });
      st_->rethrow_failure_locked();
      break;
    case QueuePolicy::kFlush:
      if (st_->queue.size() >= cfg_.queue.capacity) {
        ++st_->stats.flush_waits;
        st_->cv_client.wait(lock, [&] { return st_->drained_locked(); });
        st_->rethrow_failure_locked();
      }
      break;
  }
  st_->queue.push_back(std::move(batch));
  ++st_->stats.batches_submitted;
  st_->cv_engine.notify_one();
  return true;
}

void StreamService::flush() {
  std::unique_lock<std::mutex> lock(st_->m);
  st_->cv_client.wait(lock, [&] { return st_->drained_locked(); });
  st_->rethrow_failure_locked();
}

void StreamService::stop() {
  {
    std::unique_lock<std::mutex> lock(st_->m);
    if (st_->lifecycle == State::Lifecycle::kStopped) return;
    // Let the engine drain what was accepted (unless it already failed —
    // then the leftover queue is abandoned).
    st_->lifecycle = State::Lifecycle::kStopping;
    st_->cv_engine.notify_all();
  }
  if (st_->engine.joinable()) st_->engine.join();
  const std::lock_guard<std::mutex> lock(st_->m);
  st_->lifecycle = State::Lifecycle::kStopped;
  st_->cv_client.notify_all();
}

void StreamService::pause() {
  const std::lock_guard<std::mutex> lock(st_->m);
  if (st_->lifecycle == State::Lifecycle::kRunning) {
    st_->lifecycle = State::Lifecycle::kPaused;
  }
}

void StreamService::resume() {
  const std::lock_guard<std::mutex> lock(st_->m);
  if (st_->lifecycle != State::Lifecycle::kPaused) return;
  st_->lifecycle = State::Lifecycle::kRunning;
  st_->cv_engine.notify_all();
}

std::shared_ptr<const SnapshotView> StreamService::snapshot() const {
  const std::lock_guard<std::mutex> lock(st_->m);
  return st_->view;
}

QueryResult StreamService::query(const QueryRequest& req) const {
  const std::shared_ptr<const SnapshotView> view = snapshot();
  const std::uint64_t n = view->num_vertices();
  QueryResult res;
  res.seq = view->seq();
  switch (req.kind) {
    case QueryKind::kBfs: {
      if (req.source >= n) throw std::out_of_range("query source out of range");
      res.values = base::bfs_levels(view->ref_graph(), req.source);
      break;
    }
    case QueryKind::kSssp: {
      if (req.source >= n) throw std::out_of_range("query source out of range");
      res.values = base::sssp_distances(view->ref_graph(), req.source);
      break;
    }
    case QueryKind::kComponents: {
      res.values = base::min_reaching_labels(view->ref_graph());
      break;
    }
    case QueryKind::kPagerank: {
      res.ranks = base::pagerank(view->ref_graph(), req.damping, req.epsilon);
      break;
    }
    case QueryKind::kAppWord: {
      if (req.app_word >= graph::kAppWords) {
        throw std::out_of_range("query app_word out of range");
      }
      res.values.reserve(n);
      for (std::uint64_t v = 0; v < n; ++v) {
        res.values.push_back(view->app_word(v, req.app_word));
      }
      break;
    }
  }
  const std::lock_guard<std::mutex> lock(st_->m);
  ++st_->stats.queries_answered;
  return res;
}

ServiceStats StreamService::stats() const {
  const std::lock_guard<std::mutex> lock(st_->m);
  return st_->stats;
}

std::vector<BatchReport> StreamService::batch_reports() const {
  const std::lock_guard<std::mutex> lock(st_->m);
  return st_->reports;
}

}  // namespace ccastream::svc
