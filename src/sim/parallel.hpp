// Persistent worker pool for the partitioned chip engine.
//
// One pool drives `workers` logical mesh partitions (block-cyclic rows —
// see sim/partition.hpp): the calling thread executes partition 0 and
// `workers - 1` resident threads execute the rest.
// A job is dispatched once per run() and typically loops over many cycles
// internally, using sync() as the phase barrier shared by all partition
// threads — dispatching once per run (instead of once per phase) keeps the
// per-cycle synchronisation down to futex-backed barrier waits.
//
// The chip adds a sparse fast path on top, under both cycle engines (see
// EngineKind in sim/chip.hpp): when a cycle has almost no live cells,
// Chip::run_cycles ends the pooled batch and executes cycles phase-major
// on the calling thread, re-dispatching the pool only when the frontier
// widens again. The syncs() counter makes that mode switch observable (a
// serially executed cycle performs zero barrier arrivals). The barrier
// schedule itself — route | settle (apply+io+compute) | end-of-cycle step,
// one sync after each — is what the determinism invariant rests on: every
// cross-partition read happens against state settled behind the previous
// barrier (docs/ARCHITECTURE.md, "The cycle lifecycle"). Within a stage no
// two partitions write the same word: each owns its cells' SoA words, its
// rows' slot pools and its own activity bitmap (sim/active_set.hpp), so
// the barriers are the only synchronisation the engine needs.
#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ccastream::sim {

class PartitionPool {
 public:
  explicit PartitionPool(std::uint32_t workers);
  ~PartitionPool();

  PartitionPool(const PartitionPool&) = delete;
  PartitionPool& operator=(const PartitionPool&) = delete;

  [[nodiscard]] std::uint32_t workers() const noexcept { return workers_; }

  /// Runs job(partition) on every partition concurrently; returns when all
  /// have finished. The job must call sync() an identical number of times
  /// from every partition (the barrier counts all of them) — the chip's
  /// cycle loop satisfies this because every partition executes the same
  /// two-stage, three-sync schedule and the batch-stop decision is itself
  /// published behind a sync.
  void run(const std::function<void(std::uint32_t)>& job);

  /// Phase barrier: blocks until every partition thread has arrived.
  /// Arrival-and-wait also establishes the happens-before edge that lets
  /// the next phase read state other partitions wrote in the previous one
  /// without atomics.
  void sync() {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    barrier_.arrive_and_wait();
  }

  /// Barrier arrivals over the pool's lifetime, summed across all threads
  /// — telemetry for the engine's sparse fast path (cycles executed on the
  /// calling thread bypass the pool entirely, so sparse runs show far
  /// fewer arrivals than 3 × threads × cycles).
  [[nodiscard]] std::uint64_t syncs() const noexcept {
    return syncs_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::uint32_t partition);

  std::uint32_t workers_;
  std::barrier<> barrier_;
  std::atomic<std::uint64_t> syncs_{0};
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_threads_;
};

}  // namespace ccastream::sim
