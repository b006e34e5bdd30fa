#include "sim/parallel.hpp"

namespace ccastream::sim {

PartitionPool::PartitionPool(std::uint32_t workers)
    : workers_(workers), barrier_(static_cast<std::ptrdiff_t>(workers)) {
  workers_threads_.reserve(workers_ > 0 ? workers_ - 1 : 0);
  for (std::uint32_t p = 1; p < workers_; ++p) {
    workers_threads_.emplace_back([this, p] { worker_loop(p); });
  }
}

PartitionPool::~PartitionPool() {
  {
    const std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_threads_) w.join();
}

void PartitionPool::run(const std::function<void(std::uint32_t)>& job) {
  // Dispatches are cheap enough to repeat: the chip's sparse fast path
  // may end a batch, run a stretch of cycles serially, and
  // re-dispatch the pool many times within one run_cycles call — each
  // dispatch is one generation bump plus a condition-variable wakeup.
  if (workers_ <= 1) {
    job(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(m_);
    job_ = &job;
    ++generation_;
    running_ = workers_ - 1;
  }
  cv_start_.notify_all();
  job(0);  // the caller is partition 0
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [this] { return running_ == 0; });
  job_ = nullptr;
}

void PartitionPool::worker_loop(std::uint32_t partition) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::uint32_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(partition);
    {
      const std::lock_guard<std::mutex> lk(m_);
      --running_;
    }
    cv_done_.notify_one();
  }
}

}  // namespace ccastream::sim
