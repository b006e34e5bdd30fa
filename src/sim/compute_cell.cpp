#include "sim/compute_cell.hpp"

#include <cassert>

namespace ccastream::sim {

bool ComputeCell::idle() const noexcept {
  // The packed hot word stands in for walking six FIFO lanes and three
  // queues: the sanctioned mutation helpers are its only writers. Debug
  // builds cross-check the cached FIFO counter against the lanes at this
  // read site — the one place every engine path funnels through — and
  // the work count against the containers it summarises.
  assert(fifo_msgs() == router_occupancy());
  assert(soa_->work_items(index_) ==
         fifo_msgs() + staged_count_ + task_count_ + action_count_);
  return soa_->hot_word(index_) == 0;
}

std::uint32_t ComputeCell::router_occupancy() const noexcept {
  return soa_->lane_occupancy(index_);
}

}  // namespace ccastream::sim
