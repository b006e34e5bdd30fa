#include "sim/stats.hpp"

#include <ostream>

namespace ccastream::sim {

ChipStats ChipStats::delta_since(const ChipStats& earlier) const noexcept {
  ChipStats d;
  d.cycles = cycles - earlier.cycles;
  d.actions_created = actions_created - earlier.actions_created;
  d.actions_executed = actions_executed - earlier.actions_executed;
  d.tasks_scheduled = tasks_scheduled - earlier.tasks_scheduled;
  d.instructions = instructions - earlier.instructions;
  d.stage_stalls = stage_stalls - earlier.stage_stalls;
  d.messages_staged = messages_staged - earlier.messages_staged;
  d.hops = hops - earlier.hops;
  d.deliveries = deliveries - earlier.deliveries;
  d.total_delivery_latency = total_delivery_latency - earlier.total_delivery_latency;
  d.io_injections = io_injections - earlier.io_injections;
  d.allocations = allocations - earlier.allocations;
  d.alloc_forwards = alloc_forwards - earlier.alloc_forwards;
  d.alloc_failures = alloc_failures - earlier.alloc_failures;
  d.faults = faults - earlier.faults;
  return d;
}

void ChipStats::add(const ChipStats& other) noexcept {
  cycles += other.cycles;
  actions_created += other.actions_created;
  actions_executed += other.actions_executed;
  tasks_scheduled += other.tasks_scheduled;
  instructions += other.instructions;
  stage_stalls += other.stage_stalls;
  messages_staged += other.messages_staged;
  hops += other.hops;
  deliveries += other.deliveries;
  total_delivery_latency += other.total_delivery_latency;
  io_injections += other.io_injections;
  allocations += other.allocations;
  alloc_forwards += other.alloc_forwards;
  alloc_failures += other.alloc_failures;
  faults += other.faults;
}

std::ostream& operator<<(std::ostream& os, const ChipStats& s) {
  os << "cycles=" << s.cycles << " actions(created=" << s.actions_created
     << ", executed=" << s.actions_executed << ", tasks=" << s.tasks_scheduled
     << ") instr=" << s.instructions << " msgs(staged=" << s.messages_staged
     << ", hops=" << s.hops << ", delivered=" << s.deliveries
     << ", mean_lat=" << s.mean_delivery_latency() << ") io=" << s.io_injections
     << " alloc(ok=" << s.allocations << ", fwd=" << s.alloc_forwards
     << ", fail=" << s.alloc_failures << ") faults=" << s.faults;
  return os;
}

}  // namespace ccastream::sim
