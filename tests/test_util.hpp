// Shared helpers for the ccastream test suite.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccastream/ccastream.hpp"

namespace ccastream::test {

/// Pins one environment variable for a test's lifetime, restoring the
/// previous value on destruction. Pass `nullptr` to unset. Used by every
/// knob-resolution test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

/// Minimal rt::Context for unit-testing runtime components in isolation
/// (futures, handlers) without a chip. Records everything it is asked to do.
class MockContext final : public rt::Context {
 public:
  explicit MockContext(std::uint32_t cc = 0) : cc_(cc) {}

  void propagate(const rt::Action& a) override { propagated.push_back(a); }
  void schedule_local(const rt::Action& a) override { scheduled.push_back(a); }
  void charge(std::uint32_t n) override { charged += n; }

  [[nodiscard]] rt::ArenaObject* deref(rt::GlobalAddress addr) override {
    if (addr.cc != cc_ || addr.slot >= objects.size()) return nullptr;
    return objects[addr.slot];
  }

  void call_cc_allocate(rt::ObjectKind kind, rt::GlobalAddress reply_to,
                        rt::HandlerId reply_handler, rt::Word tag) override {
    alloc_requests.push_back({kind, reply_to, reply_handler, tag});
  }

  struct AllocRequest {
    rt::ObjectKind kind;
    rt::GlobalAddress reply_to;
    rt::HandlerId reply_handler;
    rt::Word tag;
  };

  std::vector<rt::Action> propagated;
  std::vector<rt::Action> scheduled;
  std::vector<AllocRequest> alloc_requests;
  std::vector<rt::ArenaObject*> objects;  // slot -> object (not owned)
  std::uint32_t charged = 0;

 private:
  std::uint32_t cc_;
};

/// Minimal arena object a spinner runs against.
class SpinBlob final : public rt::ArenaObject {
 public:
  [[nodiscard]] std::size_t logical_bytes() const noexcept override {
    return 16;
  }
};

/// Registers the self-spinning handler: each execution burns instruction
/// cycles and, while its countdown lasts, re-propagates to its own cell —
/// so an injected cell stays continuously live for a duration proportional
/// to the countdown, letting tests hold mesh occupancy at a chosen level.
inline rt::HandlerId install_spin(sim::Chip& chip) {
  return chip.handlers().register_handler(
      "spin", [](rt::Context& ctx, const rt::Action& a) {
        ctx.charge(3);
        if (a.args[0] > 0) {
          ctx.propagate(rt::make_action(
              a.handler, rt::GlobalAddress::unpack(a.args[1]), a.args[0] - 1,
              a.args[1]));
        }
      });
}

/// Allocates a SpinBlob on cell `cc` and injects a spinner with `rounds`
/// self-propagations straight into it.
inline void seed_spinner(sim::Chip& chip, rt::HandlerId spin,
                         std::uint32_t cc, rt::Word rounds) {
  const auto tgt = *chip.host_allocate(cc, std::make_unique<SpinBlob>());
  chip.inject_local(rt::make_action(spin, tgt, rounds, tgt.pack()));
}

/// Like seed_spinner, but the action enters the mesh at `entry_cc` and
/// traverses the network to `cc` — so the run pays real hops (and, with
/// multiple partitions, cross-partition traffic) on its way.
inline void seed_spinner_via(sim::Chip& chip, rt::HandlerId spin,
                             std::uint32_t entry_cc, std::uint32_t cc,
                             rt::Word rounds) {
  const auto tgt = *chip.host_allocate(cc, std::make_unique<SpinBlob>());
  chip.inject_via(entry_cc, rt::make_action(spin, tgt, rounds, tgt.pack()));
}

/// Cycle cap of every chip run in the suites that compare whole runs
/// (determinism_test, engine_equivalence_test): more than ten times the
/// longest increment either streams, the 6 049 cycles of
/// engine_equivalence_test's 512x512 CCASTREAM_STRESS=1 leg. A chip bug
/// that strands work then fails its test within the cap instead of
/// spinning until ctest's timeout.
inline constexpr std::uint64_t kRunCycleCap = 100'000;

/// Runs `chip` under kRunCycleCap and fails the calling test unless it is
/// quiescent afterwards. Returns the cycles executed.
inline std::uint64_t run_capped(sim::Chip& chip) {
  const std::uint64_t cycles = chip.run_until_quiescent(kRunCycleCap);
  EXPECT_TRUE(chip.quiescent()) << "work left after " << cycles << " cycles";
  return cycles;
}

/// Streams `increment` into `g` with every chip run under kRunCycleCap and
/// fails the calling test unless the chip is quiescent afterwards.
inline graph::IncrementReport run_capped(graph::StreamingGraph& g,
                                         std::span<const StreamEdge> increment) {
  const graph::IncrementReport r = g.stream_increment(increment, kRunCycleCap);
  EXPECT_TRUE(g.chip().quiescent())
      << "work left after an increment of " << r.cycles << " cycles";
  return r;
}

/// A small chip configuration that keeps unit tests fast.
inline sim::ChipConfig small_chip_config(std::uint32_t dim = 8) {
  sim::ChipConfig cfg;
  cfg.width = dim;
  cfg.height = dim;
  cfg.cc_memory_bytes = 1u << 20;
  return cfg;
}

/// Rewrites a save_snapshot text into the pre-deletion v1 format: v1
/// header, no deletes_seen column on the frag lines (the last field in v2).
inline std::string to_v1_snapshot(const std::string& v2_text) {
  std::istringstream v2(v2_text);
  std::ostringstream v1;
  std::string line;
  while (std::getline(v2, line)) {
    if (line.rfind("ccastream-snapshot", 0) == 0) {
      line = "ccastream-snapshot v1";
    } else if (line.rfind("frag ", 0) == 0) {
      line = line.substr(0, line.rfind(' '));
    }
    v1 << line << '\n';
  }
  return v1.str();
}

/// Builds a RefGraph from streamed edges.
inline base::RefGraph ref_graph_of(std::uint64_t n,
                                   const std::vector<StreamEdge>& edges) {
  base::RefGraph g(n);
  g.add_edges(edges);
  return g;
}

}  // namespace ccastream::test
