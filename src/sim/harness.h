// Experiment harness: global-reachability oracle, canned configurations and
// settle helpers shared by tests, benches and examples.
#pragma once

#include <unordered_set>

#include "src/common/config.h"
#include "src/rt/runtime.h"

namespace adgc::sim {

/// True global liveness, computed outside the protocol: BFS from every
/// process's roots across local fields and remote references. This is the
/// oracle the collectors are judged against.
std::unordered_set<ObjectId> global_live_set(const Runtime& rt);

struct GlobalStats {
  std::size_t total_objects = 0;
  std::size_t live_objects = 0;
  std::size_t garbage_objects = 0;  // exist but unreachable: not yet collected
  std::size_t stubs = 0;
  std::size_t scions = 0;
};

GlobalStats global_stats(const Runtime& rt);

/// Configuration with all periodic collector tasks pushed effectively to
/// infinity: tests drive run_lgc/take_snapshot/run_dcda_scan by hand for
/// precise interleavings, while the network still delivers normally.
RuntimeConfig manual_config(std::uint64_t seed = 42);

/// Fast automatic configuration: short collector periods, low latency.
/// Good default for integration tests and examples.
RuntimeConfig fast_config(std::uint64_t seed = 42);

/// Runs everything (LGC → NewSetStubs → snapshot → DCDA scan) on every
/// process, manually, for `rounds` rounds, flushing the network in between.
/// Only meaningful with manual_config. `flush_us` bounds message latency.
void settle_manual(Runtime& rt, int rounds, SimTime flush_us = 50'000);

/// The collector's wire cost over a workload run: control messages
/// (everything but invocations and replies) per invocation up to
/// `mutated`, and messages per process-second over the idle window from
/// `idle_start` to `end` (`idle_us` long, `procs` processes).
struct WireCost {
  std::uint64_t invocations = 0;
  double ctrl_msgs_per_invoke = 0;
  double idle_msgs_per_proc_s = 0;
};

WireCost wire_cost(const Metrics& mutated, const Metrics& idle_start, const Metrics& end,
                   std::size_t procs, SimTime idle_us);

}  // namespace adgc::sim
