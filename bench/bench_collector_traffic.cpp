// Collector wire cost at cluster sizes N = 4 / 16 / 32 — what the DGC puts
// on the network per unit of mutator work, and what it costs while nothing
// happens at all.
//
// Each leg runs adgc_sim's randomized workload (sim::RandomWorkload, fast
// collector config, lossless network): 40 rounds of 20 mutator steps, 15
// simulated ms apart, then a 30 s settle. It reports
//   * ctrl_msgs_per_invoke — every message except invocations and replies,
//     per invocation, over the mutation phase;
//   * idle_msgs_per_proc_s — all messages per process-second over the last
//     2 s of the settle, when only the live structures remain.
// Both are deterministic functions of (N, seed); bench_diff gates them as
// wire counts. The run must converge (no garbage, no live object lost) and
// the failure detector must stay silent, or the row is marked failed.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/sim/harness.h"
#include "src/sim/workload.h"

namespace adgc {
namespace {

struct TrafficResult {
  sim::WireCost wire;
  std::uint64_t suspects = 0;
  bool converged = false;
};

TrafficResult run_leg(std::size_t procs, std::uint64_t seed) {
  constexpr int kRounds = 40;
  constexpr std::size_t kSteps = 20;
  constexpr SimTime kRoundUs = 15'000;
  constexpr SimTime kSettleUs = 30'000'000;
  constexpr SimTime kIdleUs = 2'000'000;

  Runtime rt(procs, sim::fast_config(seed));
  sim::RandomWorkload workload(rt, sim::WorkloadParams{}, seed * 31 + 7);
  for (int round = 0; round < kRounds; ++round) {
    workload.steps(kSteps);
    rt.run_for(kRoundUs);
  }
  const Metrics mutated = rt.total_metrics();
  rt.run_for(kSettleUs - kIdleUs);
  const Metrics idle_start = rt.total_metrics();
  rt.run_for(kIdleUs);
  const Metrics end = rt.total_metrics();

  TrafficResult r;
  r.wire = sim::wire_cost(mutated, idle_start, end, procs, kIdleUs);
  r.suspects = end.peer_suspect_transitions.get();
  r.converged = workload.converged();
  return r;
}

}  // namespace
}  // namespace adgc

int main() {
  using namespace adgc;
  bench::JsonReport report("collector_traffic");
  bench::header(
      "Collector wire cost vs cluster size (adgc_sim workload, lossless)\n"
      "control msgs per invocation while mutating; msgs per process-second idle");
  std::printf("%-4s %12s %22s %22s %10s %10s\n", "N", "invocations",
              "ctrl msgs / invoke", "idle msgs / proc-s", "suspects", "status");
  int failed = 0;
  for (std::size_t n : {4u, 16u, 32u}) {
    const TrafficResult r = run_leg(n, 1);
    const bool ok = r.converged && r.suspects == 0;
    if (!ok) ++failed;
    std::printf("%-4zu %12llu %22.2f %22.2f %10llu %10s\n", n,
                static_cast<unsigned long long>(r.wire.invocations),
                r.wire.ctrl_msgs_per_invoke, r.wire.idle_msgs_per_proc_s,
                static_cast<unsigned long long>(r.suspects), ok ? "ok" : "FAILED");
    report.add("cluster_size", {{"processes", static_cast<double>(n)},
                                {"invocations", static_cast<double>(r.wire.invocations)},
                                {"ctrl_msgs_per_invoke", r.wire.ctrl_msgs_per_invoke},
                                {"idle_msgs_per_proc_s", r.wire.idle_msgs_per_proc_s},
                                {"collected", ok ? 1.0 : 0.0}});
  }
  return failed == 0 ? 0 : 1;
}
