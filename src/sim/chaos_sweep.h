// Composed chaos harness — the graceful-degradation acceptance sweep.
//
// Six processes carry the paper's Fig. 3 cycle (P1..P4), the Fig. 4 pair of
// mutually-linked cycles (P1..P6, pinned live until the storm begins) and a
// ring of live sentinels (a rooted object per process holding a remote
// reference to an unrooted object on the next process). After the planted
// structures are made garbage, the harness composes every fault the system
// claims to tolerate: probabilistic loss and duplication, reordering (the
// network's independent latency draws), a rotating bidirectional link
// partition, and a crash/restart rotation. When the faults lift, the system
// must have collected every planted cycle and must never have touched a
// sentinel — safety under degradation, completeness after it. The
// fault-free warmup doubles as the failure detector's oracle: a healthy
// network must produce zero suspicions and zero deferred NewSetStubs.
//
// Also provides the adaptive-vs-fixed backoff comparison: the same scenario
// under sustained loss, run once with the adaptive-degradation layer and
// once with fixed-interval retries, counting retry traffic for both.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/config.h"

namespace adgc::sim {

struct ChaosSweepParams {
  std::uint64_t seed = 1;
  /// Fault-storm intensity.
  double loss_probability = 0.10;
  double duplicate_probability = 0.05;
  /// Fault-free run before the roots are dropped (the structures must be
  /// durably snapshotted before the crash rotation may begin).
  SimTime warmup_us = 400'000;
  /// One storm slice: a bidirectional link partition rotates every slice and
  /// (when enabled) one process is crashed and restarted per slice. Six
  /// slices — every link blocked once, every process crashed once.
  SimTime slice_us = 400'000;
  std::size_t slices = 6;
  /// Crash/restart rotation during the storm.
  bool with_crashes = true;
  SimTime down_us = 50'000;
  /// Control-plane batching (per-peer coalescing of CDMs / NewSetStubs /
  /// AddScion acks). Both wire shapes must pass the same oracles; the
  /// differential leg in test_chaos_sweep runs one seed each way.
  bool batching = true;
  /// Asynchronous snapshot pipeline (periodic snapshots publish their
  /// summary after `snapshot_pipeline_latency_us`, detector reads the stale
  /// one meanwhile). Both modes must pass the same oracles; the differential
  /// leg in test_chaos_sweep runs one seed each way.
  bool snapshot_pipeline = true;
  /// Fault-free settle after the storm; must exceed the largest detection
  /// backoff (`detection_backoff_cap_us`) so deferred candidates re-launch.
  SimTime settle_us = 12'000'000;
  /// Permanent-failure eviction window (ProcessConfig::peer_death_timeout_us;
  /// 0 keeps eviction off). When enabled it must exceed every transient
  /// silence the storm produces — partitions, crash downtime — or a live
  /// peer gets falsely evicted and its sentinel scion dropped (live_lost).
  SimTime peer_death_timeout_us = 0;
  /// Snapshot-store directory; empty = unique directory under system temp.
  std::string snapshot_dir;
};

struct ChaosSweepResult {
  bool cycles_collected = false;  // every Fig. 3 AND Fig. 4 object reclaimed
  bool live_lost = false;         // some sentinel object was collected
  // Failure-detector verdicts during the fault-free warmup (must be zero).
  std::uint64_t warmup_suspect_transitions = 0;
  std::uint64_t warmup_nss_deferred = 0;
  std::size_t crashes = 0;
  std::size_t recovered = 0;      // restarts that found a usable snapshot
  // Degradation-layer observability (end-of-storm totals).
  std::uint64_t messages_lost = 0;
  std::uint64_t suspect_transitions = 0;
  std::uint64_t cdms_shed = 0;
  std::uint64_t new_set_stubs_shed = 0;
  std::uint64_t detections_deferred = 0;
  std::uint64_t add_scion_abandoned = 0;
  std::string detail;             // human-readable diagnosis on failure

  bool healthy_warmup() const {
    return warmup_suspect_transitions == 0 && warmup_nss_deferred == 0;
  }
  bool ok() const { return cycles_collected && !live_lost && healthy_warmup(); }
};

/// Runs one composed-fault sweep; deterministic in `params.seed`.
ChaosSweepResult run_chaos_sweep(const ChaosSweepParams& params);

/// Adaptive-vs-fixed retry traffic under sustained loss. Both runs share the
/// seed, scenario and duration; only `adaptive_faults` differs.
struct BackoffComparison {
  /// Retry/probe traffic: AddScion re-sends + CDMs launched and forwarded.
  std::uint64_t adaptive_retry_messages = 0;
  std::uint64_t fixed_retry_messages = 0;
  /// All messages put on the wire.
  std::uint64_t adaptive_total_messages = 0;
  std::uint64_t fixed_total_messages = 0;

  bool adaptive_reduced() const {
    return adaptive_retry_messages < fixed_retry_messages;
  }
};

BackoffComparison run_backoff_comparison(std::uint64_t seed, double loss = 0.30,
                                         SimTime run_us = 6'000'000);

}  // namespace adgc::sim
