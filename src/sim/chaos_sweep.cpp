#include "src/sim/chaos_sweep.h"

#include <filesystem>
#include <sstream>
#include <vector>

#include "src/common/log.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc::sim {

namespace {

constexpr std::size_t kProcs = 6;

std::filesystem::path sweep_dir(const ChaosSweepParams& p) {
  if (!p.snapshot_dir.empty()) return p.snapshot_dir;
  std::ostringstream name;
  name << "adgc_chaos_sweep_" << p.seed;
  return std::filesystem::temp_directory_path() / name.str();
}

std::vector<ObjectId> fig3_objects(const Fig3& f) {
  return {f.A, f.B, f.C, f.D, f.F, f.G, f.H, f.J, f.O, f.M, f.K, f.Q, f.R, f.S};
}

std::vector<ObjectId> fig4_objects(const Fig4& f) {
  return {f.D, f.F, f.K, f.T, f.V, f.Y, f.ZB, f.ZD};
}

}  // namespace

ChaosSweepResult run_chaos_sweep(const ChaosSweepParams& p) {
  const std::filesystem::path dir = sweep_dir(p);
  std::filesystem::remove_all(dir);  // stale state from an aborted run

  RuntimeConfig cfg = fast_config(p.seed);
  cfg.proc.batching_enabled = p.batching;
  cfg.proc.snapshot_pipeline = p.snapshot_pipeline;
  cfg.proc.peer_death_timeout_us = p.peer_death_timeout_us;
  if (p.with_crashes) cfg.proc.snapshot_dir = dir.string();

  ChaosSweepResult res;
  {
    Runtime rt(kProcs, cfg);
    const Fig3 fig3 = build_fig3(rt);
    const Fig4 fig4 = build_fig4(rt);
    // Fig. 4 is garbage from the moment it is built; pin one object on its
    // cycle so it stays live through the warmup and is released together
    // with Fig. 3's root when the storm is about to start.
    rt.proc(fig4.F.owner).add_root(fig4.F.seq);

    // Live sentinel ring: rooted L_p holds a remote reference to the
    // unrooted N_{p+1}, whose survival therefore rests entirely on the
    // cross-process stub/scion pair — exactly the state a lossy, partitioned
    // and crashing network tries hardest to corrupt.
    std::vector<ObjectId> L, N;
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      L.push_back(ObjectId{pid, rt.proc(pid).create_object()});
      N.push_back(ObjectId{pid, rt.proc(pid).create_object()});
      rt.proc(pid).add_root(L.back().seq);
    }
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      rt.link(L[pid], N[(pid + 1) % kProcs]);
    }

    // Fault-free warmup: every process snapshots the full structure.
    rt.run_for(p.warmup_us);
    {
      const Metrics warm = rt.total_metrics();
      res.warmup_suspect_transitions = warm.peer_suspect_transitions.get();
      res.warmup_nss_deferred = warm.new_set_stubs_deferred.get();
    }

    // Make everything planted garbage, and give the owners a few snapshot
    // periods to persist the root drops before the first crash can hit.
    rt.proc(fig3.A.owner).remove_root(fig3.A.seq);
    rt.proc(fig4.F.owner).remove_root(fig4.F.seq);
    rt.run_for(50'000);

    // The storm. Per slice: one bidirectional link partition (rotating so
    // every ring link is blocked once) on top of sustained loss, duplication
    // and reordering; optionally one crash+restart.
    rt.network().set_loss_probability(p.loss_probability);
    rt.network().set_duplicate_probability(p.duplicate_probability);
    for (std::size_t slice = 0; slice < p.slices; ++slice) {
      const ProcessId a = static_cast<ProcessId>(slice % kProcs);
      const ProcessId b = static_cast<ProcessId>((slice + 1) % kProcs);
      rt.network().set_link_blocked(a, b, true);
      rt.network().set_link_blocked(b, a, true);
      if (p.with_crashes) {
        // Crash a process on the far side of the current partition.
        const ProcessId victim = static_cast<ProcessId>((slice + 3) % kProcs);
        rt.crash(victim);
        ++res.crashes;
        rt.run_for(p.down_us);
        if (rt.restart(victim)) ++res.recovered;
        rt.run_for(p.slice_us - p.down_us);
      } else {
        rt.run_for(p.slice_us);
      }
      rt.network().set_link_blocked(a, b, false);
      rt.network().set_link_blocked(b, a, false);
    }

    // Faults lift; the system must converge.
    rt.network().set_loss_probability(0.0);
    rt.network().set_duplicate_probability(0.0);
    rt.run_for(p.settle_us);

    // Verdicts against the planted-structure oracle: every object of both
    // figures must be gone (completeness), every sentinel must survive
    // (safety — load shedding and backoff may only ever delay collection).
    res.cycles_collected = true;
    std::ostringstream detail;
    for (const ObjectId id : fig3_objects(fig3)) {
      if (rt.proc(id.owner).heap().exists(id.seq)) {
        res.cycles_collected = false;
        detail << "uncollected fig3 " << to_string(id) << "; ";
      }
    }
    for (const ObjectId id : fig4_objects(fig4)) {
      if (rt.proc(id.owner).heap().exists(id.seq)) {
        res.cycles_collected = false;
        detail << "uncollected fig4 " << to_string(id) << "; ";
      }
    }
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      if (!rt.proc(pid).heap().exists(L[pid].seq) ||
          !rt.proc(pid).heap().exists(N[pid].seq)) {
        res.live_lost = true;
        detail << "sentinel lost on P" << pid << "; ";
      }
    }
    const Metrics total = rt.total_metrics();
    res.messages_lost = total.messages_lost.get();
    res.suspect_transitions = total.peer_suspect_transitions.get();
    res.cdms_shed = total.cdms_shed.get();
    res.new_set_stubs_shed = total.new_set_stubs_shed.get();
    res.detections_deferred = total.detections_deferred_backoff.get();
    res.add_scion_abandoned = total.add_scion_abandoned.get();
    if (!res.healthy_warmup()) {
      detail << "false suspicion on the fault-free warmup (suspects="
             << res.warmup_suspect_transitions << " nss_deferred="
             << res.warmup_nss_deferred << "); ";
    }
    res.detail = detail.str();
  }

  std::filesystem::remove_all(dir);
  return res;
}

namespace {

/// One comparison leg: a 12-process garbage ring under sustained loss, plus
/// a periodic third-party re-export (the AddScion retry path) driven from
/// P0. The CDM hop limit is set below the ring length, so no detection can
/// ever complete: both legs sit in the *persistent*-failure regime — a
/// garbage structure beyond the hop budget, every launch timing out — which
/// is exactly where fixed-interval relaunching hammers the network and
/// exponential backoff pays off. (Eventual collection is the chaos sweep's
/// business, not this harness's; here the cycle staying uncollected keeps
/// the two legs statistically comparable for the whole run.)
/// Returns the runtime's total metrics after `run_us`.
Metrics backoff_leg(std::uint64_t seed, double loss, SimTime run_us, bool adaptive) {
  constexpr std::size_t kRingProcs = 12;
  RuntimeConfig cfg = fast_config(seed);
  cfg.proc.adaptive_faults = adaptive;
  cfg.proc.cdm_hop_limit = kRingProcs - 4;  // detections always time out
  Runtime rt(kRingProcs, cfg);
  const Ring ring = build_ring(rt, kRingProcs, 1, /*pin_first=*/true);

  // Handshake workload: X0 (rooted on P0) holds references to Xa on P10 and
  // Xb on P11; every period P0 invokes Xa passing the Xb reference as a
  // third-party argument — a scion-first AddScion handshake toward P11 that
  // must be retried under loss.
  const ObjectId X0{0, rt.proc(0).create_object()};
  const ObjectId Xa{10, rt.proc(10).create_object()};
  const ObjectId Xb{11, rt.proc(11).create_object()};
  rt.proc(0).add_root(X0.seq);
  rt.proc(10).add_root(Xa.seq);
  rt.proc(11).add_root(Xb.seq);
  const RefId via = rt.link(X0, Xa);
  const RefId held = rt.link(X0, Xb);

  rt.run_for(50'000);  // build-out settles fault-free
  rt.proc(0).remove_root(ring.anchors[0].seq);  // the ring becomes garbage
  rt.network().set_loss_probability(loss);
  const SimTime invoke_period = 20'000;
  for (SimTime t = 0; t < run_us; t += invoke_period) {
    rt.proc(0).invoke(X0.seq, via, InvokeEffect::kTouch, {ArgRef::held(held)},
                      /*want_reply=*/true);
    rt.run_for(invoke_period);
  }
  return rt.total_metrics();
}

}  // namespace

BackoffComparison run_backoff_comparison(std::uint64_t seed, double loss, SimTime run_us) {
  BackoffComparison out;
  // Hop-limit CDM drops are this scenario's working condition, not an
  // anomaly; don't let their per-message warnings flood the output.
  const LogLevel saved = Log::level();
  if (saved < LogLevel::kError) Log::set_level(LogLevel::kError);
  const Metrics adaptive = backoff_leg(seed, loss, run_us, /*adaptive=*/true);
  const Metrics fixed = backoff_leg(seed, loss, run_us, /*adaptive=*/false);
  Log::set_level(saved);
  out.adaptive_retry_messages = adaptive.add_scion_retries.get() + adaptive.cdms_sent.get();
  out.fixed_retry_messages = fixed.add_scion_retries.get() + fixed.cdms_sent.get();
  out.adaptive_total_messages = adaptive.messages_sent.get();
  out.fixed_total_messages = fixed.messages_sent.get();
  return out;
}

}  // namespace adgc::sim
