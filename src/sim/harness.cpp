#include "src/sim/harness.h"

#include <deque>

namespace adgc::sim {

std::unordered_set<ObjectId> global_live_set(const Runtime& rt) {
  std::unordered_set<ObjectId> live;
  std::deque<ObjectId> frontier;

  // Crashed processes contribute nothing: their roots and heaps are gone.
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    for (ObjectSeq seq : rt.proc(pid).heap().roots()) {
      ObjectId id{pid, seq};
      if (rt.proc(pid).heap().exists(seq) && live.insert(id).second) {
        frontier.push_back(id);
      }
    }
  }

  while (!frontier.empty()) {
    const ObjectId cur = frontier.front();
    frontier.pop_front();
    const Process& proc = rt.proc(cur.owner);
    const HeapObject* obj = proc.heap().find(cur.seq);
    if (!obj) continue;
    for (ObjectSeq next : obj->local_fields) {
      ObjectId id{cur.owner, next};
      if (proc.heap().exists(next) && live.insert(id).second) frontier.push_back(id);
    }
    for (RefId ref : obj->remote_fields) {
      const StubEntry* stub = proc.stubs().find(ref);
      if (!stub) continue;
      const ObjectId id = stub->target;
      if (id.owner < rt.size() && rt.alive(id.owner) &&
          rt.proc(id.owner).heap().exists(id.seq) && live.insert(id).second) {
        frontier.push_back(id);
      }
    }
  }
  return live;
}

GlobalStats global_stats(const Runtime& rt) {
  GlobalStats st;
  const auto live = global_live_set(rt);
  st.live_objects = live.size();
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    st.total_objects += rt.proc(pid).heap().size();
    st.stubs += rt.proc(pid).stubs().size();
    st.scions += rt.proc(pid).scions().size();
  }
  st.garbage_objects = st.total_objects - st.live_objects;
  return st;
}

RuntimeConfig manual_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.net.min_latency_us = 10;
  cfg.net.mean_latency_us = 100;
  // Push every periodic task out of the way; tests drive the collectors.
  const SimTime never = 1'000'000'000'000ULL;  // ~11.5 simulated days
  cfg.proc.lgc_period_us = never;
  cfg.proc.snapshot_period_us = never;
  cfg.proc.dcda_scan_period_us = never;
  cfg.proc.candidate_quarantine_us = 0;
  cfg.proc.scion_pending_grace_us = 10'000;
  // Owner-side orphan expiry assumes holders run their LGC regularly; in
  // manual mode tests suspend the LGC for arbitrary stretches, so the
  // timer-based expiry must be effectively off (grace-based deletion via
  // NewSetStubs still applies).
  cfg.proc.scion_pending_expiry_factor = 1'000'000;
  cfg.proc.detection_timeout_us = never;
  return cfg;
}

RuntimeConfig fast_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.net.min_latency_us = 10;
  cfg.net.mean_latency_us = 200;
  cfg.proc.lgc_period_us = 5'000;
  cfg.proc.snapshot_period_us = 12'000;
  cfg.proc.dcda_scan_period_us = 15'000;
  cfg.proc.candidate_quarantine_us = 10'000;
  cfg.proc.scion_pending_grace_us = 60'000;
  cfg.proc.detection_timeout_us = 500'000;
  cfg.proc.add_scion_retry_us = 3'000;
  return cfg;
}

void settle_manual(Runtime& rt, int rounds, SimTime flush_us) {
  for (int r = 0; r < rounds; ++r) {
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).run_lgc();
    }
    rt.run_for(flush_us);
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).take_snapshot();
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).run_dcda_scan();
    }
    rt.run_for(flush_us);
  }
}

WireCost wire_cost(const Metrics& mutated, const Metrics& idle_start, const Metrics& end,
                   std::size_t procs, SimTime idle_us) {
  WireCost w;
  w.invocations = mutated.invocations_sent.get();
  const std::uint64_t control =
      mutated.messages_sent.get() - w.invocations - mutated.replies_sent.get();
  if (w.invocations > 0) {
    w.ctrl_msgs_per_invoke = static_cast<double>(control) / static_cast<double>(w.invocations);
  }
  const double idle_proc_s = static_cast<double>(procs) * static_cast<double>(idle_us) / 1e6;
  if (idle_proc_s > 0) {
    w.idle_msgs_per_proc_s =
        static_cast<double>(end.messages_sent.get() - idle_start.messages_sent.get()) /
        idle_proc_s;
  }
  return w;
}

}  // namespace adgc::sim
