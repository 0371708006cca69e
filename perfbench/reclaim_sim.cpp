// reclaim_sim: acyclic and cyclic reclamation at 16 processes in the
// deterministic simulator (production ProcessConfig, default NetworkConfig:
// lossless, 500 µs mean latency).
//
// Setup: every process gets a live 500-object base heap (64 B payloads,
// chains of 50 headed by a rooted object) and holds 3 remote references into
// other processes (a live mesh). Mutation phase: every 5 simulated ms one
// structure is built, alternating an acyclic chain across 2-4 distinct
// processes and a ring across 2-8. Each is rooted at its first object and
// held 200-1000 ms, with one kTouch invoke through a random edge every 50 ms
// of the hold (invocation-counter churn), then unrooted. Its reclamation lag
// runs from the unroot to its last object being gone, polled every 100
// simulated µs. Idle phase: once everything is reclaimed, a fixed span with only the
// base heap and mesh, to count the collector's steady-state traffic.
//
// The generator draws only from an Rng seeded by --seed, and the Runtime is
// seeded by it too, so every count and simulated lag is a pure function of
// the seed. The whole scenario is repeated until --seconds of wall time have
// passed; the wall-time metrics are medians over the repetitions, and every
// repetition must reproduce the first one's counts exactly.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "common.h"
#include "src/rt/runtime.h"
#include "src/sim/harness.h"

namespace adgc::perfbench {
namespace {

constexpr std::size_t kProcs = 16;
constexpr int kBaseObjects = 500;
constexpr int kChainLen = 50;  // every 50th base object is rooted and heads a chain
constexpr int kMeshRefs = 3;
constexpr std::size_t kPayload = 64;
constexpr SimTime kMs = 1'000;
constexpr SimTime kPoll = 100;  // reclamation polling step, simulated µs
constexpr SimTime kSettle = 1'000 * kMs;  // setup: first collector rounds on the base
constexpr SimTime kBuildEvery = 5 * kMs;
constexpr SimTime kInvokeEvery = 50 * kMs;
constexpr SimTime kHeapEvery = 100 * kMs;
constexpr SimTime kReclaimDeadline = 5'000 * kMs;
constexpr SimTime kIdleSpan = 2'000 * kMs;
constexpr int kStructuresPerKind = 4'000;  // chains and rings each, per repetition
constexpr std::size_t kSetups = 9;

struct Structure {
  bool ring = false;
  std::vector<ObjectId> objs;
  std::vector<RefId> edges;  // edges[j]: objs[j] -> objs[(j + 1) % n]
  SimTime built = 0;
  SimTime unroot_at = 0;
  SimTime next_invoke = 0;
  SimTime unrooted = 0;  // 0 while held
};

/// Everything one repetition measures. Counts and simulated lags must be
/// identical across repetitions of one seed; wall times are not.
struct Rep {
  // Deterministic.
  std::vector<double> acyclic_lag_ms, cyclic_lag_ms;
  std::uint64_t mutator_calls = 0;
  std::uint64_t structures = 0, safety_violations = 0;
  std::uint64_t rings = 0;
  SimTime mutation_span = 0, idle_span = 0;  // mutation: first build to last unroot
  Metrics at_start, at_last_unroot, at_drained, at_end;
  std::vector<std::string> failures;
  // Wall clock.
  double setup_s = 0;
  double run_for_s = 0;  // inside Runtime::run_for, after setup
  SimTime simulated = 0;  // simulated span of those run_for calls
  double wall_s = 0;  // whole repetition after setup, harness included
  std::vector<double> invoke_us;  // traced repetitions: each Process::invoke
  std::vector<double> heap_mb;    // every 100 simulated ms of the mutation phase
  std::vector<double> heap_b_per_obj;  // the same ÷ objects the processes hold
};

class Workload {
 public:
  Workload(const RunOptions& opts, bool traced)
      : opts_(opts), traced_(traced), gen_(opts.seed ^ 0x5eedbe9c4a11ULL) {}

  /// Builds the runtime, base heaps and mesh, and lets the collectors
  /// settle. Returns its wall seconds.
  double setup() {
    const auto t_setup = Clock::now();
    RuntimeConfig cfg;
    cfg.seed = opts_.seed;
    rt_ = std::make_unique<Runtime>(kProcs, cfg);
    build_base();
    advance(kSettle);
    return seconds_since(t_setup);
  }

  Rep run() {
    rep_.setup_s = setup();
    rep_.run_for_s = 0;

    const auto t_run = Clock::now();
    const SimTime sim0 = rt_->now();
    rep_.at_start = rt_->total_metrics();
    mutate();
    rep_.at_drained = rt_->total_metrics();
    const SimTime idle0 = rt_->now();
    advance(kIdleSpan);
    rep_.idle_span = rt_->now() - idle0;
    rep_.at_end = rt_->total_metrics();
    rep_.wall_s = seconds_since(t_run);
    rep_.simulated = rt_->now() - sim0;
    final_checks();
    rt_.reset();
    return std::move(rep_);
  }

 private:
  /// Runs the simulator for `span`, timing only Runtime::run_for.
  void advance(SimTime span) {
    const auto t0 = Clock::now();
    rt_->run_for(span);
    rep_.run_for_s += seconds_since(t0);
  }

  void build_base() {
    base_.assign(kProcs, {});
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      Process& p = rt_->proc(pid);
      for (int i = 0; i < kBaseObjects; ++i) {
        const ObjectSeq seq = p.create_object(kPayload);
        if (i % kChainLen == 0) {
          p.add_root(seq);
        } else {
          p.add_local_ref(base_[pid].back(), seq);
        }
        base_[pid].push_back(seq);
      }
    }
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      for (const ProcessId to : distinct_procs(kMeshRefs, pid)) {
        const std::size_t chain = gen_.below(kBaseObjects / kChainLen);
        const ObjectSeq head = base_[pid][chain * kChainLen];
        const ObjectSeq target = base_[to][gen_.below(kBaseObjects)];
        mesh_.push_back({pid, rt_->link({pid, head}, {to, target})});
      }
    }
  }

  /// `n` distinct processes in random order, none equal to `exclude`.
  std::vector<ProcessId> distinct_procs(int n, ProcessId exclude = kNoProcess) {
    std::vector<ProcessId> all;
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      if (pid != exclude) all.push_back(pid);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      std::swap(all[i], all[i + gen_.below(all.size() - i)]);
    }
    all.resize(static_cast<std::size_t>(n));
    return all;
  }

  void build(bool ring) {
    Structure s;
    s.ring = ring;
    const int n = static_cast<int>(ring ? gen_.range(2, 8) : gen_.range(2, 4));
    for (const ProcessId pid : distinct_procs(n)) {
      s.objs.push_back({pid, rt_->proc(pid).create_object(kPayload)});
      ++rep_.mutator_calls;
    }
    rt_->proc(s.objs[0].owner).add_root(s.objs[0].seq);
    ++rep_.mutator_calls;
    const std::size_t edges = ring ? s.objs.size() : s.objs.size() - 1;
    for (std::size_t j = 0; j < edges; ++j) {
      s.edges.push_back(rt_->link(s.objs[j], s.objs[(j + 1) % s.objs.size()]));
      ++rep_.mutator_calls;
    }
    s.built = rt_->now();
    s.unroot_at = s.built + static_cast<SimTime>(gen_.range(200, 1000)) * kMs;
    s.next_invoke = s.built + kInvokeEvery;
    if (ring) ++rep_.rings;
    live_.push_back(std::move(s));
    ++rep_.structures;
  }

  /// Invokes through and unroots the held structures that are due now.
  void drive_held(std::vector<Structure>& pending) {
    for (auto it = live_.begin(); it != live_.end();) {
      Structure& s = *it;
      if (rt_->now() >= s.unroot_at) {
        rt_->proc(s.objs[0].owner).remove_root(s.objs[0].seq);
        ++rep_.mutator_calls;
        s.unrooted = rt_->now();
        pending.push_back(std::move(s));
        it = live_.erase(it);
        check_safety();
        continue;
      }
      if (rt_->now() >= s.next_invoke) {
        const std::size_t j = gen_.below(s.edges.size());
        const std::int64_t t0 = traced_ ? now_ns() : 0;
        rt_->proc(s.objs[j].owner)
            .invoke(s.objs[j].seq, s.edges[j], InvokeEffect::kTouch, {}, /*want_reply=*/true);
        if (traced_) rep_.invoke_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        ++rep_.mutator_calls;
        s.next_invoke += kInvokeEvery;
      }
      ++it;
    }
  }

  bool exists(const ObjectId& id) const { return rt_->proc(id.owner).heap().exists(id.seq); }

  /// Records the lag of every unrooted structure whose last object is gone
  /// (to the polling step), and fails the ones past their deadline.
  void poll_reclaimed(std::vector<Structure>& pending) {
    for (auto it = pending.begin(); it != pending.end();) {
      bool gone = true;
      for (const ObjectId& id : it->objs) gone = gone && !exists(id);
      const SimTime lag = rt_->now() - it->unrooted;
      if (gone) {
        (it->ring ? rep_.cyclic_lag_ms : rep_.acyclic_lag_ms)
            .push_back(static_cast<double>(lag) / kMs);
        it = pending.erase(it);
      } else if (lag > kReclaimDeadline) {
        rep_.failures.push_back(std::string(it->ring ? "ring" : "chain") + " built at " +
                                std::to_string(it->built / kMs) + " ms not reclaimed " +
                                std::to_string(kReclaimDeadline / kMs) + " ms after unroot");
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Safety at an unroot: every object the workload knows to be reachable
  /// from a root (base heaps, mesh targets, held structures) still exists,
  /// and every reference on those paths still has its stub.
  void check_safety() {
    std::uint64_t bad = 0;
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      for (const ObjectSeq seq : base_[pid]) bad += !rt_->proc(pid).heap().exists(seq);
    }
    for (const auto& [holder, ref] : mesh_) {
      const StubEntry* stub = rt_->proc(holder).stubs().find(ref);
      bad += stub == nullptr || !exists(stub->target);
    }
    for (const Structure& s : live_) {
      for (const ObjectId& id : s.objs) bad += !exists(id);
      for (std::size_t j = 0; j < s.edges.size(); ++j) {
        bad += rt_->proc(s.objs[j].owner).stubs().find(s.edges[j]) == nullptr;
      }
    }
    if (bad > 0 && rep_.safety_violations == 0) {
      rep_.failures.push_back("safety: " + std::to_string(bad) +
                              " reachable objects or references missing at t=" +
                              std::to_string(rt_->now() / kMs) + " ms");
    }
    rep_.safety_violations += bad;
  }

  void mutate() {
    const int total = 2 * kStructuresPerKind;
    const SimTime t0 = rt_->now();
    std::vector<Structure> pending;
    int built = 0;
    while (built < total || !live_.empty() || !pending.empty()) {
      poll_reclaimed(pending);
      // Mutator actions fall on whole simulated milliseconds.
      if ((rt_->now() - t0) % kMs == 0) {
        if ((rt_->now() - t0) % kHeapEvery == 0) sample_heap();
        drive_held(pending);
        if (built < total && rt_->now() >= t0 + static_cast<SimTime>(built) * kBuildEvery) {
          build(/*ring=*/built % 2 == 1);
          ++built;
        }
        if (built == total && live_.empty() && rep_.mutation_span == 0) {
          rep_.mutation_span = rt_->now() - t0;
          rep_.at_last_unroot = rt_->total_metrics();
        }
      }
      advance(kPoll);
    }
  }

  void sample_heap() {
    const Metrics m = rt_->total_metrics();
    const double objects = static_cast<double>(m.objects_allocated.get()) -
                           static_cast<double>(m.objects_reclaimed.get());
    const double heap = heap_mb();
    rep_.heap_mb.push_back(heap);
    rep_.heap_b_per_obj.push_back(heap * kMiB / objects);
  }

  /// Completeness and safety at the end: only the base heaps and the mesh
  /// remain, all of it reachable, nothing else.
  void final_checks() {
    check_safety();
    const sim::GlobalStats st = sim::global_stats(*rt_);
    const std::size_t base = kProcs * kBaseObjects;
    if (st.garbage_objects != 0) {
      rep_.failures.push_back("garbage_objects = " + std::to_string(st.garbage_objects) +
                              " at the end");
    }
    if (st.live_objects != base || st.total_objects != base) {
      rep_.failures.push_back("end: " + std::to_string(st.total_objects) + " objects, " +
                              std::to_string(st.live_objects) + " live; expected " +
                              std::to_string(base) + " (base heaps only)");
    }
  }

  const RunOptions& opts_;
  bool traced_;
  Rng gen_;
  std::unique_ptr<Runtime> rt_;
  std::vector<std::vector<ObjectSeq>> base_;
  std::vector<std::pair<ProcessId, RefId>> mesh_;
  std::vector<Structure> live_;
  Rep rep_;
};

/// The deterministic part of a repetition, as text (for the determinism check).
std::string fingerprint(const Rep& r) {
  std::ostringstream os;
  os.precision(17);
  for (double v : r.acyclic_lag_ms) os << v << ',';
  os << '|';
  for (double v : r.cyclic_lag_ms) os << v << ',';
  os << '|' << r.mutator_calls << '|' << r.mutation_span << '|' << r.simulated << '|'
     << r.at_last_unroot.messages_sent.get() << '|' << r.at_end.messages_sent.get() << '|'
     << r.at_end.bytes_sent.get() << '|' << r.at_end.detections_started.get();
  return os.str();
}

}  // namespace

Result run_reclaim_sim(const RunOptions& opts) {
  Result r;
  // Repeat the scenario until the wall budget is spent. A traced run makes
  // its first repetition untraced, so the spans' own cost shows as
  // bench.trace_overhead_pct, and needs at least one traced repetition.
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  while (reps.empty() || seconds_since(t0) < opts.seconds || (opts.trace && reps.size() < 2)) {
    reps.push_back(Workload(opts, opts.trace && !reps.empty()).run());
    std::fprintf(stderr, "reclaim_sim: repetition %zu: setup %.3f s, run_for %.3f s\n",
                 reps.size(), reps.back().setup_s, reps.back().run_for_s);
  }

  const Rep& first = reps.front();
  r.attempted = first.structures;
  for (const auto& f : first.failures) r.fail(f);
  const std::string fp = fingerprint(first);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (fingerprint(reps[i]) != fp) {
      r.fail("repetition " + std::to_string(i + 1) +
             " diverged from the first at the same seed (nondeterminism)");
    }
  }

  std::vector<double> setups, heap, heap_per_obj;
  for (const Rep& rep : reps) {
    setups.push_back(rep.setup_s);
    heap.insert(heap.end(), rep.heap_mb.begin(), rep.heap_mb.end());
    heap_per_obj.insert(heap_per_obj.end(), rep.heap_b_per_obj.begin(),
                        rep.heap_b_per_obj.end());
  }
  // A repetition takes seconds, so a run holds few of them; setup_s is the
  // median over at least kSetups set-ups, the extra ones not followed by a
  // repetition.
  while (setups.size() < kSetups) setups.push_back(Workload(opts, false).setup());
  const double mutation_s = static_cast<double>(first.mutation_span) / 1e6;
  const double idle_s = static_cast<double>(first.idle_span) / 1e6;
  const Metrics& a0 = first.at_start;
  const Metrics& au = first.at_last_unroot;
  const Metrics& a1 = first.at_drained;
  const Metrics& a2 = first.at_end;

  if (!opts.trace) {
    std::vector<double> acyc = first.acyclic_lag_ms, cyc = first.cyclic_lag_ms;
    r.add("setup_s", "s", median(setups));
    r.add("heap_b_per_obj", "B", median(heap_per_obj));
    r.add("latency_p50_ms", "ms", quantile(cyc, 0.5));
    r.add("latency_tail_ms", "ms", quantile(cyc, 0.99));
    r.add("msgs_per_op", "msgs",
          ratio(delta(au.messages_sent, a0.messages_sent), first.mutator_calls));
    r.add("acyclic_lag_ms", "ms", quantile(acyc, 0.5));
    r.add("acyclic_lag_tail_ms", "ms", quantile(acyc, 0.99));
    r.add("idle_msgs_per_proc_s", "msgs",
          ratio(delta(a2.messages_sent, a1.messages_sent), kProcs * idle_s));
    return r;
  }

  // Counts equal the first repetition's (checked above); the wall-time
  // histograms and spans come from the traced repetition itself. Pause and
  // stage times are spent inside Runtime::run_for, so the LGC's busy share is
  // taken against it. No load here goes through NodeRuntime or sockets, so
  // the rt and net transport metrics come from a short reference leg.
  const Rep& traced = reps[1];
  std::vector<double> inv = traced.invoke_us;
  r.add("dgc.invoke_us.p50", "us", quantile(inv, 0.5));
  const double plain_wall = first.wall_s, traced_wall = traced.wall_s;
  r.add("bench.trace_overhead_pct", "%", ratio(traced_wall - plain_wall, plain_wall) * 100);
  // Mutator calls per wall second inside run_for (untraced): the inverse of
  // the single-core cost of the whole cluster's collectors for this load.
  r.add("bench.ops_per_s", "1/s", static_cast<double>(first.mutator_calls) / first.run_for_s);
  r.add("bench.heap_busy_mb", "MiB", median(heap));
  r.add("net.bytes_per_op", "B",
        ratio(delta(au.bytes_sent, a0.bytes_sent), first.mutator_calls));
  add_collector_layers(r, traced.at_end, traced.at_start, traced.run_for_s);
  add_nss_rates(r, au, a0, kProcs * mutation_s, a2, a1, kProcs * idle_s);
  add_dcda_layers(r, a2, a0, static_cast<double>(first.rings));
  add_reference_rmi_layers(r, opts.seed, std::min(1.0, opts.seconds / 10));
  return r;
}

}  // namespace adgc::perfbench
