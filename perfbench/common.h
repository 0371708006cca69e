// Shared pieces of the repository benchmark: the result record every
// workload fills, order statistics, Metrics window deltas and the
// per-layer groups built from them, clocks and the heap in use.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/metrics.h"

namespace adgc::perfbench {

/// Options shared by every workload (parsed from the command line).
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload run reports. `correct` is false when any correctness
/// check failed; `failures` holds a line per failed check for stderr.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Records a failed correctness check; it also counts as a failed operation.
  void fail(std::string why) {
    correct = false;
    ++failed;
    failures.push_back(std::move(why));
  }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile `q` of `v` by linear interpolation between order statistics
/// (the "linear" method of numpy/R type 7). Sorts `v`. 0 for an empty input.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// a / b, or 0 when nothing was counted (a ratio over an empty window).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Latency histogram of fixed size (about 20 KiB): buckets 1% wide from
/// 0.1 µs up, so a benchmark that stores its samples here uses the same
/// memory however many calls the system completes. Quantiles interpolate
/// inside the landing bucket; their error stays under 1%.
class LatencyHistogram {
 public:
  void record(double us) {
    const double b = std::floor(std::log(std::max(us, kMinUs) / kMinUs) / std::log(kGrowth));
    ++counts_[static_cast<std::size_t>(std::min(b, static_cast<double>(kBuckets - 1)))];
    ++n_;
  }

  std::uint64_t count() const { return n_; }

  /// Value at quantile `q` (0 for an empty histogram).
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_ - 1);  // 0-based, as in perfbench::quantile
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double in = static_cast<double>(counts_[i]);
      if (in == 0 || seen + in <= rank) {
        seen += in;
        continue;
      }
      const double lo = kMinUs * std::pow(kGrowth, static_cast<double>(i));
      return lo + (lo * kGrowth - lo) * ((rank - seen + 0.5) / in);
    }
    return kMinUs * std::pow(kGrowth, static_cast<double>(kBuckets));
  }

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2500;  // up to about 6e9 µs
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

/// Counter growth over a window.
inline std::uint64_t delta(const Counter& after, const Counter& before) {
  return after.get() - before.get();
}

/// Mean of the samples a histogram gained over a window (0 when none).
inline double hist_mean(const Histogram& after, const Histogram& before) {
  return ratio(static_cast<double>(after.sum() - before.sum()),
               static_cast<double>(after.count() - before.count()));
}

/// Per-layer metrics every workload reads from Metrics over its measured
/// window (`before` → `after`): LGC and snapshot stages, NewSetStubs pacing,
/// batching and peer health. The LGC's busy share is its pause time over
/// `busy_s`. Suspicions and health slots are run totals, not window deltas.
inline void add_collector_layers(Result& r, const Metrics& after, const Metrics& before,
                                 double busy_s) {
  r.add("lgc.pause_us.mean", "us", hist_mean(after.lgc_pause_us, before.lgc_pause_us));
  r.add("lgc.busy_frac", "ratio",
        ratio(static_cast<double>(after.lgc_pause_us.sum() - before.lgc_pause_us.sum()) / 1e6,
              busy_s));
  r.add("lgc.runs", "count", delta(after.lgc_runs, before.lgc_runs));
  r.add("snapshot.capture_us.mean", "us",
        hist_mean(after.snapshot_capture_us, before.snapshot_capture_us));
  r.add("snapshot.persist_us.mean", "us",
        hist_mean(after.snapshot_persist_us, before.snapshot_persist_us));
  r.add("snapshot.summarize_us.mean", "us",
        hist_mean(after.snapshot_summarize_us, before.snapshot_summarize_us));
  r.add("snapshot.coalesced", "count",
        delta(after.snapshots_coalesced, before.snapshots_coalesced));
  r.add("dgc.nss_deferred", "count",
        delta(after.new_set_stubs_deferred, before.new_set_stubs_deferred));
  r.add("dgc.nss_shed", "count", delta(after.new_set_stubs_shed, before.new_set_stubs_shed));
  r.add("dgc.add_scion_retries", "count",
        delta(after.add_scion_retries, before.add_scion_retries));
  const double singles = delta(after.batch_singletons, before.batch_singletons);
  r.add("net.batch_singleton_frac", "ratio",
        ratio(singles, singles + delta(after.batches_sent, before.batches_sent)));
  r.add("net.peer_suspect_transitions", "count", after.peer_suspect_transitions.get());
  r.add("net.peer_health_slots", "count", after.peer_health_slots.get());
}

/// Per-layer metrics of the cycle detector over a window; the per-cycle
/// ratios divide by the `cycles` the workload built (0 when it builds none).
inline void add_dcda_layers(Result& r, const Metrics& after, const Metrics& before,
                            double cycles) {
  const double started = delta(after.detections_started, before.detections_started);
  r.add("dcda.detections_started", "count", started);
  r.add("dcda.found_ratio", "ratio",
        ratio(delta(after.detections_cycle_found, before.detections_cycle_found), started));
  r.add("dcda.cdms_per_cycle", "msgs", ratio(delta(after.cdms_sent, before.cdms_sent), cycles));
  r.add("dcda.cdm_bytes_per_cycle", "B",
        ratio(delta(after.cdm_bytes, before.cdm_bytes), cycles));
  r.add("dcda.aborted_ic", "count",
        delta(after.detections_aborted_ic, before.detections_aborted_ic));
  r.add("dcda.aborted_local", "count",
        delta(after.detections_aborted_local, before.detections_aborted_local));
  r.add("dcda.dropped_dup", "count",
        delta(after.detections_dropped_dup, before.detections_dropped_dup));
  r.add("dcda.timed_out", "count",
        delta(after.detections_timed_out, before.detections_timed_out));
  r.add("dcda.deferred_backoff", "count",
        delta(after.detections_deferred_backoff, before.detections_deferred_backoff));
  r.add("dcda.lifetime_ms.mean", "ms",
        hist_mean(after.detection_lifetime_us, before.detection_lifetime_us) / 1e3);
}

/// NewSetStubs sent per process-second in a busy and in an idle window.
inline void add_nss_rates(Result& r, const Metrics& busy_after, const Metrics& busy_before,
                          double busy_proc_s, const Metrics& idle_after,
                          const Metrics& idle_before, double idle_proc_s) {
  r.add("dgc.nss_per_proc_s.busy", "msgs",
        ratio(delta(busy_after.new_set_stubs_sent, busy_before.new_set_stubs_sent),
              busy_proc_s));
  r.add("dgc.nss_per_proc_s.idle", "msgs",
        ratio(delta(idle_after.new_set_stubs_sent, idle_before.new_set_stubs_sent),
              idle_proc_s));
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Heap bytes the program holds, MiB: what malloc has handed out and not
/// yet had back, over all arenas (mallinfo2). Workloads sample it over their
/// timed window, in total and per object the program holds. The resident set
/// is not used because it also counts freed memory the allocator keeps: its
/// median moved by 0.31 (interquartile range / median) over five
/// rmi_export_tcp runs.
inline double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / kMiB;
}

/// Adds the rt and net per-layer metrics of a short RMI reference leg: a
/// fresh NodeRuntime pair running the rmi_tcp call shape traced for
/// `seconds`, then the bare-transport, loopback and codec floors. For
/// workloads whose own load does not go through NodeRuntime.
void add_reference_rmi_layers(Result& r, std::uint64_t seed, double seconds);

Result run_rmi_tcp(const RunOptions& opts);
Result run_rmi_export_tcp(const RunOptions& opts);
Result run_reclaim_sim(const RunOptions& opts);

}  // namespace adgc::perfbench
