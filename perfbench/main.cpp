// adgc_perfbench — the repository benchmark.
//
//   adgc_perfbench --workload <rmi_tcp|rmi_export_tcp|reclaim_sim>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload, prints a human-readable metric table on stderr and, as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// Every workload prints the same metric names: with --trace 0 every
// end-to-end metric, with --trace 1 every per-layer metric (README.md gives
// each name's meaning per workload). Exits 1 when a correctness check
// failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

using adgc::perfbench::Result;
using adgc::perfbench::RunOptions;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "adgc_perfbench: %s\n"
               "usage: adgc_perfbench --workload <rmi_tcp|rmi_export_tcp|reclaim_sim>"
               " --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& m : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opts.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      opts.trace = val[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  Result r;
  try {
    if (workload == "rmi_tcp") {
      r = adgc::perfbench::run_rmi_tcp(opts);
    } else if (workload == "rmi_export_tcp") {
      r = adgc::perfbench::run_rmi_export_tcp(opts);
    } else if (workload == "reclaim_sim") {
      r = adgc::perfbench::run_reclaim_sim(opts);
    } else {
      usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    // The program under test threw (e.g. a reference vanished under the
    // mutator): the run is incorrect, and says so in its result line.
    r = Result{};
    r.fail(std::string("exception: ") + e.what());
  }

  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) r.fail(m.name + " is not a finite number");
  }
  if (r.attempted == 0 && r.failed == 0) r.fail("no operation was attempted");
  r.attempted = std::max(r.attempted, r.failed);
  const double fail_frac = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  if (opts.trace) {
    r.add("fail_frac", "ratio", fail_frac);
  } else {
    r.add("ok_frac", "ratio", 1.0 - fail_frac);
  }

  for (const auto& m : r.metrics) {
    std::fprintf(stderr, "  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "%s: %s (attempted=%llu failed=%llu)\n", workload.c_str(),
               r.correct ? "OK" : "FAILED", static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  print_json(r);
  return r.correct ? 0 : 1;
}
