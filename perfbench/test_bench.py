#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_bench.py

Builds the benchmark through run.py's build step, then:
  * runs one repetition of the benchmark's reclaim_sim scenario twice with
    one seed and requires identical counts and simulated lags, and requires a
    second seed to change them (catches wall-clock or global randomness
    leaking into the workload generator);
  * runs a tiny traced and untraced run of each workload (the two that
    BENCHMARK.json gates and the ungated rmi_tcp) and requires it to emit
    every metric BENCHMARK.json lists for that kind of run, each with its
    unit, and no end-to-end metric of a gated workload to read 0.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = ("rmi_tcp", "rmi_export_tcp", "reclaim_sim")
GATED = {w["name"] for w in SPEC["workloads"]}
# Metrics that hold wall time (or memory) and so legitimately differ between
# two runs of one seed. In reclaim_sim the rt.* and transport-level net.*
# metrics come from a reference leg over real sockets.
WALL = {"setup_s", "heap_b_per_obj", "bench.ops_per_s", "bench.heap_busy_mb",
        "bench.trace_overhead_pct", "dgc.invoke_us.p50", "lgc.pause_us.mean",
        "lgc.busy_frac", "snapshot.capture_us.mean", "snapshot.persist_us.mean",
        "snapshot.summarize_us.mean", "rt.post_wait_us.p50", "rt.post_wait_us.p99",
        "rt.reply_wait_us.p50", "rt.reply_wait_us.p99", "rt.rmi_rtt_us.mean",
        "net.transport_rtt_us.p50", "net.loopback_rtt_us.p50", "net.encode_us",
        "net.decode_us", "net.frames_per_rmi", "net.writeq_depth.mean"}

BINARY = None


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def deterministic(result):
    return {k: v["value"] for k, v in result["metrics"].items() if k not in WALL}


class ReclaimSimDeterminism(unittest.TestCase):
    def test_same_seed_same_counts_other_seed_differs(self):
        # --seconds 0.1: a single repetition of the scenario the benchmark runs.
        for trace in (0, 1):
            a = deterministic(bench("reclaim_sim", 7, 0.1, trace))
            b = deterministic(bench("reclaim_sim", 7, 0.1, trace))
            c = deterministic(bench("reclaim_sim", 8, 0.1, trace))
            self.assertEqual(a, b, f"trace={trace}: same seed, different counts")
            self.assertNotEqual(a, c, f"trace={trace}: another seed changed nothing")


class MetricsEmitted(unittest.TestCase):
    def check(self, workload, seconds):
        for trace, names in ((0, E2E), (1, LAYERS)):
            metrics = bench(workload, 3, seconds, trace)["metrics"]
            self.assertEqual(set(metrics), names, f"{workload} trace={trace}")
            for name, m in metrics.items():
                self.assertEqual(m["unit"], UNITS[name], f"{workload}: unit of {name}")
                self.assertIsInstance(m["value"], (int, float))
            if trace == 0 and workload in GATED:
                zero = [n for n, m in metrics.items() if m["value"] == 0]
                self.assertEqual(zero, [], f"{workload}: end-to-end metrics read 0")

    def test_rmi_tcp(self):
        self.check("rmi_tcp", 1)

    def test_rmi_export_tcp(self):
        self.check("rmi_export_tcp", 1)

    def test_reclaim_sim(self):
        self.check("reclaim_sim", 0.1)

    def test_spec_names_known_workloads(self):
        self.assertLessEqual(GATED, set(WORKLOADS))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
