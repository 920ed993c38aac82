#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the repository root)

Runs every workload briefly on a held-out seed, untraced and traced, and
checks that the runs are clean, that every metric BENCHMARK.json names is
emitted with its unit (and is non-zero where its layer does work), that a
doctored fingerprint fails the run, that the pinned environment variables
are cleared, and that the benchmark fails cleanly without the simulator
sources. Takes a few minutes: each run still does its minimum repetitions.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
HELD_OUT_SEED = 7  # never used while the benchmark was tuned
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FLEETS = [w for w in WORKLOADS if w != "paper-tables"]

# Per-layer metrics that must be non-zero on the workloads where their layer
# does work; every other per-layer metric must be non-zero everywhere.
DOES_WORK = {
    "sim.events": FLEETS,  # run_once does not report its event count
    "sim.ns_per_event": FLEETS,
    "sim.wall_ms_per_sim_s.p50": FLEETS,
    "sim.wall_ms_per_sim_s.p99": FLEETS,
    "shard.round_ns": ["dumbbell-h11-t4"],
    "shard.barrier_ns": ["dumbbell-h11-t4"],
    "netem.radio_wakeups": ["mobile-h10"],
    "netem.transmit_ns": ["mobile-h10"],
    "topo.forwarded": ["dumbbell-h11", "dumbbell-h11-t4"],
    "topo.queue.drops": ["dumbbell-h11", "dumbbell-h11-t4"],
    "topo.qdisc.op_ns": ["dumbbell-h11", "dumbbell-h11-t4"],
    "h2.frames": ["star-h2", "paper-tables"],
    "h2.flow_stalls": ["star-h2", "paper-tables"],
    "h2.push_accept_ratio": ["star-h2", "paper-tables"],
    "h2.frame_encode_ns": ["star-h2", "paper-tables"],
    "h2.frame_decode_ns": ["star-h2", "paper-tables"],
    "server.connections_queued": FLEETS,
    # Loss and retries depend on the seed; zero is a valid outcome.
    "net.drops": [],
    "client.retries": [],
    "client.retry_ratio": [],
    "harness.trace_overhead_s": [],  # a difference of two timings
}


def run(workload, seed, trace, *extra, env=None, script=RUN, cwd=ROOT):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    stamp = None
    if len(lines) >= 2 and lines[-2].startswith("# stamp "):
        stamp = json.loads(lines[-2][len("# stamp "):])
    return proc, result, stamp


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += WORKLOADS
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_does_work_table_names_real_metrics(self):
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertLessEqual(set(DOES_WORK), per_layer)


class HeldOutSeed(unittest.TestCase):
    """Every workload, untraced and traced, on a seed not used in tuning."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = run(workload, HELD_OUT_SEED, trace)

    def check(self, trace, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result, stamp = self.runs[workload, trace]
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(expected))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], expected[name], name)
                    self.assertIsInstance(metric["value"], (int, float))
                    self.assertEqual(set(metric), {"value", "unit"})
                self.assertEqual(stamp["workload"], workload)
                self.assertEqual(stamp["seed"], HELD_OUT_SEED)
                self.assertTrue(stamp["release"])
                for key in ("hardware_concurrency", "worker_threads",
                            "commit", "source_sha256", "fingerprint"):
                    self.assertIn(key, stamp)
        return expected

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        self.check(0, "end_to_end")
        for workload in WORKLOADS:
            metrics = self.runs[workload, 0][1]["metrics"]
            for name, metric in metrics.items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_traced_runs_emit_every_per_layer_metric(self):
        self.check(1, "per_layer")
        for workload in WORKLOADS:
            metrics = self.runs[workload, 1][1]["metrics"]
            for name, metric in metrics.items():
                if workload in DOES_WORK.get(name, WORKLOADS):
                    self.assertGreater(metric["value"], 0, (workload, name))

    def test_fingerprints_repeat_and_the_sharded_engine_agrees(self):
        prints = {key: r[2]["fingerprint"] for key, r in self.runs.items()}
        for workload in WORKLOADS:
            self.assertEqual(prints[workload, 0], prints[workload, 1])
        self.assertEqual(prints["dumbbell-h11", 0],
                         prints["dumbbell-h11-t4", 0])


class Checks(unittest.TestCase):
    def test_doctored_fingerprint_fails_the_run(self):
        run("paper-tables", HELD_OUT_SEED, 0)  # builds the binary
        proc = subprocess.run(
            [BINARY, "--workload", "paper-tables", "--seed", "42",
             "--seconds", "1", "--trace", "0",
             "--expect-fingerprint", "0123456789abcdef"],
            capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 1)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(report["correct"])
        self.assertEqual(report["failed"], report["attempted"])
        self.assertLess(report["metrics"]["pages_completed_ratio"]["value"], 1)
        self.assertTrue(any("not the pinned" in e for e in report["errors"]))

    def test_pinned_seed_matches_its_pin(self):
        proc, result, stamp = run("paper-tables", 42, 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(stamp["fingerprint"], stamp["pinned_fingerprint"])

    def test_environment_overrides_are_cleared(self):
        env = dict(os.environ, HSIM_THREADS="4", HSIM_PROFILE="3g-drive",
                   HSIM_CC="cubic")
        proc, result, stamp = run("paper-tables", HELD_OUT_SEED, 0, env=env)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(stamp["env_cleared"]),
                         ["HSIM_CC", "HSIM_PROFILE", "HSIM_THREADS"])
        # The binary itself refuses to run under any of them.
        refused = subprocess.run(
            [BINARY, "--workload", "paper-tables", "--seed", "1", "--seconds",
             "1", "--trace", "0"], env=dict(os.environ, HSIM_CC="cubic"),
            capture_output=True, text=True, timeout=60)
        self.assertEqual(refused.returncode, 3)
        self.assertEqual(refused.stdout, "")

    def test_fails_cleanly_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc, result, _ = run("paper-tables", 1, 0, cwd=bare,
                                  script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
