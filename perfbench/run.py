#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the simulator from src/) in Release mode under
.bench_build/perfbench; later runs only re-check the build. HSIM_THREADS,
HSIM_PROFILE and HSIM_CC are removed from the benchmark's environment, since
each would change what a workload runs.

Standard output ends with two lines: a '# stamp' line (workload, seed, build
type, core count, worker threads, commit, source digest, fingerprint) and the
result object {"correct", "attempted", "failed", "metrics"}. The full report
(stamp, errors, metrics) and the recorded spans are written under
.bench_build/perfbench/. Exit status: 0 when every correctness check passed,
1 when a check failed, 2 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
PINNED_SEED = 42
PINNED_ENV = ("HSIM_THREADS", "HSIM_PROFILE", "HSIM_CC")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def commit():
    """The git commit when the checkout is a repository, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the benchmarked sources (src/ and perfbench/src/)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    if args.workload not in pins["fingerprints"]:
        fail("unknown workload '%s'" % args.workload)
    expect = (pins["fingerprints"][args.workload]
              if args.seed == pins["seed"] else None)

    build()

    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cleared = [k for k in PINNED_ENV if k in os.environ]
    tag = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--spans", os.path.join(out_dir, tag + ".spans.json")]
    if expect:
        cmd += ["--expect-fingerprint", expect]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark binary exited with %d" % proc.returncode)
    report = json.loads(lines[-1])

    stamp = {k: report[k] for k in (
        "workload", "seed", "trace", "build_type", "asserts",
        "hardware_concurrency", "worker_threads", "untraced_reps",
        "traced_reps", "peak_rss_reset", "fingerprint",
        "fingerprint_fields")}
    stamp["release"] = report["build_type"] == "Release" and not report["asserts"]
    stamp["commit"] = commit()
    stamp["source_sha256"] = source_digest()
    stamp["pinned_fingerprint"] = expect
    stamp["env_cleared"] = cleared
    report.update(stamp)
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    for error in report["errors"]:
        print("perfbench: check failed: " + error, file=sys.stderr)
    if not stamp["release"]:
        print("perfbench: warning: not a Release build", file=sys.stderr)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({k: report[k] for k in (
        "correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
