#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload em_fastbag --seed 1 --seconds 16 --trace 0
  python3 perfbench/run.py --smoke

The first form builds the library and the driver from source into
.bench_build/perfbench (CMake, Release; later runs rebuild incrementally),
runs one workload and relays the driver's result line, which is the last
line of stdout. Build output goes to stderr. The exit code is the driver's:
non-zero when an output check failed.

--smoke runs every workload briefly on small inputs, with tracing off and
on, and checks that each metric named in BENCHMARK.json is emitted, finite
and carries its declared unit, and that every output check passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("em_fastbag", "serve_read", "serve_write")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_driver(args):
    """Runs the driver; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w["name"], trace)
            before = len(errors)
            code, out = run_driver(["--workload", w["name"], "--seed", "1",
                                    "--seconds", "2", "--trace", str(trace),
                                    "--smoke"])
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                errors.append("%s: no result line" % tag)
                continue
            if code != 0 or result.get("correct") is not True:
                errors.append("%s: output checks failed (exit %d)" % (tag, code))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: wrong result keys %s" % (tag, sorted(result)))
            metrics = result.get("metrics", {})
            if set(metrics) != set(declared[trace]):
                errors.append("%s: metrics differ from BENCHMARK.json: "
                              "missing %s, extra %s" % (
                                  tag, sorted(set(declared[trace]) - set(metrics)),
                                  sorted(set(metrics) - set(declared[trace]))))
            for name, m in metrics.items():
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    errors.append("%s: %s is not a finite number" % (tag, name))
                if name in declared[trace] and m.get("unit") != declared[trace][name]:
                    errors.append("%s: %s has unit %r, declared %r" % (
                        tag, name, m.get("unit"), declared[trace][name]))
            print("smoke %-24s %s" % (tag, "ok" if len(errors) == before else "FAIL"),
                  file=sys.stderr)
    for e in errors:
        print("SMOKE FAILED: " + e, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required unless --smoke")
    build()
    if a.smoke:
        return smoke()
    code, out = run_driver(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
