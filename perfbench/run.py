#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload catalog|halo|bulk|explain \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark program (RelWithDebInfo, like the repository's
default build) under $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild only what changed. Build output goes to stderr.

The program prints a host stamp, its report lines and a result object.
This script adds a source stamp, keeps the metrics BENCHMARK.json declares
for the mode (end_to_end for --trace 0, per_layer for --trace 1) and
prints the result object as the last line of standard output. A declared
per-layer metric that does not apply to the workload reads 0 and is
listed as not applicable.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("catalog", "halo", "bulk", "explain")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def build():
    """Configures once, then builds the perfbench target; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(build_dir, "perfbench")


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_stamp():
    """Git commit and dirty flag when the tree is a git checkout, and a
    digest of the sources either way, so results outside git still name
    the code they measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    # Only a repository rooted here counts, not one that encloses the tree.
    commit = git("rev-parse", "HEAD") if os.path.exists(os.path.join(ROOT, ".git")) else None
    status = git("status", "--porcelain") if commit else None
    return {"commit": commit or "none",
            "dirty": "unknown" if status is None else bool(status),
            "sources_sha256": digest.hexdigest()}


def main():
    args = parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace == "1" else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the metric list from BENCHMARK.json: %s" % e)

    binary = build()
    print("stamp.source " + json.dumps(source_stamp()), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("benchmark program exited with %d" % run.returncode, 1)
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    metrics, not_applicable = {}, []
    for m in declared:
        got = measured.pop(m["name"], None)
        if got is None:
            if args.trace == "0":
                fail("workload %s did not measure %s" % (args.workload, m["name"]), 1)
            not_applicable.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s measured in %s, declared in %s" % (m["name"], got["unit"], m["unit"]), 1)
        metrics[m["name"]] = got
    if not_applicable:
        print("not applicable to %s (reported as 0): %s" % (args.workload,
                                                           ", ".join(not_applicable)))
    if measured:
        print("other metrics: " + ", ".join("%s=%.6g %s" % (k, v["value"], v["unit"])
                                            for k, v in measured.items()))
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
