#!/usr/bin/env python3
"""Repository benchmark: build perfbench/ and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark is built from source on first
use (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR, or .bench_build when
that is unset.  The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("pan_small_warm", "session_large_evict", "cluster_hotspot")
# The seed later claims are developed on, and one held out to confirm them.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# A run must end within 180 s; the child is killed (and reaped) before that.
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("STASH sources (src/) not found next to perfbench/")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    binary = os.path.join(build_dir, "stash_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no stash_perfbench binary")
    return binary


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over src/ and perfbench/ (stands in for the commit id when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(set(got.items()) ^ set(expected.items()))))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("stash_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("stash_perfbench exited with %d (answers wrong or run failed)"
             % proc.returncode)
    result = check_result(lines[-1], args.trace == 1)
    if not result["correct"]:
        fail("answers were not correct")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
