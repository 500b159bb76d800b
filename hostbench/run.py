#!/usr/bin/env python3
"""Build and run the host-time benchmark of the BGP stack.

Usage, from the root of the repository:

    python3 hostbench/run.py --workload fullfeed|churn|topo \\
        --seed N --seconds S --trace 0|1

The first call configures and builds hostbench/ (which compiles the
repository's src/ libraries) with CMake in Release mode under the
directory named by $CARGO_TARGET_DIR, or .bench_build when unset;
later calls rebuild incrementally. Build output goes to stderr. The
benchmark's own output, ending in one JSON result line, goes to
stdout. A traced run (--trace 1) writes its span file into
<build dir>/traces/. See hostbench/README.md for the workloads and
metrics.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the paths and bytes of src/ and hostbench/."""
    digest = hashlib.sha256()
    for top in ("src", "hostbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def build(build_dir):
    """Configure once, then build the hostbench target; stderr only."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "hostbench"])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr,
                                    stderr=sys.stderr)
            if result.returncode != 0:
                fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fullfeed", "churn", "topo"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to hostbench/; nothing to build")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "hostbench")
    build(build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(build_dir, "hostbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--trace-dir", trace_dir,
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
