#!/usr/bin/env python3
"""Builds and runs the live Catfish benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offload_point --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles the
libraries under src/) into the build directory: $CARGO_TARGET_DIR when
set, else .bench_build, both relative to the checkout. Later runs reuse
it. Build output goes to stderr; the benchmark's own output, ending in
one JSON line, goes to stdout. Traced runs write their spans to
<build dir>/spans/<workload>-seed<seed>.jsonl.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = "catfish_perfbench"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out, exist_ok=True)
    bdir = os.path.join(out, "perfbench")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        # Concurrent runs in one checkout share the build.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", bdir, "--target", BINARY, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(bdir, BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--client-cache", type=int, choices=(0, 1), default=0,
                    help="turn on ClientConfig::cache_internal_nodes")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--client-cache", str(args.client_cache)]
        if args.trace:
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans, f"{args.workload}-seed{args.seed}.jsonl")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
