#!/usr/bin/env python3
"""Builds and runs the dphist serving benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
dphist library and the driver in Release under $CARGO_TARGET_DIR (default
.bench_build) /perfbench; later runs rebuild only what changed. The last
line of stdout is the result object; a failed build or a driver that
prints no result exits non-zero without one.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target, out_dir):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    if not (out_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(out_dir), "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unavailable"


def source_digest():
    """sha256 over the library sources: provenance that survives checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not (ROOT / "src").is_dir() or not build("perfbench_driver", out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    # Flush what the build left dirty: otherwise its writeback lands on
    # the durable workload's WAL fsyncs and slows the first run after it.
    os.sync()
    command = [
        str(out_dir / "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
