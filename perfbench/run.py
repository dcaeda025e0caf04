#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

Run from the repository root. The benchmark binary is built from source into
.bench_build/perfbench (progress on stderr); its stdout is passed through,
so the last line is the result JSON. All arguments go to the binary, which
rejects unknown flags and malformed values (see perfbench/README.md).
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = HERE.parent / ".bench_build" / "perfbench"


def jobs():
    """Compile jobs: at most 4, never more than the CPUs this process has."""
    return min(4, len(os.sched_getaffinity(0)))


def run(cmd, **kwargs):
    """Run a child to completion; never leave it behind."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "-j", str(jobs())],
    ]
    for cmd in steps:
        if run(cmd, stdout=sys.stderr) != 0:
            return False
    return True


def main():
    # SIGTERM unwinds through run()'s cleanup instead of orphaning a child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return run([str(BUILD_DIR / "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
