#!/usr/bin/env python3
"""Builds the DBDS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable and the
program's libraries are built into .bench_build/ (or $CARGO_TARGET_DIR when
set) on first use; later runs only check that the build is up to date.
Results and traces are written to perfbench/results/. The last line of
standard output is the benchmark's JSON result.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark; returns the executable or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    exe = os.path.join(out, "dbds-perfbench")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "dbds-perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return exe if os.path.exists(exe) else None


def main(argv):
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    proc = subprocess.run([exe] + argv + ["--out-dir", results])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
