#!/usr/bin/env python3
"""Shows that each of the benchmark's checks can fail.

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then runs one short clean run and one
run per deliberate fault (--perturb): a corrupted reference result, a
function reported over its growth budget, and a direct-layer result that
disagrees with the compile service. The clean run must pass; each faulty
run must exit non-zero, report correct=false and count failed operations.
Exits 0 when all cases behave so.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

CASES = [
    # (name, extra arguments, expect the run to pass)
    ("clean", ["--trace", "0"], True),
    ("perturbed reference", ["--trace", "0", "--perturb", "reference"], False),
    ("over growth budget", ["--trace", "0", "--perturb", "growth"], False),
    ("direct path differs", ["--trace", "1", "--perturb", "direct"], False),
]


def main():
    exe = run.build()
    if exe is None:
        print("selftest: build failed", file=sys.stderr)
        return 3
    bad = 0
    for name, extra, should_pass in CASES:
        cmd = [exe, "--workload", "large-units-dbds", "--seed", "1",
               "--seconds", "1"] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        passed = (proc.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0)
        failed_as_expected = (proc.returncode == 1
                              and result.get("correct") is False
                              and result.get("failed", 0) > 0)
        ok = passed if should_pass else failed_as_expected
        print("selftest: %-22s exit=%d correct=%s failed=%s -> %s"
              % (name, proc.returncode, result.get("correct"),
                 result.get("failed"), "ok" if ok else "WRONG"))
        bad += not ok
    print("selftest: %s" % ("passed" if bad == 0 else "%d case(s) wrong" % bad))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
