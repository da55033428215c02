#!/usr/bin/env python3
"""Build bm_e2e from this checkout's sources, then run one workload.

    python3 bench/e2e/run.py --workload clip_cold --seed 1 --seconds 12 --trace 0

Run from the repository root. Every argument is passed to bm_e2e unchanged
(see README.md in this directory). The build and all scratch files live in
.bench_build/ at the repository root; build output goes to stderr, so the
last line on stdout is bm_e2e's JSON result. The exit code is bm_e2e's, or
1 when the build fails.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(env):
    """Configure once, then bring bm_e2e up to date (a no-op when it is)."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "bm_e2e", "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
                return False
    return True


def main():
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    if not build(env):
        print("run.py: building bm_e2e failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "bm_e2e"), *sys.argv[1:],
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bm_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
