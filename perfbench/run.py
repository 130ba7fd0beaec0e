#!/usr/bin/env python3
"""Whole-model benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark program (perfbench/models.cpp) from
this checkout's sources into .bench_build/perfbench — the first run compiles,
later runs only re-check — then runs one workload and relays its output.
The last line of stdout is the program's JSON result. Exits non-zero,
without a result line, when the build or the run fails.
"""

import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "perfbench_models"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cmake(*args, timeout):
    # Build chatter goes to stderr so stdout carries only the result.
    subprocess.run(["cmake", *args], check=True, timeout=timeout,
                   stdout=sys.stderr, stderr=sys.stderr)


def configured_here():
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]) == HERE
    return False


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        # Concurrent first runs would otherwise compile into one tree.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_here():
            shutil.rmtree(BUILD)
            cmake("-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release", timeout=300)
        jobs = str(min(4, os.cpu_count() or 1))
        cmake("--build", str(BUILD), "-j", jobs, timeout=840)


def main(argv):
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    # Library settings read from the environment would change what runs.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GPUCNN_")}
    try:
        proc = subprocess.run([str(PROGRAM), *argv], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=170,
                              text=True)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench_models exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("perfbench_models printed no result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
