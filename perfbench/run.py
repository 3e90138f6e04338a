#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mall_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The engine and the benchmark binary are compiled with CMake into the build
directory (CARGO_TARGET_DIR when set, else .bench_build at the repository
root); the first run builds, later runs only re-check it. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result. Every
other argument is passed to the binary unchanged (see perfbench/README.md).
"""
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(cmake_dir, ".build.lock"), "w") as lock:
        # Concurrent runs in one checkout share the build; one builds at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.stderr.write("perfbench: build step failed: %s\n"
                                 % " ".join(cmd))
                sys.exit(2)
    return os.path.join(cmake_dir, "perfbench")


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else "unknown"


def main():
    # SIGTERM raises SystemExit here, so a build step or a running benchmark
    # is stopped and waited for instead of left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = build_dir()
    binary = build(out_dir)
    args = [binary] + sys.argv[1:] + [
        "--state-dir", os.path.join(out_dir, "state"),
        "--git-commit", git_commit()]
    child = subprocess.Popen(args)
    try:
        code = child.wait()
    except BaseException:
        child.terminate()
        child.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
