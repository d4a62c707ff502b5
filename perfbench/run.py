#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold_cache --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Builds the library and the perfbench driver from source into
.bench_build/perfbench (CMake, RelWithDebInfo), runs one workload in a
scratch directory under .bench_build, removes it, and passes the driver's
output through: the last stdout line is the result object. Build output goes
to stderr. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
# Compilers and the driver keep their temporaries inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    os.makedirs(TMP_DIR, exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tag = "selftest" if args.selftest else f"{args.workload}-{os.getpid()}"
    data_dir = os.path.join(ROOT, ".bench_build", "run-" + tag)
    shutil.rmtree(data_dir, ignore_errors=True)
    cmd = [BINARY, "--data-dir", data_dir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        trace_out = os.path.join(ROOT, ".bench_build", "traces",
                                 f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--pinned", os.path.join(HERE, "pinned_inputs.json"),
                "--trace-out", trace_out,
                "--commit", commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
