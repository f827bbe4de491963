#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             --open-rps R

Run from the root of a checkout. Builds the shipped binaries (simulate,
analyze, queryd, dynaddrd) from the workspace and the `perfbench` driver
from this directory, into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the driver. The driver prints its report and, as the last line
of standard output, one JSON result. Scratch files go to `.bench_work/`
and are removed afterwards. Any build or run failure exits nonzero
without a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Kept below the 180 s a run may take, build excluded.
RUN_TIMEOUT_S = 170
WORKLOADS = ("batch_paper", "query_zipf", "live_replay")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "dynaddr-bench", "-p", "dynaddr-query", "-p", "dynaddr-daemon", "--bins"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--open-rps", required=True, type=float,
                    help="open-loop query rate, requests per second")
    args = ap.parse_args()

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target)
    work = os.path.join(".bench_work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--open-rps", str(args.open_rps),
        "--bin-dir", os.path.join(target, "release"), "--work-dir", work,
    ]
    # Own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
