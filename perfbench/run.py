#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload model-cyclic --seed 1 --seconds 40 --trace 0

Builds perfbench/bench.exe, its host-speed probe perfbench/calib/calib.exe
and bin/distald.exe from source with dune,
runs one workload in its own process group, relays its output and checks
that the last line names exactly the metrics BENCHMARK.json declares.
Exits non-zero, printing no result, when the build, the run or that
check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = "_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def commit():
    # Never search above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    args = p.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe", "./perfbench/calib/calib.exe", "./bin/distald.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--distald", os.path.join(BUILD_DIR, "default", "bin", "distald.exe"),
           "--calib", os.path.join(BUILD_DIR, "default", "perfbench", "calib", "calib.exe"),
           "--out", ".bench_out", "--commit", commit()]
    # An untraced run is pinned, with the host-speed probe it starts, to
    # one CPU, so the probe measures the CPU the ops run on. The last
    # CPU, because the first takes most device interrupts. A traced run
    # is not pinned: its parallel-efficiency probe needs two CPUs.
    pin = None
    if args.trace == "0":
        pin = {max(os.sched_getaffinity(0))}
        print(f"pinned to cpu {min(pin)}")
    # Its own process group, so a timeout also stops its children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"bench.exe exited with {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {[k for k in want if k in got and got[k] != want[k]]}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
