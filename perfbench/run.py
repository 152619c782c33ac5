#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dc-hhvm --seed 0 --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/perfbench.exe with dune,
runs it with the same arguments, checks that the metrics it prints are
exactly the ones BENCHMARK.json declares for that mode (end_to_end for
--trace 0, per_layer for --trace 1), and relays its last stdout line.
When the build or the run fails, exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    # the dune cache lives outside the checkout; keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("no result line (exit %d)" % run.returncode)
    result = json.loads(lines[-1])
    if result["correct"]:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != units:
            fail("metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(units.items())))
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
