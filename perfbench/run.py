#!/usr/bin/env python3
"""Build and run the p2pindex benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune (first run: the simulator from
source), runs it, checks that its result line names exactly the metrics
BENCHMARK.json lists for the mode (end-to-end for --trace 0, per-layer for
--trace 1) with the listed units, and passes its output through.  Exits
non-zero without a result line when the checkout is incomplete, the build
fails, an output check fails or the metric set is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    for required in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(required):
            fail("%s not found: run from the root of a p2pindex checkout" % required)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description="p2pindex benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bin/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    command = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metric set differs from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
