#!/usr/bin/env python3
"""Random fuzz-campaign sweep: the gate that random campaigns find nothing.

Runs one short ipcp-fuzz campaign (--runs=4 --seed-programs=3) per random
64-bit campaign seed, four campaigns at a time, and reports every seed
whose campaign reports a failure. The seeds are drawn from a fixed master
seed, so every sweep runs the same campaigns; a failing seed is printed
in full and replays alone with

    build/tools/ipcp-fuzz --seed=<seed> --runs=4 --seed-programs=3

Usage: tools/fuzz-sweep.py   (from the repository root, after a build of
                              the default preset)

Prints one line per failing seed, then a summary line with the seed count,
the failure count, the wall time, the median and 95th-percentile wall time
of one campaign, and the five slowest seeds. Exits 1 when any campaign
failed.
"""

import concurrent.futures
import math
import random
import re
import subprocess
import sys
import time

# Campaigns run at once: the gate is defined on a 4-core box.
JOBS = 4
# The fuzzer the sweep runs, relative to the repository root.
FUZZER = "build/tools/ipcp-fuzz"
# Campaign seeds per sweep, and the master seed they are drawn from.
SEEDS = 6000
MASTER = 1


def run_campaign(seed):
    """Returns (seed, failures, output, wall seconds) for one campaign."""
    start = time.monotonic()
    proc = subprocess.run(
        [FUZZER, f"--seed={seed}", "--runs=4", "--seed-programs=3", "--quiet"],
        capture_output=True, text=True)
    wall = time.monotonic() - start
    match = re.search(r" failures=(\d+)\n", proc.stdout)
    if proc.returncode != 0 and not match:
        return seed, -1, proc.stdout + proc.stderr, wall
    return seed, int(match.group(1)) if match else -1, proc.stdout, wall


def percentile(sorted_values, q):
    """The nearest-rank q-quantile (0 < q <= 1) of a sorted list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def main():
    rng = random.Random(MASTER)
    seeds = [rng.getrandbits(64) for _ in range(SEEDS)]
    start = time.monotonic()
    failing = []
    times = []
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for seed, failures, output, secs in pool.map(run_campaign, seeds):
            times.append((secs, seed))
            if failures != 0:
                failing.append(seed)
                kinds = re.findall(r"FAILURE kind=(\S+) config=(\S+)", output)
                what = ", ".join(f"{k}/{c}" for k, c in kinds) or \
                    "no summary line (crash?)"
                print(f"FAIL seed={seed}: {what}", flush=True)
    wall = time.monotonic() - start
    walls = sorted(secs for secs, _ in times)
    slowest = sorted(times, reverse=True)[:5]
    print(f"sweep: {SEEDS} seeds (master {MASTER}), "
          f"{len(failing)} failing, {wall:.1f} s wall with {JOBS} jobs; "
          f"campaign p50 {percentile(walls, 0.5) * 1000:.0f} ms, "
          f"p95 {percentile(walls, 0.95) * 1000:.0f} ms; slowest: " +
          ", ".join(f"{seed} ({secs * 1000:.0f} ms)"
                    for secs, seed in slowest))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
