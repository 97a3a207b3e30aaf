#!/usr/bin/env python3
"""Check perfbench's exact outputs against results/perfbench_counts.json.

Runs five short perfbench workloads and compares the machine-independent
numbers each prints in its last line, a JSON object, exactly with the
committed record:

- two traced runs (`--trace 1`) give the per-layer counts: events,
  decisions and allocations per run on `session`; events, cache hits and
  misses and checkpoint bytes on `campaign`;
- one untraced run (`--trace 0`) of each workload, `session`, `campaign`
  (the fleet path) and `served` (the daemon over HTTP), gives CPU joules
  per run and the deadline miss rate.

These catch an extra event per frame, a new allocation per run, a
changed session-cache key, a different checkpoint size or a moved energy
figure without any timing noise. Every run must report itself correct
with no failed operation, and finish within RUN_BUDGET_S of wall time,
which catches a hang or a set-up that has grown by several times. No
other timing is compared.

Allocation counts depend on how the standard library grows its
collections, so the record names the `rustc --version` it was taken
with, and the check refuses to run under any other toolchain.

Usage, from the repository root:

    python3 scripts/perfbench_counts.py    # exit 1 on a difference

A change that moves a value on purpose copies the measured value printed
for it into the record and says why.
"""

import json
import subprocess
import sys
import time

RECORD = "results/perfbench_counts.json"
MANIFEST = ["--manifest-path", "perfbench/Cargo.toml"]
BENCH = ["cargo", "run", "--release", "--offline", "--quiet"] + MANIFEST + ["--"]
# Wall-time limit of one run, build excluded, in seconds. The runs below
# take 3 s (`session`, `served`) and 9 to 12 s (`campaign`) on a 2-vCPU
# Xeon container.
RUN_BUDGET_S = 30.0
# Workload, its arguments, and the values it emits that the record pins.
RUNS = [
    ("session", ["--seconds", "2", "--trace", "1"],
     ["sim.events_per_run", "core.decisions_per_run", "core.allocs_per_run"]),
    ("campaign", ["--seconds", "4", "--trace", "1"],
     ["sim.events_per_run", "cache.hits", "cache.misses", "fleet.ckpt_bytes"]),
    ("session", ["--seconds", "2", "--trace", "0"], ["cpu_j_per_run", "deadline_miss_rate"]),
    ("campaign", ["--seconds", "4", "--trace", "0"], ["cpu_j_per_run", "deadline_miss_rate"]),
    ("served", ["--seconds", "2", "--trace", "0"], ["cpu_j_per_run", "deadline_miss_rate"]),
]


def measure(workload, args, names):
    """Runs one workload; returns its pinned values and its wall time."""
    argv = BENCH + ["--workload", workload, "--seed", "1"] + args
    started = time.monotonic()
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout
    took = time.monotonic() - started
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perfbench {' '.join(argv[len(BENCH):])}: incorrect or failed runs: {result}")
    return {name: result["metrics"][name]["value"] for name in names}, took


def main():
    with open(RECORD) as f:
        record = json.load(f)
    rustc = subprocess.run(["rustc", "--version"], check=True, stdout=subprocess.PIPE,
                           text=True).stdout.strip()
    if rustc != record["rustc"]:
        sys.exit(f"{RECORD} was recorded with {record['rustc']!r}, this is {rustc!r}: "
                 "allocation counts differ between toolchains, so run the check "
                 "under the recorded one")
    # Build once up front, so the budget times runs, not the compiler.
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + MANIFEST,
                   check=True)
    diffs = []
    for workload, args, names in RUNS:
        values, took = measure(workload, args, names)
        print(f"{workload} {' '.join(args)}: {took:.1f} s")
        if took > RUN_BUDGET_S:
            diffs.append(f"{workload} {' '.join(args)}: took {took:.1f} s, "
                         f"over the {RUN_BUDGET_S} s budget")
        for name, value in values.items():
            recorded = record.get(workload, {}).get(name)
            if recorded != value:
                diffs.append(f"{workload}.{name}: recorded {recorded!r}, measured {value!r}")
    for d in diffs:
        print(d)
    if diffs:
        sys.exit(1)
    total = sum(len(names) for _, _, names in RUNS)
    print(f"all {total} values match {RECORD}, every run within {RUN_BUDGET_S} s")


if __name__ == "__main__":
    main()
