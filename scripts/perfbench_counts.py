#!/usr/bin/env python3
"""Check perfbench's exact counts against results/perfbench_counts.json.

Runs two short traced perfbench workloads (each pins itself to one CPU),
takes the machine-independent counts from the JSON object each prints
last, and compares them exactly with the committed record. These counts
catch an extra event per frame, a new allocation per run, a changed
session-cache key or a different checkpoint size without any timing
noise. Timings are never compared.

Allocation counts depend on how the standard library grows its
collections, so the record names the `rustc --version` it was taken
with, and the check refuses to run under any other toolchain.

Usage, from the repository root:

    python3 scripts/perfbench_counts.py    # exit 1 on a difference

A change that moves a count on purpose copies the measured value printed
for it into the record and says why.
"""

import json
import subprocess
import sys

RECORD = "results/perfbench_counts.json"
BENCH = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml", "--"]
# Workload -> its arguments and the counts it emits.
RUNS = {
    "session": (["--workload", "session", "--seconds", "2", "--trace", "1", "--seed", "1"],
                ["sim.events_per_run", "core.decisions_per_run", "core.allocs_per_run"]),
    "campaign": (["--workload", "campaign", "--seconds", "4", "--trace", "1", "--seed", "1"],
                 ["sim.events_per_run", "cache.hits", "cache.misses", "fleet.ckpt_bytes"]),
}


def counts(args, names):
    out = subprocess.run(BENCH + args, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perfbench {' '.join(args)}: incorrect or failed runs: {result}")
    return {name: result["metrics"][name]["value"] for name in names}


def main():
    with open(RECORD) as f:
        record = json.load(f)
    rustc = subprocess.run(["rustc", "--version"], check=True, stdout=subprocess.PIPE,
                           text=True).stdout.strip()
    if rustc != record["rustc"]:
        sys.exit(f"{RECORD} was recorded with {record['rustc']!r}, this is {rustc!r}: "
                 "allocation counts differ between toolchains, so run the check "
                 "under the recorded one")
    diffs = []
    for workload, (args, names) in RUNS.items():
        for name, value in counts(args, names).items():
            if record[workload][name] != value:
                diffs.append(f"{workload}.{name}: recorded {record[workload][name]!r}, "
                             f"measured {value!r}")
    for d in diffs:
        print(d)
    if diffs:
        sys.exit(1)
    total = sum(len(names) for _, names in RUNS.values())
    print(f"all {total} counts match {RECORD}")


if __name__ == "__main__":
    main()
