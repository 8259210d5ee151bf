#!/usr/bin/env python3
"""Determinism self-check of the benchmark's traced run.

For each workload: two traced runs at one seed must report exactly the
same work counts (LP solves and pivots, swept cache entries, join output
rows, cache hits and misses), and a traced run at a second seed must report
the same metric names and pass every output check.

    python3 perfbench/determinism.py [workload ...] [--seeds A B]

Run from the repository root. Exits 1 if any check fails.
"""

import json
import subprocess
import sys

COUNTS = [
    "lp.pivots",
    "lp.solves",
    "core.swept",
    "krelation.output_rows",
    "core.cache_hits",
    "core.cache_misses",
]
WORKLOADS = ["cold_star", "tri_join", "warm_mix", "ingest_refresh"]


def traced(workload, seed):
    cmd = [
        "bash", "perfbench/run.sh",
        "--workload", workload, "--seed", str(seed), "--seconds", "10", "--trace", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result line\n{out.stderr}")
    return json.loads(lines[-1])


def main(argv):
    seeds = (1, 2)
    if "--seeds" in argv:
        i = argv.index("--seeds")
        seeds = (int(argv[i + 1]), int(argv[i + 2]))
        argv = argv[:i] + argv[i + 3:]
    workloads = argv or WORKLOADS
    ok = True
    for w in workloads:
        first, again, other = traced(w, seeds[0]), traced(w, seeds[0]), traced(w, seeds[1])
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
            if a != b:
                ok = False
                print(f"FAIL {w}: {name} {a} then {b} at seed {seeds[0]}")
        if set(first["metrics"]) != set(other["metrics"]):
            ok = False
            print(f"FAIL {w}: metric names differ between seeds {seeds[0]} and {seeds[1]}")
        for seed, run in ((seeds[0], first), (seeds[0], again), (seeds[1], other)):
            if not run["correct"]:
                ok = False
                print(f"FAIL {w}: output checks failed at seed {seed} ({run['failed']} of {run['attempted']})")
        counts = {n: first["metrics"][n]["value"] for n in COUNTS}
        print(f"{w}: seed {seeds[0]} counts {counts}")
    print("determinism: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
