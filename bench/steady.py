"""Steadiness check: runs every workload once per seed and prints the
median and quartiles of every end-to-end metric, the spread that sets its
bound, and the share of failed operations.

    python3 bench/steady.py [--first-seed 1]

Each run is `bench/run.py --workload W --seed S --seconds T --trace 0` with
T = BENCHMARK.json's run_seconds and S = first seed, first seed + 1, ...,
SEEDS runs per workload. The spread of a metric is the distance between its
first and third quartiles (statistics.quantiles, n=4) as a share of its
median; BENCHMARK.json's bound for the metric should be at least three
times that. Each workload also makes two traced runs on the first seed, and
the exact counts of the two must be equal. Exits 1 if a run fails an
operation, the failed share differs between runs, a metric is missing, a
spread exceeds its bound or an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
from spans import EXACT

BENCH = Path(__file__).resolve().parent
SEEDS = 10


def run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}

    ok = True
    for workload in inputs.WORKLOADS:
        runs = [run(workload, args.first_seed + i, seconds, 0) for i in range(SEEDS)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs of {seconds:g} s, failed share "
              f"{sorted(shares)}, correct {all(r['correct'] for r in runs)}")
        ok &= len(shares) == 1 and all(r["correct"] for r in runs)
        if set(runs[0]["metrics"]) != set(bounds):
            print(f"  metrics differ from BENCHMARK.json: {sorted(runs[0]['metrics'])}")
            ok = False
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER")
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {flag}")
            ok &= spread <= bound
        a, b = (run(workload, args.first_seed, seconds, 1) for _ in range(2))
        keys = set(a["metrics"])
        if keys != layer_names:
            print(f"  traced metrics differ from BENCHMARK.json: {sorted(keys ^ layer_names)}")
            ok = False
        diff = [k for k in EXACT if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        overhead = [r["metrics"]["trace.overhead_pct"]["value"] for r in (a, b)]
        print(f"  traced twice: exact counts {'differ: ' + str(diff) if diff else 'equal'}; "
              f"tracing overhead {overhead[0]:.2f}% and {overhead[1]:.2f}%")
        ok &= not diff and a["correct"] and b["correct"]
        note = inputs.m_star_note(a["metrics"]["adaptive.m_star"]["value"])
        if workload == "cli-release" and note:
            print(f"  note: {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
