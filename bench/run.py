"""Benchmark of the suptest program: three seeded workloads, checked outputs,
end-to-end metrics, and a separate traced run for per-layer figures.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds T --trace 0|1

WORKLOAD is `cli-release`, `simulate-desk`, `library-small`, or `all`
(the three in turn, untraced). Run it from the root of a checkout; it
imports the program from `src/` there and exits 2 if that is missing. It
prints one line per metric, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer figures with `--trace 1`. See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import hostspeed
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def suptest(argv, env):
    """Runs `suptest ARGV` as a fresh process: (wall seconds, reference
    seconds, completed process)."""
    return hostspeed.timed(lambda: subprocess.run(
        [sys.executable, "-m", "suptest", *argv], env=env, capture_output=True, text=True))


def failure(proc) -> list:
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit {proc.returncode}: {tail[0][:200]}"]


def measure_setup(env, info) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    suptest. One untimed import first compiles the bytecode, which users
    pay once."""
    probe = subprocess.run(
        [sys.executable, "-c", "import suptest, sys; sys.stdout.write(suptest.__file__)"],
        env=env, capture_output=True, text=True)
    if probe.returncode or not Path(probe.stdout).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cannot import suptest from {SRC}: {probe.stderr.strip()}")
    samples = [hostspeed.timed(lambda: subprocess.run(
        [sys.executable, "-c", "import suptest"], env=env, check=True))[:2]
        for _ in range(SETUP_SAMPLES)]
    info["setup_wall_s"] = (statistics.median(w for w, _ in samples), "s", SETUP_SAMPLES)
    return statistics.median(r for _, r in samples)


def peak_rss_mb() -> float:
    """Largest peak resident set of any child process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------- workloads

def cli_release(seed, seconds, env, work, tally, info, notes):
    """Closed loop, one client: each release is a fresh `suptest run`
    process, started when the previous one exits; whole rounds of the four
    methods, at least two so that repeats can be compared. Only releases
    that pass their checks are timed."""
    inp = inputs.cli_inputs(seed)
    csv = work / "input.csv"
    csv.write_text(inp.csv, encoding="utf-8")
    invocations = inputs.cli_invocations(csv, work)
    walls = {key: [] for key, _ in inputs.CLI_METHODS}
    refs = {key: [] for key, _ in inputs.CLI_METHODS}
    first = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        for key, method, argv, out in invocations:
            out.unlink(missing_ok=True)
            wall, ref, proc = suptest(argv, env)
            if proc.returncode:
                tally.op(failure(proc))
                continue
            text = out.read_text(encoding="utf-8")
            problems = checks.check_cli_output(text, proc.stdout, inp, method,
                                               inputs.CLI_ALPHA)
            h = hashlib.sha256((text + proc.stdout).encode()).hexdigest()
            if first.setdefault(key, h) != h:
                problems.append("output differs from the first round's")
            if tally.op([f"{key}: {p}" for p in problems]):
                walls[key].append(wall)
                refs[key].append(ref)
            if key == "adaptive" and not problems:
                m_star = int(checks.parse_summary(proc.stdout.strip())["m_peel"])
                notes.add(inputs.m_star_note(m_star))
        rounds += 1
    for key in refs:
        if refs[key]:
            info[f"run_{key}_s"] = (statistics.median(refs[key]), "s", len(refs[key]))
            info[f"run_{key}_wall_s"] = (statistics.median(walls[key]), "s", len(walls[key]))
    if not all(refs.values()):
        return 0.0  # a method that never passed completes no round
    # releases per second of a round made of the four median releases
    return len(refs) / sum(statistics.median(r) for r in refs.values())


def simulate_desk(seed, seconds, env, work, tally, info, notes):
    """Closed loop of `suptest simulate --preset desk` processes, one at a
    time, each with its own seed, until `seconds` have passed; rate = the
    median over processes that passed their checks of replicates per second
    of process time."""
    out = work / "sim.csv"
    rates, wall_rates, rounds = [], [], 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        out.unlink(missing_ok=True)
        wall, ref, proc = suptest(inputs.sim_argv(seed, rounds, out), env)
        if proc.returncode:
            problems = failure(proc)
        else:
            problems = checks.check_sim_csv(out.read_text(encoding="utf-8"), inputs.SIM_LABELS,
                                            inputs.SIM_REPS, inputs.SIM_ALPHA)
        if tally.op([f"round {rounds}: {p}" for p in problems], inputs.SIM_REPS):
            rates.append(inputs.SIM_REPS / ref)
            wall_rates.append(inputs.SIM_REPS / wall)
        rounds += 1
    if not rates:
        return 0.0
    reps_per_s = statistics.median(rates)
    info["sim_reps_per_s"] = (reps_per_s, "reps/s", len(rates))
    info["sim_reps_per_wall_s"] = (statistics.median(wall_rates), "reps/s", len(rates))
    return reps_per_s


def worker(workload, seed, seconds, trace, env, work) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def library_small(seed, seconds, env, work, tally, info, notes):
    """Closed loop of in-process releases in one process and one thread;
    rate = median over rounds of the releases that passed their checks per
    second of their time."""
    res = worker("library-small", seed, seconds, 0, env, work)
    tally.attempted += res["attempted"]
    tally.failed += res["failed"]
    tally.problems += res["problems"]

    def rate(times):
        return statistics.median(n / t if n else 0.0 for n, t in zip(res["round_passed"], times))
    n = len(res["round_s"])
    info["small_releases_per_wall_s"] = (rate(res["round_s"]), "releases/s", n)
    info["small_releases_per_s"] = (rate(res["round_ref_s"]), "releases/s", n)
    return info["small_releases_per_s"][0]


WORKLOAD_RUNNERS = {
    "cli-release": cli_release,
    "simulate-desk": simulate_desk,
    "library-small": library_small,
}


def metric_units() -> dict:
    """name -> unit of every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload, seed, seconds, trace):
    """(result object, info lines) of one run."""
    env = program_env()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    tally, info, notes, units = checks.Tally(), {}, set(), metric_units()
    try:
        if trace:
            res = worker(workload, seed, seconds, 1, env, work)
            tally.attempted, tally.failed = res["attempted"], res["failed"]
            tally.problems = res["problems"]
            metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
            info["traced_rounds"] = (res["rounds"], "count", 1)
            info["untraced_wall_s"] = (res["wall_plain_s"], "s", res["rounds"])
            info["traced_wall_s"] = (res["wall_traced_s"], "s", res["rounds"])
            for site in res["missing_sites"]:
                tally.problems.append(f"not traced: {site} no longer exists")
        else:
            values = {"setup_s": measure_setup(env, info),
                      "ops_per_s": WORKLOAD_RUNNERS[workload](seed, seconds, env, work, tally,
                                                              info, notes),
                      "peak_rss_mb": peak_rss_mb()}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    lines = [f"{workload}: {tally.attempted} operations attempted, {tally.failed} failed"]
    lines += [f"  problem: {p}" for p in tally.problems]
    lines += [f"  note: {n}" for n in sorted(notes - {None})]
    lines += [f"  metric {k} {v['value']!r} {v['unit']}" for k, v in metrics.items()]
    lines += [f"  info {k} {v!r} {unit} (n={n})" for k, (v, unit, n) in info.items()]
    return result, lines


def run_all(seed, seconds) -> int:
    """The three workloads in turn, each in its own process so that each
    peak RSS is its own; prints every line of each, then one JSON object
    keyed by workload."""
    results = {}
    for workload in inputs.WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "suptest" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'suptest'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
