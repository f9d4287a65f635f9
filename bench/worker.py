"""In-process half of the benchmark, run by run.py as a child process.

It runs the `library-small` loop, and the traced run of every workload,
in one process and one thread that imports `suptest` from the checkout's
`src`. In a traced run each round runs twice, first untraced and then with
the span recorder installed; the two passes must give byte-identical
outputs, and their wall times give the tracing overhead.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 --work DIR

The last line of stdout is one JSON object with the counts, timings and,
when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import suptest  # noqa: E402
from suptest import adaptive, cli, thresholds  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
from spans import CALLS, COUNTS, PEAKS, Recorder, sites  # noqa: E402

# layer metric -> (span name, 1 for inclusive seconds, 2 for self seconds)
TIMES = {
    "numerics.std_normal_quantile.s": ("numerics.std_normal_quantile", 1),
    "numerics.std_normal_cdf.s": ("numerics.std_normal_cdf", 1),
    "numerics.normal_laplace_cdf.s": ("numerics.normal_laplace_cdf", 1),
    "numerics.stream_generator.s": ("numerics.stream_generator", 1),
    "transform.generate_noisy_matrix.self_s": ("transform.generate_noisy_matrix", 2),
    "peeling.reversed_peel.s": ("peeling.reversed_peel", 1),
    "peeling.forward_peel_baseline.s": ("peeling.forward_peel_baseline", 1),
    "thresholds.sup_test.self_s": ("thresholds.sup_test", 2),
    "thresholds.reject_from_matrix.self_s": ("thresholds.reject_from_matrix", 2),
    "thresholds.select_step.s": ("thresholds.select_step", 1),
    "adaptive.adaptive_sup_test.self_s": ("adaptive.adaptive_sup_test", 2),
    "baselines.classic_procedure.s": ("baselines.classic_procedure", 1),
    "baselines.dp_bh.self_s": ("baselines.dp_bh", 2),
    "baselines.dp_bonf.self_s": ("baselines.dp_bonf", 2),
    "simulate.gen_pvalues.s": ("simulate.gen_pvalues", 1),
    "simulate.run_replications.self_s": ("simulate.run_replications", 2),
    "cli.main.self_s": ("cli.main", 2),
}


# ---------------------------------------------------------------- library-small

def _config(inp, r, **overrides):
    fields = dict(family=r.family, alpha=inputs.LIB_ALPHA,
                  budget=suptest.PrivacyBudget.approx_dp(0.5, 1e-3),
                  m_peel=inp.m_peel[r.instance], noise_kind=r.noise, seed=r.seed)
    return thresholds.TestConfig(**(fields | overrides))


def _release(inp, r):
    # looked up on the module at call time, so the recorder sees the call
    if r.kind == "sup":
        return thresholds.sup_test(inp.pvals[r.instance], _config(inp, r))
    return adaptive.adaptive_sup_test(inp.pvals[r.instance], _config(inp, r),
                                      adaptive.AdaptiveConfig())


def lib_releases(inp, tally, rec=None, expect=None):
    """The timed releases of one round, each checked against the step rule
    recomputed here and, in a traced round, against the untraced round's
    digests, expect. Returns (seconds of the releases that passed, how many
    passed, output digests)."""
    secs, passed, digests = 0.0, 0, {}
    for r in inp.releases:
        if rec is not None:
            rec.op_id += 1
        t0 = time.perf_counter()
        try:
            res = _release(inp, r)
        except Exception as e:  # counted as a failed operation; the loop goes on
            tally.op([f"{r.key}: {e!r}"])
            continue
        dt = time.perf_counter() - t0
        if r.kind == "sup":
            n_peel, pi0_inv = inp.m_peel[r.instance], 1.0
        else:
            n_peel, pi0_inv = res.adaptive_info.m_star, 1.0 / res.adaptive_info.pi0_hat
        problems = checks.check_release(res, inp.pvals[r.instance], r.family,
                                        inputs.LIB_ALPHA, n_peel, pi0_inv)
        digests[r.key] = checks.release_digest(res)
        if expect is not None and expect.get(r.key) != digests[r.key]:
            problems.append("traced output differs from untraced")
        if tally.op([f"{r.key}: {s}" for s in problems]):
            secs += dt
            passed += 1
    return secs, passed, digests


def lib_checks(inp, tally, digests):
    """The untimed releases of one round: zero-noise releases must equal the
    classic procedures, and a repeat with the same seed the first release."""
    for i in inp.zero_noise:
        p = inp.pvals[i]
        for family in inputs.LIB_FAMILIES:
            r = inputs.LibRelease(f"i{i}/zero/{family}", i, "sup", family, "gaussian", 0)
            try:
                res = thresholds.sup_test(p, _config(inp, r, m_peel=p.size,
                                                     sigma_override=(0.0, 0.0)))
            except Exception as e:
                tally.op([f"{r.key}: {e!r}"])
                continue
            problems = checks.check_release(res, p, family, inputs.LIB_ALPHA, p.size)
            if not problems and not np.array_equal(
                    res.rejected_indices, checks.classic(p, family, inputs.LIB_ALPHA)):
                problems = ["zero-noise release differs from the classic procedure"]
            tally.op([f"{r.key}: {s}" for s in problems])
    for k in inp.repeats:
        r = inp.releases[k]
        try:
            same = checks.release_digest(_release(inp, r)) == digests.get(r.key)
            tally.op([] if same else [f"{r.key}: repeat with the same seed differs"])
        except Exception as e:
            tally.op([f"{r.key} repeat: {e!r}"])


# ---------------------------------------------------------------- in-process CLI

def cli_call(argv, out_path):
    """suptest.cli.main(argv) in process: (seconds, exit code, file text, stdout)."""
    out_path.unlink(missing_ok=True)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    dt = time.perf_counter() - t0
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    return dt, code, text, buf.getvalue()


def cli_ops(workload, seed, work):
    """round number -> [(argv, output path, check, input bytes, operations)],
    the same invocations the untraced run makes as processes."""
    if workload == "cli-release":
        inp = inputs.cli_inputs(seed)
        csv = work / "input.csv"
        csv.write_text(inp.csv, encoding="utf-8")
        ops = []
        for _, method, argv, out in inputs.cli_invocations(csv, work):
            def check(text, stdout, method=method):
                return checks.check_cli_output(text, stdout, inp, method, inputs.CLI_ALPHA)
            ops.append((argv, out, check, csv.stat().st_size, 1))
        return lambda round_no: ops

    out = work / "sim.csv"

    def check(text, stdout):
        return checks.check_sim_csv(text, inputs.SIM_LABELS, inputs.SIM_REPS, inputs.SIM_ALPHA)
    return lambda round_no: [(inputs.sim_argv(seed, round_no, out), out, check, 0,
                              inputs.SIM_REPS)]


def cli_round(ops, tally, rec=None, expect=None):
    """Runs one round of in-process CLI calls and checks each output; a
    traced round also compares each with the untraced one, expect.
    Returns (seconds, outputs)."""
    secs, outs = 0.0, []
    for k, (argv, out, check, bytes_in, n) in enumerate(ops):
        if rec is not None:
            rec.op_id += 1
        dt, code, text, stdout = cli_call(argv, out)
        secs += dt
        outs.append((code, text, stdout))
        problems = [f"exit {code}"] if code else check(text, stdout)
        if expect is not None and outs[-1] != expect[k]:
            problems.append("traced output differs from untraced")
        tally.op(problems, n)
        if rec is not None:
            rec.counts["cli.bytes_in"] += bytes_in
            rec.counts["cli.bytes_out"] += len(text.encode()) + len(stdout.encode())
    return secs, outs


# ---------------------------------------------------------------- traced runs

def layer_figures(rec, lo, hi, reps):
    """(times, counts) of the traced pass of one round, spans lo..hi-1."""
    tot = rec.totals(lo, hi)
    times = {k: tot[name][col] if name in tot else 0.0 for k, (name, col) in TIMES.items()}
    times["privacy.s"] = sum(v[1] for n, v in tot.items() if n.startswith("privacy."))
    for label in inputs.SIM_LABELS:
        t = tot.get("simulate.run_method:" + label)
        times[f"simulate.method_ms.{label}"] = t[1] / reps * 1e3 if t and reps else 0.0
    counts = {k: tot[name][0] if name in tot else 0 for k, name in CALLS.items()}
    counts.update({k: rec.counts[k] for k in COUNTS})
    counts.update({k: rec.peaks[k] for k in PEAKS})
    # selection reads row 0 at the m' peeled columns only: one value per
    # reversed-peel round, out of every value the transform passed to a CDF
    cdf = rec.counts["numerics.cdf_values"]
    counts["transform.cdf_useful_ratio"] = (
        rec.counts["peeling.reversed_peel.rounds"] / cdf if cdf else 0.0)
    counts["trace.spans"] = hi - lo
    return times, counts


def traced_run(workload, seed, seconds, work, tally):
    """Rounds until `seconds` have passed, each run untraced and then traced.
    Per-layer times are medians over rounds; counts are the first round's,
    which makes the same operations on every run with this seed."""
    rec = Recorder()
    site_list = sites(suptest)
    if workload == "library-small":
        inp = inputs.lib_inputs(seed)
        reps = 0

        def run_round(round_no, traced, expect):
            secs, _, digests = lib_releases(inp, tally, rec if traced else None, expect)
            if not traced:
                lib_checks(inp, tally, digests)
            return secs, digests
    else:
        ops_for = cli_ops(workload, seed, work)
        reps = inputs.SIM_REPS if workload == "simulate-desk" else 0

        def run_round(round_no, traced, expect):
            return cli_round(ops_for(round_no), tally, rec if traced else None, expect)

    deadline = time.perf_counter() + seconds
    rounds, wall_plain, wall_traced, missing = [], 0.0, 0.0, []
    while not rounds or time.perf_counter() < deadline:
        secs, plain = run_round(len(rounds), False, None)
        wall_plain += secs
        rec.counts.clear()
        rec.peaks.clear()
        lo = rec.mark()
        missing = rec.install(site_list)
        try:
            secs, _ = run_round(len(rounds), True, plain)
        finally:
            rec.uninstall()
        wall_traced += secs
        rounds.append(layer_figures(rec, lo, rec.mark(), reps))

    layers = {k: statistics.median(t[k] for t, _ in rounds) for k in rounds[0][0]}
    layers.update(rounds[0][1])
    layers["trace.overhead_pct"] = (wall_traced - wall_plain) / wall_plain * 100.0
    layers["trace.missing_sites"] = len(missing)
    rec.write(ROOT / ".bench_work" / f"trace-{workload}-seed{seed}.jsonl")
    return {"rounds": len(rounds), "layers": layers, "missing_sites": missing,
            "wall_plain_s": wall_plain, "wall_traced_s": wall_traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    if not Path(suptest.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported suptest from {suptest.__file__}", file=sys.stderr)
        return 2

    tally = checks.Tally()
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, args.work, tally)
    elif args.workload == "library-small":
        inp = inputs.lib_inputs(args.seed)
        deadline = time.perf_counter() + args.seconds
        round_s, round_ref_s, round_passed = [], [], []
        while not round_s or time.perf_counter() < deadline:
            before = hostspeed.probe()
            secs, passed, digests = lib_releases(inp, tally)
            round_ref_s.append(hostspeed.to_reference(secs, before, hostspeed.probe()))
            round_s.append(secs)
            round_passed.append(passed)
            lib_checks(inp, tally, digests)
        result = {"round_s": round_s, "round_ref_s": round_ref_s,
                  "round_passed": round_passed}
    else:
        print("error: only library-small runs untraced in process", file=sys.stderr)
        return 2
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
