"""Span recorder that traces the program from outside.

Tracing replaces public functions of `suptest` where the calling module
looks them up (`suptest.thresholds.generate_noisy_matrix`,
`suptest.transform.std_normal_cdf`, `RandomStream.generator`, ...) with
wrappers that record one span per call: name, start, end, parent span and
operation id. Spans stay in memory until the run ends and are then written
out. Counters (CDF elements, matrix bytes, peel rounds, m*) are taken at
the same boundaries from the arguments and results of the wrapped calls.
`uninstall` puts every original back, so untraced code runs unwrapped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []          # span name per span
        self.start = []          # perf_counter_ns at entry
        self.end = []
        self.parent = []         # index of the enclosing span, or -1
        self.op = []             # operation id of the span
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.op_id = 0
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, count=None):
        """fn wrapped to record a span; name may be a function of the
        call's arguments; count(recorder, args, result) updates counters."""
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name if isinstance(name, str) else name(args))
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def install(self, sites) -> list:
        """sites: (owner, attribute, span name, counter) tuples. Returns the
        sites the program no longer has, which stay untraced."""
        missing = []
        for owner, attr, name, count in sites:
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, count))
        return missing

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def mark(self) -> int:
        return len(self.names)

    def totals(self, lo: int, hi: int) -> dict:
        """name -> [calls, seconds, self seconds] over spans lo..hi-1.
        Self time is a span's duration minus that of its direct children;
        the program is single-threaded, so children never overlap."""
        dur = [(self.end[i] - self.start[i]) * 1e-9 for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(lo, hi):
            t = out[self.names[i]]
            t[0] += 1
            t[1] += dur[i - lo]
            t[2] += dur[i - lo] - child[i - lo]
        return out

    def write(self, path):
        """One JSON line per span: name, start and end in ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.start, self.end, self.parent, self.op):
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------- counters

# layer metric -> span name whose number of calls it reports
CALLS = {
    "numerics.stream_generator.calls": "numerics.stream_generator",
    "thresholds.select_step.calls": "thresholds.select_step",
}
# counters the wrappers below keep, and the one maximum
COUNTS = ("numerics.cdf_values", "transform.matrix_bytes", "transform.noise_draws",
          "peeling.reversed_peel.rounds", "peeling.forward_peel_baseline.rounds",
          "adaptive.m_star", "cli.bytes_in", "cli.bytes_out")
PEAKS = ("transform.matrix_peak_bytes",)
# the layer metrics that must repeat exactly for a given seed
EXACT = (*CALLS, *COUNTS, *PEAKS)


def _count_cdf(rec, args, out):
    rec.counts["numerics.cdf_values"] += int(np.size(args[0]))


def _count_matrix(rec, args, out):
    rows = out.rows
    rec.counts["transform.matrix_bytes"] += rows.nbytes
    rec.peaks["transform.matrix_peak_bytes"] = max(
        rec.peaks["transform.matrix_peak_bytes"], rows.nbytes)
    noisy_rows = (out.sigma0 != 0.0) + (out.sigma1 != 0.0) * out.m_peel
    rec.counts["transform.noise_draws"] += int(noisy_rows) * out.m


def _count_reversed_peel(rec, args, out):
    rec.counts["peeling.reversed_peel.rounds"] += args[0].m_peel


def _count_forward_peel(rec, args, out):
    rec.counts["peeling.forward_peel_baseline.rounds"] += int(args[1])


def _count_adaptive(rec, args, out):
    rec.counts["adaptive.m_star"] += int(out.adaptive_info.m_star)


def sites(suptest):
    """Every call boundary the benchmark traces, keyed by the module that
    makes the call. suptest is the imported package."""
    numerics, transform = suptest.numerics, suptest.transform
    thresholds, adaptive, baselines = suptest.thresholds, suptest.adaptive, suptest.baselines
    simulate, cli = suptest.simulate, suptest.cli
    out = [
        (numerics.RandomStream, "generator", "numerics.stream_generator", None),
        (transform, "std_normal_cdf", "numerics.std_normal_cdf", _count_cdf),
        (transform, "normal_laplace_cdf", "numerics.normal_laplace_cdf", _count_cdf),
        (transform, "std_normal_quantile", "numerics.std_normal_quantile", None),
        (adaptive, "std_normal_quantile", "numerics.std_normal_quantile", None),
        (simulate, "std_normal_cdf", "numerics.std_normal_cdf", None),
        (thresholds, "generate_noisy_matrix", "transform.generate_noisy_matrix", _count_matrix),
        (adaptive, "generate_noisy_matrix", "transform.generate_noisy_matrix", _count_matrix),
        (thresholds, "reversed_peel", "peeling.reversed_peel", _count_reversed_peel),
        (baselines, "forward_peel_baseline", "peeling.forward_peel_baseline",
         _count_forward_peel),
        (thresholds, "select_step", "thresholds.select_step", None),
        (thresholds, "reject_from_matrix", "thresholds.reject_from_matrix", None),
        (adaptive, "reject_from_matrix", "thresholds.reject_from_matrix", None),
        (thresholds, "sup_test", "thresholds.sup_test", None),
        (cli, "sup_test", "thresholds.sup_test", None),
        (simulate, "sup_test", "thresholds.sup_test", None),
        (adaptive, "adaptive_sup_test", "adaptive.adaptive_sup_test", _count_adaptive),
        (cli, "adaptive_sup_test", "adaptive.adaptive_sup_test", _count_adaptive),
        (simulate, "adaptive_sup_test", "adaptive.adaptive_sup_test", _count_adaptive),
        (cli, "classic_procedure", "baselines.classic_procedure", None),
        (simulate, "classic_procedure", "baselines.classic_procedure", None),
        (cli, "dp_bh", "baselines.dp_bh", None),
        (simulate, "dp_bh", "baselines.dp_bh", None),
        (cli, "dp_bonf", "baselines.dp_bonf", None),
        (simulate, "dp_bonf", "baselines.dp_bonf", None),
        (simulate, "gen_pvalues", "simulate.gen_pvalues", None),
        (simulate, "run_method", lambda a: "simulate.run_method:" + a[0].label, None),
        (cli, "run_replications", "simulate.run_replications", None),
        (cli, "main", "cli.main", None),
    ]
    privacy_calls = {
        thresholds: ("calibrate_peeling_scales", "calibrate_laplace_scales", "experiment_mu"),
        adaptive: ("split_budget", "calibrate_peeling_scales"),
    }
    for owner, attrs in privacy_calls.items():
        out.extend((owner, attr, "privacy." + attr, None) for attr in attrs)
    return out
