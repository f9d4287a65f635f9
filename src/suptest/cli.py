"""Command-line front end.

Three subcommands:

    run       apply one method to a CSV of p-values
    simulate  run a scenario file or a packaged preset, emit metrics CSV
    privacy   budget conversions and noise-scale calibration

Exit codes: 0 success; 2 for a refusal of bad flags, input or options,
each a ValueError; 1 for anything else, an internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from typing import Optional, get_type_hints

import numpy as np

from .numerics import RandomStream
from .privacy import PrivacyBudget, gdp_to_approx_dp_delta
from .simulate import (
    METHODS,
    OPTION_TYPES,
    MethodSpec,
    SimScenario,
    desk_scenario,
    full_scenario,
    option_value,
    run_method,
    run_replications,
)
from .thresholds import TestConfig, budget_as_mu, resolve_scales

__all__ = ["main"]


# ---------------------------------------------------------------- run

def _columns(first: str):
    """(p_col, id_col, header) from the first non-blank line: a line with a
    `p` field (any case) is a header naming the columns; otherwise the p-values
    are the first column, with no ids."""
    cols = [f.strip().lower() for f in first.split(",")]
    if "p" not in cols:
        return 0, None, False
    return cols.index("p"), cols.index("id") if "id" in cols else None, True


def _plain(token: str) -> bool:
    """False for text float() reads but other CSV readers do not: digit
    separators (0.0_1) and non-ASCII digits."""
    return "_" not in token and token.isascii()


def _parse_rows(text: str):
    """The line-numbered loop of `_parse_pvalue_csv`: one row at a time, so
    a bad row is named by its line."""
    numbered = [(i, line.strip()) for i, line in enumerate(text.splitlines(), 1)
                if line.strip()]
    if not numbered:
        raise ValueError("no p-values in input")
    p_col, id_col, header = _columns(numbered[0][1])
    data = numbered[header:]
    if not data:
        raise ValueError("no p-values in input")

    width = max(p_col, p_col if id_col is None else id_col) + 1
    ids, tokens, pvals = [], [], []
    for ln, line in data:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < width:
            raise ValueError(f"line {ln}: expected at least {width} fields")
        try:
            if not _plain(fields[p_col]):
                raise ValueError
            p = float(fields[p_col])
        except ValueError:
            raise ValueError(f"line {ln}: cannot parse p-value {fields[p_col]!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"line {ln}: p-value {p!r} outside [0, 1]")
        pvals.append(p)
        tokens.append(fields[p_col])
        ids.append(fields[id_col] if id_col is not None else str(len(ids) + 1))
    return ids, tokens, np.asarray(pvals)


def _parse_pvalue_csv(text: str):
    """Returns (ids, tokens, pvals) from an `id,p` / `p` CSV or a headerless
    column: the ids, each p field with surrounding whitespace stripped, and
    the p-values as floats. Blank lines are skipped.

    Two paths, one result. When every data row has the same number of
    commas, enough for the p and id columns, the rows are joined and split
    once, the p column is converted with one map(float, ...) and checked
    against [0, 1] at once. Ragged or short rows, a field that is not a
    plain ASCII number (see _plain) and a value outside [0, 1] fall back to
    `_parse_rows`, the line-numbered loop, which reads them or names the
    bad line.
    """
    rows = [line for line in map(str.strip, text.splitlines()) if line]
    if rows:
        p_col, id_col, header = _columns(rows[0])
        data = rows[header:]
        commas = set(map(str.count, data, [","] * len(data)))
        step = commas.pop() + 1 if len(commas) == 1 else 0
        if step > max(p_col, id_col or 0):
            fields = ",".join(data).split(",")
            tokens = list(map(str.strip, fields[p_col::step]))
            try:
                if not _plain("".join(tokens)):
                    raise ValueError
                pvals = np.fromiter(map(float, tokens), float, len(tokens))
            except ValueError:
                return _parse_rows(text)
            # a NaN makes min and max NaN, which fails both comparisons
            if pvals.min() >= 0.0 and pvals.max() <= 1.0:
                ids = (list(map(str.strip, fields[id_col::step])) if id_col is not None
                       else [str(i) for i in range(1, len(tokens) + 1)])
                return ids, tokens, pvals
    return _parse_rows(text)


# the method options `suptest run` takes as flags (--m-peel for m_peel): all
# but zeta and laplace_scale, which scenario files set
_RUN_OPTIONS = [key for key in OPTION_TYPES if key not in ("zeta", "laplace_scale")]


def cmd_run(args) -> int:
    spec = MethodSpec(args.method, options={key: getattr(args, key) for key in _RUN_OPTIONS
                                            if getattr(args, key) is not None})
    stream = RandomStream(args.seed)
    ids, tokens, pvals = _parse_pvalue_csv(_read_text(args.input))
    release = run_method(spec, pvals, args.alpha, stream)

    # the two release columns, indexed by row; a method that releases every
    # input p-value as it is (a classic procedure) echoes the input token
    if METHODS[spec.name]["raw"]:
        noisy = tokens
    else:
        peel = release.peeled
        noisy = [""] * len(ids)
        for i, val in zip(peel.peeled_indices.tolist(), map(repr, peel.inference_pvals.tolist())):
            noisy[i] = val
    rejected = ["0"] * len(ids)
    for i in release.rejected_indices.tolist():
        rejected[i] = "1"
    lines = ["id,p,noisy_p,rejected"]
    lines.extend(map(",".join, zip(ids, tokens, noisy, rejected)))
    parts = [f"method={spec.name}", f"alpha={args.alpha!r}",
             f"j_star={release.j_star}", f"m_peel={release.m_peel}"]
    if release.adaptive_info is not None:
        parts.append(f"pi0_hat={release.adaptive_info.pi0_hat!r}")
    privacy = _privacy_parts(release)
    if privacy:
        parts.extend(privacy)
        parts.append(f"seed={args.seed}")
    summary = "# " + " ".join(parts)
    lines.append(summary)
    out = "\n".join(lines) + "\n"

    if args.output:
        with _open_output(args.output) as fh:
            fh.write(out)
        print(summary)
    else:
        sys.stdout.write(out)
    return 0


def _read_text(path: str) -> str:
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8"
    # exports start with; left in, it would hide an `id,p` header
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        # e.object is the data after the byte-order mark, so e.start is an
        # offset into it; "?": the bad byte ends no line
        line = len((e.object[:e.start].decode() + "?").splitlines())
        raise ValueError(f"cannot read {path}: line {line}: "
                         f"byte 0x{e.object[e.start]:02x} is not UTF-8")


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror}")


def _privacy_parts(release) -> list:
    """The budget the release spent; the noise scales instead where
    --sigma0/--sigma1 set them, since no budget calibrated those; nothing
    for the classic procedures."""
    budget, scales = release.budget, release.scales
    if budget is None:
        if scales is None:
            return []
        return [f"sigma0={scales.sigma0!r}", f"sigma1={scales.sigma1!r}"]
    if budget.kind == "gdp":
        return [f"mu={budget.mu!r}"]
    return [f"eps={budget.eps!r}", f"delta={budget.delta!r}"]


# ---------------------------------------------------------------- simulate

def _parse_scenario_file(text: str) -> SimScenario:
    entries, errors = {}, []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected key=value")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in entries:
            errors.append(f"line {ln}: duplicate key {key!r}")
        entries[key] = val

    labels = []
    if "methods" not in entries:
        errors.append("missing required key 'methods'")
    else:
        labels = [s.strip() for s in entries.pop("methods").split(",") if s.strip()]
        if not labels:
            errors.append("'methods' lists no methods")

    scalar_types = get_type_hints(SimScenario)
    kwargs = {}
    names = {label: label for label in labels}
    options = {label: {} for label in labels}
    for key, val in entries.items():
        if "." in key:
            label, _, opt = key.partition(".")
            if label not in options:
                errors.append(f"option {key!r} references unlisted method {label!r}")
            elif opt == "method":
                names[label] = val
            else:
                try:
                    options[label][opt] = option_value(opt, val)
                except ValueError as e:
                    errors.append(f"method {label!r}: {e}")
        elif key in scalar_types:
            try:
                kwargs[key] = scalar_types[key](val)
            except ValueError:
                errors.append(f"key {key!r}: cannot parse value {val!r}")
        else:
            errors.append(f"unknown key {key!r}")

    # unlike `suptest run` flags, a file sets options per method: refuse unread ones
    specs = []
    for label in labels:
        try:
            spec = MethodSpec(name=names[label], label=label, options=options[label])
        except ValueError as e:
            errors.append(f"method {label!r}: {e}")
            continue
        errors.extend(f"method {label!r}: option {opt!r} is not read by {spec.name}"
                      for opt in spec.options if opt not in METHODS[spec.name]["reads"])
        specs.append(spec)

    if errors:
        raise ValueError("invalid scenario:\n  " + "\n  ".join(errors))
    try:
        return SimScenario(methods=tuple(specs), **kwargs)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid scenario: {e}")


def cmd_simulate(args) -> int:
    if bool(args.scenario) == bool(args.preset):
        raise ValueError("provide exactly one of --scenario or --preset")
    if args.scenario:
        scenario = _parse_scenario_file(_read_text(args.scenario))
    else:
        scenario = desk_scenario() if args.preset == "desk" else full_scenario()
    overrides = {k: getattr(args, k) for k in ("m", "m1", "reps", "seed")
                 if getattr(args, k) is not None}
    try:
        scenario = dataclasses.replace(scenario, **overrides)
    except ValueError as e:
        raise ValueError(f"invalid scenario: {e}")
    # opened before the study runs, so a bad path fails at once
    with _open_output(args.output) if args.output else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(run_replications(scenario).to_csv())
    return 0


# ---------------------------------------------------------------- privacy

def cmd_privacy(args) -> int:
    if args.op == "mu-to-delta":
        print(f"delta={gdp_to_approx_dp_delta(args.mu, args.eps):.10g}")
    elif args.op == "eps-to-mu":
        print(f"mu={budget_as_mu(PrivacyBudget.approx_dp(args.eps, args.delta)):.10g}")
    else:  # calibrate
        if args.mu is not None:
            budget = PrivacyBudget.gdp(args.mu)
        elif args.eps is not None and args.delta is not None:
            budget = PrivacyBudget.approx_dp(args.eps, args.delta)
        else:
            raise ValueError("calibrate needs --mu, or --eps with --delta")
        config = TestConfig("bh", budget=budget, gs=args.gs, m_peel=args.m_peel)
        scales = resolve_scales(config, args.m_peel)
        print(f"sigma0={scales.sigma0:.10g}")
        print(f"sigma1={scales.sigma1:.10g}")
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suptest",
        description="Differentially private multiple testing with "
                    "super-uniform noisy p-values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one method on a CSV of p-values")
    run.add_argument("--input", required=True)
    run.add_argument("--output", default=None)
    run.add_argument("--method", required=True)
    run.add_argument("--alpha", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=0)
    for key in _RUN_OPTIONS:
        run.add_argument("--" + key.replace("_", "-"), type=OPTION_TYPES[key])
    run.set_defaults(func=cmd_run)

    sim = sub.add_parser("simulate", help="run a simulation scenario")
    sim.add_argument("--scenario", default=None)
    sim.add_argument("--preset", choices=("desk", "full"), default=None)
    sim.add_argument("--output", default=None)
    for key in ("m", "m1", "reps", "seed"):
        sim.add_argument("--" + key, type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    priv = sub.add_parser("privacy", help="budget conversions and calibration")
    pop = priv.add_subparsers(dest="op", required=True)
    p1 = pop.add_parser("mu-to-delta")
    p1.add_argument("--mu", type=float, required=True)
    p1.add_argument("--eps", type=float, required=True)
    p2 = pop.add_parser("eps-to-mu")
    p2.add_argument("--eps", type=float, required=True)
    p2.add_argument("--delta", type=float, required=True)
    p3 = pop.add_parser("calibrate")
    p3.add_argument("--mu", type=float, default=None)
    p3.add_argument("--eps", type=float, default=None)
    p3.add_argument("--delta", type=float, default=None)
    p3.add_argument("--gs", type=float, default=TestConfig.gs)
    p3.add_argument("--m-peel", dest="m_peel", type=int, default=TestConfig.m_peel)
    for p in (p1, p2, p3):
        p.set_defaults(func=cmd_privacy)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return 1
