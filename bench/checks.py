"""Output checks, written apart from the program.

Every check compares an output against a computation made here (the
textbook BH/BY/Bonferroni/Holm thresholds and step rules) or against a
property the method must have. None compares against a stored copy of an
earlier output. Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SIM_METRICS = ("fdr", "fwer", "power", "n_reject", "v_tau_frac")
SIM_FDR_LABELS = ("bh", "sup-bh", "sup-by", "asup-bh")
SIM_FWER_LABELS = ("sup-bonf", "sup-holm")


class Tally:
    """Operations attempted and failed, with the first problems seen. An
    operation fails on a nonzero exit, an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems, n=1) -> bool:
        """Counts n operations, all failed if problems is nonempty; returns
        whether they passed."""
        self.attempted += n
        if problems:
            self.failed += n
            self.problems.extend(problems[:2])
            del self.problems[20:]
        return not problems


def thresholds(family: str, alpha: float, m: int, n: int, pi0_inv: float = 1.0) -> np.ndarray:
    """lambda_1..lambda_n of a family indexed against m hypotheses."""
    j = np.arange(1, n + 1)
    if family == "bh":
        lam = alpha * j / m
    elif family == "by":
        lam = alpha * j / (m * np.sum(1.0 / np.arange(1, m + 1)))
    elif family == "bonf":
        lam = np.full(n, alpha / m)
    elif family == "holm":
        lam = alpha / (m + 1 - j)
    else:
        raise ValueError(f"unknown family {family!r}")
    return lam * pi0_inv


def n_selected(sorted_vals: np.ndarray, lam: np.ndarray, step_up: bool) -> int:
    """Step-up: the largest j with s_(j) <= lambda_j. Step-down: the number
    of leading s_(j) <= lambda_j before the first violation."""
    ok = sorted_vals <= lam
    if step_up:
        hits = np.flatnonzero(ok)
        return int(hits[-1] + 1) if hits.size else 0
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else int(sorted_vals.size)


def select(values: np.ndarray, family: str, alpha: float, m: int,
           pi0_inv: float = 1.0) -> np.ndarray:
    """Positions (into values) rejected by the family's step rule, sorted."""
    order = np.argsort(values, kind="stable")
    lam = thresholds(family, alpha, m, values.size, pi0_inv)
    k = n_selected(values[order], lam, step_up=family != "holm")
    return np.sort(order[:k])


def classic(pvals: np.ndarray, family: str, alpha: float) -> np.ndarray:
    """Textbook procedure on raw p-values: sorted rejected indices."""
    return select(np.asarray(pvals, dtype=float), family, alpha, len(pvals))


# ---------------------------------------------------------------- cli-release

def parse_summary(line: str) -> dict:
    """Fields of the `# key=value ...` summary line. pi0_hat is read both as
    a plain number and in the `np.float64(...)` form the CLI prints today."""
    fields = dict(tok.split("=", 1) for tok in line[2:].split())
    if "pi0_hat" in fields:
        v = fields["pi0_hat"]
        if v.startswith("np.float64(") and v.endswith(")"):
            v = v[len("np.float64("):-1]
        fields["pi0_hat"] = v
    return fields


def check_cli_output(text: str, stdout: str, inputs, method: str, alpha: float) -> list:
    """Checks one `suptest run --output FILE` release of the cli-release CSV.

    method is the --method value; inputs holds the ids, p-value strings and
    p-values written to the CSV.
    """
    lines = text.split("\n")
    m = len(inputs.ids)
    if len(lines) != m + 3 or lines[-1] != "":
        return [f"expected {m + 2} newline-terminated lines, got {len(lines) - 1}"]
    if lines[0] != "id,p,noisy_p,rejected":
        return [f"bad header {lines[0]!r}"]
    summary = lines[-2]
    if not summary.startswith("# "):
        return [f"bad summary line {summary!r}"]
    problems = []
    if stdout != summary + "\n":
        problems.append("stdout does not echo the summary line")
    try:
        fields = parse_summary(summary)
        j_star, m_peel = int(fields["j_star"]), int(fields["m_peel"])
        pi0_inv = 1.0 / float(fields["pi0_hat"]) if "pi0_hat" in fields else 1.0
    except (KeyError, ValueError) as e:
        return problems + [f"unreadable summary {summary!r}: {e}"]
    if fields.get("method") != method:
        problems.append(f"summary names method {fields.get('method')!r}")

    released, released_vals, rejected = [], [], []
    for i, line in enumerate(lines[1:m + 1]):
        parts = line.split(",")
        if len(parts) != 4:
            return problems + [f"row {i}: {len(parts)} fields"]
        rid, p, noisy, rej = parts
        if rid != inputs.ids[i] or p != inputs.p_text[i]:
            return problems + [f"row {i}: id/p {rid},{p} not the input's"]
        if rej not in ("0", "1"):
            return problems + [f"row {i}: rejected field {rej!r}"]
        if rej == "1":
            rejected.append(i)
        if noisy:
            if method == "bh" and noisy != p:
                return problems + [f"row {i}: noisy_p {noisy} does not echo p"]
            v = float(noisy)
            if not 0.0 < v < 1.0:
                return problems + [f"row {i}: noisy_p {noisy} outside (0,1)"]
            released.append(i)
            released_vals.append(v)
    released = np.asarray(released, dtype=np.intp)
    rejected = np.asarray(rejected, dtype=np.intp)

    if released.size != m_peel:
        problems.append(f"{released.size} rows released, summary says m_peel={m_peel}")
    if not np.isin(rejected, released).all():
        problems.append("a rejected row was not released")
    if rejected.size != j_star:
        problems.append(f"{rejected.size} rows rejected, summary says j_star={j_star}")
    if method == "bh":
        expect = classic(inputs.pvals, "bh", alpha)
    else:
        # a private release rejects by the step-up rule on its released values
        expect = released[select(np.asarray(released_vals), "bh", alpha, m, pi0_inv)]
    if not np.array_equal(rejected, expect):
        problems.append(f"rejected set ({rejected.size}) differs from the "
                        f"recomputed step-up ({expect.size})")
    return problems


# ---------------------------------------------------------------- simulate-desk

def check_sim_csv(text: str, labels: tuple, reps: int, alpha: float) -> list:
    """Checks the metrics CSV of one `suptest simulate` process."""
    lines = text.split("\n")
    want = len(labels) * len(SIM_METRICS)
    if len(lines) != want + 2 or lines[-1] != "" or lines[0] != "method,metric,mean,stderr,reps":
        return [f"expected a header and {want} newline-terminated rows"]
    problems, table = [], {}
    rows = (line.split(",") for line in lines[1:-1])
    expected_keys = ((lab, met) for lab in labels for met in SIM_METRICS)
    for parts, (label, metric) in zip(rows, expected_keys):
        if len(parts) != 5 or parts[0] != label or parts[1] != metric:
            return [f"row {parts} where {label},{metric} was expected"]
        mean, se = float(parts[2]), float(parts[3])
        if parts[4] != str(reps):
            problems.append(f"{label},{metric}: reps={parts[4]}, expected {reps}")
        if not (math.isfinite(se) and se >= 0.0):
            problems.append(f"{label},{metric}: stderr {se}")
        lo, hi = (0.0, math.inf) if metric == "n_reject" else (0.0, 1.0)
        if not lo <= mean <= hi:
            problems.append(f"{label},{metric}: mean {mean} outside [{lo}, {hi}]")
        table[(label, metric)] = (mean, se)
    for label, metric in ([(lab, "fdr") for lab in SIM_FDR_LABELS]
                          + [(lab, "fwer") for lab in SIM_FWER_LABELS]):
        mean, se = table[(label, metric)]
        if mean > alpha + 4.0 * se:
            problems.append(f"{label}: mean {metric} {mean} > alpha + 4 stderr")
    return problems


# ---------------------------------------------------------------- library-small

def check_release(result, pvals: np.ndarray, family: str, alpha: float,
                  n_peel: int, pi0_inv: float = 1.0) -> list:
    """Checks one in-process release (a RejectionResult) of n_peel values."""
    idx = np.asarray(result.peeled.peeled_indices)
    vals = np.asarray(result.peeled.inference_pvals)
    m = pvals.size
    problems = []
    if idx.size != n_peel or vals.size != n_peel:
        problems.append(f"{idx.size} peeled indices, expected {n_peel}")
    if np.unique(idx).size != idx.size or (idx.size and (idx.min() < 0 or idx.max() >= m)):
        problems.append("peeled indices are not distinct positions in [0, m)")
    if not ((vals > 0.0) & (vals < 1.0)).all():
        problems.append("an inference value lies outside (0,1)")
    if problems:
        return problems
    expect = np.sort(idx[select(vals, family, alpha, m, pi0_inv)])
    if result.j_star != expect.size:
        problems.append(f"j_star={result.j_star}, recomputed {expect.size}")
    if not np.array_equal(np.sort(result.rejected_indices), expect):
        problems.append("rejected set differs from the recomputed step rule")
    return problems


def release_digest(result) -> str:
    """Hash of everything a release returns, to compare two releases."""
    info = result.adaptive_info
    extra = [] if info is None else [np.array([info.pi0_hat, float(info.m_star)])]
    h = hashlib.sha256()
    for a in (result.peeled.peeled_indices, result.peeled.inference_pvals,
              result.rejected_indices, np.array([result.j_star]), *extra):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
