"""Seeded inputs for the three workloads.

Everything the program receives is made here: from the workload seed, the
`id,p` CSV of `cli-release`, the `--seed` of each `suptest simulate`
process and the p-value instances of `library-small`; the release seeds
are fixed. The same workload seed gives the same inputs, byte for byte.

Null p-values are stratified: the n0 nulls are (k + U_k) / n0 for a random
permutation k of 0..n0-1 and U_k ~ U(0,1). Each is still exactly U(0,1),
but their empirical distribution barely moves from seed to seed, so the
adaptive test's null-fraction estimate, and with it m* and the size of the
largest matrix, stays nearly the same on every seed. With i.i.d. uniform
nulls m* at m = 50,000 ranges from the floor of 100 to about 1,500, which
would make `run_adaptive_s` a measure of the seed rather than of the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

WORKLOADS = ("cli-release", "simulate-desk", "library-small")

# cli-release: one CSV, four methods cycled in this order
CLI_M = 50_000
CLI_SIGNAL_SHARE = 0.01
CLI_THETA = 4.0
CLI_ALPHA = 0.1
# Every release uses this --seed. The adaptive release's private noise on
# pi0_hat, more than the data, sets m*: on these inputs seed 2 gives
# m* = 1,007 to 1,009 on workload seeds 1-30 (1,008 on most), a
# (1 + m*) x m matrix of 0.40 GB, while other release seeds give anything
# from the floor of 100 to about 1,500. A fixed seed keeps that cost nearly
# the same on every workload seed. A change to the program's random streams
# can move m* without any change in speed, so the cli-release figures are
# comparable only while m* stays within 1% of CLI_M_STAR.
CLI_RELEASE_SEED = 2
CLI_M_STAR = 1_008
CLI_METHODS = (
    ("classic", ("--method", "bh")),
    ("gauss", ("--method", "sup-bh", "--m-peel", "200")),
    ("laplace", ("--method", "sup-bh", "--noise", "laplace", "--m-peel", "200")),
    ("adaptive", ("--method", "asup-bh")),
)

# simulate-desk: each round is one `suptest simulate --preset desk` process
SIM_REPS = 8
SIM_ALPHA = 0.1  # the desk preset's alpha
SIM_LABELS = ("bh", "sup-bh", "sup-by", "sup-bonf", "sup-holm", "asup-bh",
              "dp-bh", "dp-bonf")

# library-small: (m, m_peel) grid crossed with two signal densities
LIB_SIZES = ((500, 50), (500, 100), (2000, 50), (2000, 100))
LIB_DENSITIES = (0.02, 0.1)
LIB_THETA = 3.5
LIB_ALPHA = 0.1
LIB_FAMILIES = ("bh", "by", "bonf", "holm")
LIB_NOISES = ("gaussian", "laplace")
LIB_ADAPTIVE_FAMILIES = ("bh", "bonf")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _seed_draws(rng: np.random.Generator, n: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def planted_pvalues(rng: np.random.Generator, m: int, signal_share: float,
                    theta: float) -> np.ndarray:
    """m p-values: round(signal_share * m) signals Phi(Z - theta) at random
    positions, the rest stratified uniform nulls."""
    m1 = int(round(signal_share * m))
    n0 = m - m1
    p = np.empty(m)
    signal = np.zeros(m, dtype=bool)
    signal[rng.choice(m, size=m1, replace=False)] = True
    p[signal] = ndtr(rng.standard_normal(m1) - theta)
    p[~signal] = (rng.permutation(n0) + rng.random(n0)) / n0
    return p


@dataclass(frozen=True)
class CliInputs:
    ids: list
    p_text: list      # p-values exactly as written to the CSV
    pvals: np.ndarray
    csv: str


def cli_inputs(seed: int) -> CliInputs:
    rng = _rng("cli-release", seed)
    pvals = planted_pvalues(rng, CLI_M, CLI_SIGNAL_SHARE, CLI_THETA)
    ids = [f"h{i:05d}" for i in range(CLI_M)]
    p_text = [repr(float(v)) for v in pvals]
    csv = "id,p\n" + "".join(f"{i},{t}\n" for i, t in zip(ids, p_text))
    return CliInputs(ids, p_text, pvals, csv)


def cli_invocations(csv, work) -> list:
    """(method key, --method value, arguments after `suptest`, output path)
    of each release of one round, reading csv and writing into work."""
    out = []
    for key, margs in CLI_METHODS:
        path = work / f"out-{key}.csv"
        argv = ["run", "--input", str(csv), "--output", str(path),
                "--seed", str(CLI_RELEASE_SEED), *margs]
        out.append((key, margs[1], argv, path))
    return out


def m_star_note(m_star: int):
    """A line saying that the cli-release figures are not comparable with
    the reference ones, or None while asup-bh's m* is within 1% of CLI_M_STAR."""
    if abs(m_star - CLI_M_STAR) <= CLI_M_STAR // 100:
        return None
    return (f"asup-bh picked m*={m_star}, not about the {CLI_M_STAR} the reference figures "
            "assume; cli-release figures are not comparable with them")


def sim_argv(seed: int, round_no: int, out) -> list:
    """Arguments after `suptest` of the simulate process of round round_no."""
    sim_seed = _seed_draws(_rng("simulate-desk", seed), round_no + 1)[round_no]
    return ["simulate", "--preset", "desk", "--reps", str(SIM_REPS),
            "--seed", str(sim_seed), "--output", str(out)]


@dataclass(frozen=True)
class LibRelease:
    key: str          # unique within a round, e.g. "i3/sup/by/laplace"
    instance: int
    kind: str         # "sup" or "adaptive"
    family: str
    noise: str
    seed: int


@dataclass(frozen=True)
class LibInputs:
    pvals: list       # one array per instance
    m_peel: list      # peeling number of each instance
    releases: list    # the timed releases of one round, in order
    zero_noise: list  # instances checked against the classic procedures
    repeats: list     # indices into releases re-run with the same seed


def lib_inputs(seed: int) -> LibInputs:
    rng = _rng("library-small", seed)
    pvals, m_peel = [], []
    for m, mp in LIB_SIZES:
        for density in LIB_DENSITIES:
            pvals.append(planted_pvalues(rng, m, density, LIB_THETA))
            m_peel.append(mp)
    shapes = []
    for i in range(len(pvals)):
        shapes += [(f"i{i}/sup/{family}/{noise}", i, "sup", family, noise)
                   for family in LIB_FAMILIES for noise in LIB_NOISES]
        shapes += [(f"i{i}/adaptive/{family}", i, "adaptive", family, "gaussian")
                   for family in LIB_ADAPTIVE_FAMILIES]
    # each release's seed is its place in the round, for the reason given
    # at CLI_RELEASE_SEED: the instances vary with the workload seed, the
    # private noise does not
    releases = [LibRelease(*shape, k) for k, shape in enumerate(shapes)]
    # one instance of each size m for the zero-noise reduction; one Gaussian,
    # one Laplace and one adaptive release for the same-seed repeat
    sizes = [p.size for p in pvals]
    zero_noise = sorted({sizes.index(m) for m in sizes})
    repeats = [k for k, r in enumerate(releases)
               if r.instance == len(pvals) - 1
               and (r.kind, r.family) in (("sup", "bh"), ("adaptive", "bh"))]
    return LibInputs(pvals, m_peel, releases, zero_noise, repeats)
