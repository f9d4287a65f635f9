import threading
import time

import pytest
from hypothesis import settings

from suptest.simulate import MethodSpec, SimScenario, run_replications

DESK_SEED = 11

# `pytest --hypothesis-profile=ci`, as the CI workflow runs: every run draws
# the same examples, and a failure prints the blob that replays it
# (`@reproduce_failure`), so a red CI run reproduces locally
settings.register_profile("ci", derandomize=True, print_blob=True)

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    """Collects `criterion NN: measured ...` lines for the summary block."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance measurements")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fails a test that leaves a live thread behind: run_replications runs
    serially beside other threads, so a leaked one would silently slow
    every later study in the process."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"test left live threads behind: {leaked}"


def _desk_table(methods, **overrides):
    base = dict(m=5000, m1=50, methods=methods, theta_signal=4.0,
                alpha=0.1, reps=200, seed=DESK_SEED)
    base.update(overrides)
    t0 = time.perf_counter()
    table = run_replications(SimScenario(**base))
    return table, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_main():
    """Independent/uniform desk scenario with the Gaussian-noise lineup."""
    methods = (
        MethodSpec("bh"),
        MethodSpec("sup-bh"),
        MethodSpec("sup-by"),
        MethodSpec("sup-bonf"),
        MethodSpec("sup-holm"),
        MethodSpec("asup-bh"),
    )
    return _desk_table(methods)


@pytest.fixture(scope="session")
def desk_laplace():
    """Same scenario, Laplace-noise tests and the log-scale comparators."""
    methods = (
        MethodSpec("sup-bh", label="sup-bh-lap", options={"noise": "laplace"}),
        MethodSpec("sup-bonf", label="sup-bonf-lap", options={"noise": "laplace"}),
        MethodSpec("dp-bh"),
        MethodSpec("dp-bonf"),
    )
    return _desk_table(methods)


@pytest.fixture(scope="session")
def desk_block():
    """Block-correlated statistics (block size 200, rho 0.6)."""
    methods = (
        MethodSpec("sup-bh"),
        MethodSpec("sup-by"),
        MethodSpec("sup-bonf"),
        MethodSpec("sup-holm"),
    )
    return _desk_table(methods, dependence="block", block_size=200, block_rho=0.6)


@pytest.fixture(scope="session")
def desk_dense():
    """Dense-signal desk scenario (m1 = 500) for the adaptive comparison."""
    methods = (
        MethodSpec("asup-bh"),
        MethodSpec("sup-bh", label="sup-bh-100", options={"m_peel": 100}),
    )
    return _desk_table(methods, m1=500)
