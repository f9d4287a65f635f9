import argparse
import gc
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from suptest.baselines import classic_procedure
from suptest import cli, simulate
from suptest.cli import main
from suptest.privacy import PrivacyBudget, calibrate_peeling_scales, experiment_mu
from suptest.simulate import METRIC_NAMES
from suptest.thresholds import TestConfig, sup_test


def _write_pvals(path, pvals, header="id,p", ids=None):
    lines = [header] if header else []
    for i, p in enumerate(pvals):
        rid = ids[i] if ids else f"h{i}"
        lines.append(f"{rid},{float(p)!r}" if header or ids else f"{float(p)!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def pfile(tmp_path):
    g = np.random.default_rng(17)
    p = g.uniform(size=80)
    p[:8] = g.uniform(size=8) * 1e-5
    path = tmp_path / "pvals.csv"
    _write_pvals(path, p)
    return path, p


def test_run_classic_matches_library(pfile, capsys):
    path, p = pfile
    assert main(["run", "--input", str(path), "--method", "bh",
                 "--alpha", "0.1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "id,p,noisy_p,rejected"
    assert out[-1].startswith("# method=bh alpha=0.1 j_star=")
    body = [row.split(",") for row in out[1:-1]]
    assert len(body) == p.size
    got = np.array([i for i, row in enumerate(body) if row[3] == "1"])
    want = classic_procedure(p, "bh", 0.1).rejected_indices
    assert np.array_equal(got, want)
    # classic rows echo the raw p-value in the noisy column
    for i, row in enumerate(body):
        assert row[0] == f"h{i}"
        assert float(row[1]) == float(p[i])
        assert float(row[2]) == float(p[i])


def test_run_headerless_single_column(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    path.write_text("0.001\n0.5\n0.9\n")
    assert main(["run", "--input", str(path), "--method", "bonf",
                 "--alpha", "0.05"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    body = [row.split(",") for row in out[1:-1]]
    # ids default to 1-based position
    assert [row[0] for row in body] == ["1", "2", "3"]
    assert [row[3] for row in body] == ["1", "0", "0"]


@pytest.mark.parametrize("text, ids", [
    ("\ufeffid,p\nh1,0.001\nh2,0.5\n", ["h1", "h2"]),
    ("\ufeffp\n0.001\n0.5\n", ["1", "2"]),
    ("\ufeff0.001\n0.5\n", ["1", "2"]),
])
def test_run_reads_byte_order_mark(tmp_path, capsys, text, ids):
    # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--input", str(path), "--method", "bh", "--alpha", "0.1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "id,p,noisy_p,rejected"
    assert out[1:-1] == [f"{ids[0]},0.001,0.001,1", f"{ids[1]},0.5,0.5,0"]


_LONG_PREFIX = b"".join(b"h%d,0.5\n" % i for i in range(1200))  # past the first 8 KiB


@pytest.mark.parametrize("data, where", [
    (b"id,p\nh1,0.5\nna\xefve,0.01\n", "line 3: byte 0xef"),
    (b"\xef\xbb\xbfid,p\r\nh1,0.5\r\n\r\nh2,0.01\xff\r\n", "line 4: byte 0xff"),
    (b"id,p\n" + _LONG_PREFIX + b"h\xe9,0.01\n", "line 1202: byte 0xe9"),
], ids=["line-3", "bom-crlf", "past-8KiB"])
def test_run_and_simulate_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, data,
                                                                     where):
    # the line as the parsers count it, not the decoder's offset in its chunk
    assert len(_LONG_PREFIX) > 8192
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    for argv in (["run", "--input", str(path), "--method", "bh"],
                 ["simulate", "--scenario", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}: {where} is not UTF-8\n"


def test_run_sup_round_trip(pfile, capsys):
    path, p = pfile
    assert main(["run", "--input", str(path), "--method", "sup-bh",
                 "--m-peel", "50", "--seed", "3"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    cfg = TestConfig(family="bh", alpha=0.1,
                     budget=PrivacyBudget.approx_dp(0.5, 1e-3),
                     gs=1e-4, m_peel=50, seed=3)
    result = sup_test(p, cfg)

    body = [row.split(",") for row in out[1:-1]]
    noisy = {i: row[2] for i, row in enumerate(body) if row[2]}
    assert set(noisy) == set(int(i) for i in result.peeled.peeled_indices)
    by_index = dict(zip(result.peeled.peeled_indices, result.peeled.inference_pvals))
    for i, field in noisy.items():
        assert field == repr(float(by_index[i]))
    got = np.array([i for i, row in enumerate(body) if row[3] == "1"])
    assert np.array_equal(got, result.rejected_indices)

    summary = out[-1]
    assert f"j_star={result.j_star}" in summary
    assert "m_peel=50" in summary
    assert "eps=0.5" in summary and "delta=0.001" in summary
    assert "seed=3" in summary


def test_run_deterministic(pfile, capsys):
    path, _ = pfile
    argv = ["run", "--input", str(path), "--method", "sup-holm", "--m-peel", "40"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_adaptive_reports_pi0(pfile, capsys):
    path, _ = pfile
    assert main(["run", "--input", str(path), "--method", "asup-bh",
                 "--m-tilde", "10"]) == 0
    summary = capsys.readouterr().out.strip().split("\n")[-1]
    assert "m_peel=" in summary
    token = [t for t in summary.split() if t.startswith("pi0_hat=")]
    assert len(token) == 1
    value = token[0][len("pi0_hat="):]
    assert "np." not in value
    assert 0.0 < float(value) <= 1.0


def test_run_dp_rows_leave_noisy_blank(pfile, capsys):
    path, p = pfile
    assert main(["run", "--input", str(path), "--method", "dp-bh",
                 "--m-peel", "30"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    body = [row.split(",") for row in out[1:-1]]
    assert all(row[2] == "" for row in body)
    assert "m_peel=30" in out[-1]


@pytest.mark.parametrize("method", ["sup-bh", "asup-bh"])
def test_run_overridden_scales_print_scales_not_a_budget(pfile, capsys, method):
    path, _ = pfile
    assert main(["run", "--input", str(path), "--method", method, "--m-peel", "40",
                 "--m-tilde", "10", "--sigma0", "0.01"]) == 0
    summary = capsys.readouterr().out.strip().split("\n")[-1].split()
    assert summary[-3:] == ["sigma0=0.01", "sigma1=0.02", "seed=0"]
    assert not [t for t in summary if t.startswith(("eps=", "delta=", "mu="))]
    assert main(["run", "--input", str(path), "--method", "sup-bh", "--m-peel", "40",
                 "--mu", "1", "--sigma1", "0.5"]) == 0
    summary = capsys.readouterr().out.strip().split("\n")[-1]
    assert summary.endswith(" m_peel=40 sigma0=0.0 sigma1=0.5 seed=0")


@pytest.mark.parametrize("flag", ["--mu", "--sigma0", "--sigma1"])
def test_run_dp_rejects_flags_it_would_ignore(pfile, tmp_path, capsys, flag):
    path, _ = pfile
    for method in ("dp-bh", "dp-bonf"):
        assert main(["run", "--input", str(path), "--method", method, flag, "0.7"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"'{flag[2:]}'" in err
    scen = tmp_path / "scen.cfg"
    scen.write_text(f"m=100\nm1=5\nreps=2\nmethods=dp-bh\ndp-bh.{flag[2:]}=0.7\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert f"'{flag[2:]}'" in capsys.readouterr().err


def test_run_output_file(pfile, tmp_path, capsys):
    path, _ = pfile
    dest = tmp_path / "out.csv"
    argv = ["run", "--input", str(path), "--method", "sup-bh",
            "--m-peel", "40", "--output", str(dest)]
    assert main(argv) == 0
    echoed = capsys.readouterr().out.strip()
    content = dest.read_text()
    assert content.startswith("id,p,noisy_p,rejected\n")
    assert content.strip().split("\n")[-1] == echoed
    assert main(argv) == 0
    capsys.readouterr()
    assert dest.read_text() == content


def test_run_unwritable_output_exits_2(pfile, tmp_path, capsys):
    path, _ = pfile
    dest = tmp_path / "missing" / "out.csv"
    assert main(["run", "--input", str(path), "--method", "bh",
                 "--output", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {dest}: No such file or directory\n"
    assert captured.out == ""


def test_run_rejects_bad_input(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    assert main(["run", "--input", str(empty), "--method", "bh"]) == 2
    assert "no p-values" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("id,p\na,0.2\nb,oops\n")
    assert main(["run", "--input", str(bad), "--method", "bh"]) == 2
    assert "line 3" in capsys.readouterr().err

    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("0.5\n1.5\n")
    assert main(["run", "--input", str(out_of_range), "--method", "bh"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "outside" in err

    # float() reads digit separators and non-ASCII digits, other CSV
    # readers do not; both parse paths refuse them and name the line
    for token in ("0.0_1", "\u0660.\u0665"):
        odd = tmp_path / "odd.csv"
        odd.write_text(f"id,p\na,0.2\nb,{token}\n", encoding="utf-8")
        assert main(["run", "--input", str(odd), "--method", "bh"]) == 2
        assert capsys.readouterr().err == f"error: line 3: cannot parse p-value {token!r}\n"

    # a row short of the id column, which comes after the p column
    short = tmp_path / "short.csv"
    short.write_text("p,id\n0.2,a\n0.5\n")
    assert main(["run", "--input", str(short), "--method", "bh"]) == 2
    assert "line 3: expected at least 2 fields" in capsys.readouterr().err

    missing = tmp_path / "nope.csv"
    assert main(["run", "--input", str(missing), "--method", "bh"]) == 2
    capsys.readouterr()

    # fewer rows than the default m_peel, which the user never set
    few = tmp_path / "few.csv"
    few.write_text("id,p\na,0.01\nb,0.2\nc,0.5\n")
    assert main(["run", "--input", str(few), "--method", "sup-bh"]) == 2
    assert capsys.readouterr().err == (
        "error: m_peel (200) cannot exceed the number of hypotheses (3)\n")

    # a non-finite option value is refused before anything is released
    three = tmp_path / "three.csv"
    three.write_text("id,p\na,0.01\nb,0.2\nc,0.9\n")
    for value in ("inf", "nan"):
        assert main(["run", "--input", str(three), "--method", "sup-bh", "--m-peel", "2",
                     "--gs", value]) == 2
        assert capsys.readouterr() == ("", f"error: option 'gs': cannot parse {value} as float\n")

    # a negative seed fails before the input is read, for every method,
    # also those that draw nothing
    for method in ("bh", "sup-bh", "asup-bh", "dp-bonf"):
        assert main(["run", "--input", str(missing), "--method", method,
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: seed must be a nonnegative integer, got -1\n"


_PAD = st.sampled_from(["", "", "", " ", "\t"])
_GOOD_P = st.one_of(st.floats(0.0, 1.0).map(repr),
                    st.sampled_from(["0.10", "1E-3", ".5", "1", "0", "-0.0", "5e-324"]))
_BAD_P = st.sampled_from(["nan", "inf", "-inf", "1.5", "-0.2", "oops", "", "0x1", "1e400", "1_0",
                          "0.0_1", "\u0660.\u0665", "\uff10.5", "5e-0_1"])
_ID = st.text(alphabet="hxP01 ", max_size=3)
# (header, its width, the p column); None for a headerless column
_HEADERS = [(None, 1, 0), (None, 2, 0), ("id,p", 2, 1), ("p,id", 2, 0), ("P", 1, 0),
            ("id,x,p", 3, 2), (" ID , P ", 2, 1), ("x,p", 2, 1)]


@st.composite
def _csv_texts(draw):
    """Text of a p-value CSV: mostly even rows of the header's width with
    valid p-values; sometimes ragged or short rows, a bad token, padding,
    blank lines, CRLF line ends or a byte-order mark."""
    header, width, p_col = draw(st.sampled_from(_HEADERS))
    lines = [header] if header else []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        n = draw(st.integers(1, 4)) if kind == 0 else width
        fields = draw(st.lists(_ID, min_size=n, max_size=n))
        if p_col < n:
            fields[p_col] = draw(_BAD_P if kind == 1 else _GOOD_P)
        lines.append(",".join(draw(_PAD) + f + draw(_PAD) for f in fields))
        if kind == 2:
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _parse_outcome(parse, text):
    try:
        ids, tokens, pvals = parse(text)
    except cli.UsageError as e:
        return str(e)
    return ids, tokens, pvals.dtype.str, pvals.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
def test_parse_matches_the_line_numbered_loop(tmp_path, text):
    # the column-wise path and the loop give the same ids, the same tokens
    # and bit-equal values, or the same error
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    read = cli._read_text(str(path))
    assert _parse_outcome(cli._parse_pvalue_csv, read) == _parse_outcome(cli._parse_rows, read)


def test_parse_reads_even_rows_by_column(monkeypatch):
    # even rows never reach the loop, which stays the path for bad lines
    def loop(text):
        raise AssertionError("the line-numbered loop ran")
    monkeypatch.setattr(cli, "_parse_rows", loop)
    ids, tokens, pvals = cli._parse_pvalue_csv("id,p\n\na, 0.10\nb,1E-3 \n  c,.5\n")
    assert ids == ["a", "b", "c"] and tokens == ["0.10", "1E-3", ".5"]
    assert pvals.tolist() == [0.1, 0.001, 0.5]
    assert cli._parse_pvalue_csv("0.25\n1\n")[0] == ["1", "2"]


def test_run_echoes_the_input_tokens(pfile, tmp_path, capsys):
    # the p column, and a classic method's noisy_p, echo each input field
    # with surrounding whitespace stripped; a private release is the same
    # as for the same values written with repr
    path, p = pfile
    rows = path.read_text().split("\n")
    odd = ["0.10", "1E-3", " 0.5 ", ".5"]
    p[:4] = [float(t) for t in odd]
    _write_pvals(path, p)
    echoed = tmp_path / "echoed.csv"
    echoed.write_text("\n".join(rows[:1] + [f"h{i}, {t}" for i, t in enumerate(odd)]
                                + rows[5:]))
    tokens = [t.strip() for t in odd] + [repr(float(v)) for v in p[4:]]

    def run(src, method, *options):
        assert main(["run", "--input", str(src), "--method", method, "--seed", "5",
                     *options]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        return [row.split(",") for row in out[1:-1]], out[-1]

    body, summary = run(echoed, "bh")
    assert [row[1] for row in body] == tokens
    assert [row[2] for row in body] == tokens
    plain, plain_summary = run(path, "bh")
    assert [row[3] for row in body] == [row[3] for row in plain]
    assert summary == plain_summary
    for method, options in (("sup-bh", ["--m-peel", "40"]), ("asup-bh", ["--m-tilde", "10"])):
        body, summary = run(echoed, method, *options)
        assert [row[1] for row in body] == tokens
        plain, plain_summary = run(path, method, *options)
        assert [row[2:] for row in body] == [row[2:] for row in plain]
        assert summary == plain_summary


def test_run_unknown_method(pfile, capsys):
    path, _ = pfile
    assert main(["run", "--input", str(path), "--method", "sup-qux"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_simulate_scenario_file(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "# small smoke scenario\n"
        "m = 300\n"
        "m1 = 15\n"
        "reps = 3\n"
        "seed = 5\n"
        "methods = bh, sup-bh\n"
        "sup-bh.m_peel = 30\n"
    )
    assert main(["simulate", "--scenario", str(scen)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "method,metric,mean,stderr,reps"
    seen = {(row.split(",")[0], row.split(",")[1]) for row in lines[1:]}
    assert seen == {(m, k) for m in ("bh", "sup-bh") for k in METRIC_NAMES}
    assert all(row.endswith(",3") for row in lines[1:])


def test_simulate_label_with_method_override(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "m=200\nm1=10\nreps=2\nmethods=fast,slow\n"
        "fast.method=bh\nslow.method=sup-bh\nslow.m_peel=20\n"
    )
    assert main(["simulate", "--scenario", str(scen)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    labels = {row.split(",")[0] for row in lines[1:]}
    assert labels == {"fast", "slow"}


def test_simulate_scenario_errors_enumerated(tmp_path, capsys, monkeypatch):
    def no_study(scenario):
        raise AssertionError("the study ran with an invalid scenario")
    monkeypatch.setattr(cli, "run_replications", no_study)
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=2\nbogus=1\nmethods=bh,a\nm=300\n"
                    "a.method=sup-bh\na.m_pel=20\na.noize=laplace\na.m_peel=20.7\n"
                    "bh.gs=abc\na.gs=inf\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert "duplicate key 'm'" in err
    assert "\n  method 'a': unknown option 'm_pel'\n" in err
    assert "\n  method 'a': unknown option 'noize'\n" in err
    assert "\n  method 'a': option 'm_peel': cannot parse '20.7' as int\n" in err
    assert "\n  method 'bh': option 'gs': cannot parse 'abc' as float\n" in err
    assert "\n  method 'a': option 'gs': cannot parse 'inf' as float\n" in err


@pytest.mark.parametrize("lines,label,key", [
    ("sup-bh.noise = foo", "sup-bh", "noise"),
    ("sup-bh.gs = -1", "sup-bh", "gs"),
    ("sup-bh.tau = 2", "sup-bh", "tau"),
    ("asup-bh.noise = laplace", "asup-bh", "noise"),
    ("sup-bh.noise = laplace\nsup-bh.mu = 1", "sup-bh", "noise"),
    ("sup-bh.m_peel = 201", "sup-bh", "m_peel"),
])
def test_simulate_refuses_bad_option_values_before_the_study(
        tmp_path, capsys, monkeypatch, lines, label, key):
    def no_study(scenario):
        raise AssertionError("the study ran with an invalid option value")
    monkeypatch.setattr(cli, "run_replications", no_study)
    scen = tmp_path / "scen.cfg"
    scen.write_text(f"m=200\nm1=10\nreps=2\nmethods=bh,sup-bh,asup-bh\n{lines}\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert f"method '{label}': " in err and key in err


def test_simulate_refuses_options_the_method_does_not_read(tmp_path, capsys, monkeypatch):
    # asup-* read m_tilde, not m_peel: the typo exits 2 instead of running
    # the default
    def no_study(scenario):
        raise AssertionError("the study ran with an option its method does not read")
    monkeypatch.setattr(cli, "run_replications", no_study)
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=2\nmethods=bh,asup-bh,lap\nasup-bh.m_peel = 7\n"
                    "lap.method=dp-bonf\nlap.m_peel=20\nbh.tau=0.3\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid scenario:\n"
        "  method 'asup-bh': option 'm_peel' is not read by asup-bh\n"
        "  method 'lap': option 'm_peel' is not read by dp-bonf\n")


def test_simulate_refuses_non_finite_theta_signal(tmp_path, capsys, monkeypatch):
    def no_study(scenario):
        raise AssertionError("the study ran with theta_signal = nan")
    monkeypatch.setattr(cli, "run_replications", no_study)
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=2\ntheta_signal=nan\nmethods=bh\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert capsys.readouterr().err == "error: invalid scenario: theta_signal must be finite\n"


def test_run_refuses_bad_option_values_before_reading_the_input(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    for flags, key in ((["--method", "sup-bh", "--tau", "2"], "tau"),
                       (["--method", "bh", "--eps", "-3"], "eps"),
                       (["--method", "sup-bh", "--gs", "-1"], "gs"),
                       (["--method", "sup-bh", "--noise", "foo"], "noise")):
        assert main(["run", "--input", str(missing)] + flags) == 2
        err = capsys.readouterr().err
        assert key in err and "cannot read" not in err


def test_simulate_rejects_bad_reps(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=0\nmethods=bh\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2


def test_simulate_rejects_negative_seed(tmp_path, capsys, monkeypatch):
    def no_study(scenario):
        raise AssertionError("the study ran with a negative seed")
    monkeypatch.setattr(cli, "run_replications", no_study)
    assert main(["simulate", "--preset", "desk", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "error: invalid scenario: seed must be a nonnegative integer, got -1\n"
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=1\nseed=-3\nmethods=bh\n")
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert "seed must be a nonnegative integer, got -3" in capsys.readouterr().err


def test_simulate_scenario_xor_preset(tmp_path, capsys):
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=1\nmethods=bh\n")
    assert main(["simulate"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scen), "--preset", "desk"]) == 2


def test_simulate_preset_with_overrides(tmp_path):
    dest = tmp_path / "metrics.csv"
    assert main(["simulate", "--preset", "desk", "--m", "400", "--m1", "4",
                 "--reps", "2", "--output", str(dest)]) == 0
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "method,metric,mean,stderr,reps"
    assert all(row.endswith(",2") for row in lines[1:])


def test_simulate_readme_desk_scenario(tmp_path, monkeypatch):
    # the README's worked example, run from the repository root as shown there
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    dest = tmp_path / "metrics.csv"
    assert main(["simulate", "--scenario", "scenarios/desk.cfg", "--m", "500", "--m1", "5",
                 "--reps", "2", "--output", str(dest)]) == 0
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "method,metric,mean,stderr,reps"
    rows = [line.split(",") for line in lines[1:]]
    labels = ("bh", "sup-bh", "sup-bh-lap", "sup-bonf", "asup-bh", "dp-bh")
    assert [(row[0], row[1]) for row in rows] == [
        (label, metric) for label in labels for metric in METRIC_NAMES]
    assert all(row[4] == "2" for row in rows)


def test_simulate_unwritable_output_exits_2_before_any_replicate(
        tmp_path, capsys, monkeypatch):
    def no_study(scenario):
        raise AssertionError("the study ran before the output path was checked")
    monkeypatch.setattr(cli, "run_replications", no_study)
    dest = tmp_path / "missing" / "x.csv"
    assert main(["simulate", "--preset", "desk", "--m", "200", "--m1", "4",
                 "--reps", "1", "--output", str(dest)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {dest}: No such file or directory\n"


def test_simulate_replicate_error_exits_2_for_any_worker_count(
        tmp_path, capsys, monkeypatch):
    # an error raised inside each replicate; forked workers inherit the patch
    def fails(pvals, config, stream):
        raise ValueError("the replicate failed")
    monkeypatch.setattr(simulate, "sup_test", fails)
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=100\nm1=5\nreps=3\nmethods=bh,sup-bh\nsup-bh.m_peel=50\n")
    outcomes = []
    for workers in (1, 2):
        monkeypatch.setattr(simulate, "_worker_count", lambda reps: workers)
        code = main(["simulate", "--scenario", str(scen)])
        outcomes.append((code,) + tuple(capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (2, "", "error: the replicate failed\n")


def test_run_option_flags_reach_the_method_spec(pfile, capsys, monkeypatch):
    # every method-option flag of `suptest run` names an option of the
    # table, and a flag reaches MethodSpec.options exactly when it is set
    path, _ = pfile
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings[0] for a in sub.choices["run"]._actions
             if a.dest not in ("help", "input", "output", "method", "alpha", "seed")}
    assert set(flags) <= set(simulate.OPTION_TYPES)
    seen = []

    def stop(spec, pvals, alpha, stream):
        seen.append(spec.options)
        raise cli.UsageError("stopped")
    monkeypatch.setattr(cli, "run_method", stop)
    for dest, flag in flags.items():
        # 3 is out of range for the options that lie in (0, 1)
        value = {"noise": "laplace", "delta": "0.3", "tau": "0.3", "c0": "0.3", "rho": "0.3",
                 "nu": "0.3"}.get(dest, "3")
        assert main(["run", "--input", str(path), "--method", "sup-bh", flag, value]) == 2
        assert seen.pop() == {dest: simulate.option_value(dest, value)}
    assert main(["run", "--input", str(path), "--method", "sup-bh"]) == 2
    assert seen == [{}]
    capsys.readouterr()
    # the frozen every-option scenario below sets every option of the table
    set_there = {line.split("=")[0].split(".")[1].strip()
                 for line in _ALL_OPTIONS_SCENARIO.splitlines() if "." in line.split("=")[0]}
    assert set_there - {"method"} == set(simulate.OPTION_TYPES)


def test_privacy_conversions(capsys):
    assert main(["privacy", "mu-to-delta", "--mu", "1", "--eps", "1"]) == 0
    assert capsys.readouterr().out.strip() == "delta=0.1269367375"
    assert main(["privacy", "eps-to-mu", "--eps", "0.5", "--delta", "0.001"]) == 0
    assert capsys.readouterr().out.strip() == "mu=0.240636512"


def test_privacy_calibrate(capsys):
    assert main(["privacy", "calibrate", "--eps", "0.5", "--delta", "0.001",
                 "--gs", "1e-4", "--m-peel", "200"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    scales = calibrate_peeling_scales(experiment_mu(0.5, 1e-3), 1e-4, 200)
    assert out[0] == f"sigma0={scales.sigma0:.10g}"
    assert out[1] == f"sigma1={scales.sigma1:.10g}"
    assert main(["privacy", "calibrate", "--gs", "1e-4"]) == 2


def test_privacy_calibrate_mu_flag(capsys):
    assert main(["privacy", "calibrate", "--mu", "1.0", "--gs", "1e-4",
                 "--m-peel", "200"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    scales = calibrate_peeling_scales(1.0, 1e-4, 200)
    assert out[0] == f"sigma0={scales.sigma0:.10g}"


@pytest.mark.parametrize("args", [
    ["calibrate", "--mu", "nan"],
    ["calibrate", "--mu", "1", "--gs", "inf"],
    ["calibrate", "--eps", "inf", "--delta", "1e-3"],
    ["eps-to-mu", "--eps", "nan", "--delta", "1e-3"],
    ["mu-to-delta", "--mu", "nan", "--eps", "1"],
])
def test_privacy_refuses_non_finite_values(args, capsys):
    assert main(["privacy", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


def test_cli_argparse_errors_exit_2(capsys):
    assert main(["simulate", "--preset", "weekend"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


# SHA-256 of `suptest run` stdout on _frozen_input(), --m-peel 40 --seed 4,
# per (method, noise), and of the `suptest simulate` CSV of _FROZEN_SCENARIO.
# Recorded before the CLI was routed through simulate.run_method; the bytes
# are promised per numpy/scipy version, so a new version may move them.
_FROZEN_RUN = {
    "bh/gaussian":
        "4db53766090abdea3169d11f0b9225d27b6f268ec1af7ce383b1651e34518b57",
    "bh/laplace":
        "4db53766090abdea3169d11f0b9225d27b6f268ec1af7ce383b1651e34518b57",
    "by/gaussian":
        "5f36b102f7811426756846d5bb6624522185fa9ba182f9127aced6cf3d4e637a",
    "by/laplace":
        "5f36b102f7811426756846d5bb6624522185fa9ba182f9127aced6cf3d4e637a",
    "bonf/gaussian":
        "8deebe5076454d9b4ffc693d0bb1a11a5e645d7bea24dfc736aa0ae56a09cf51",
    "bonf/laplace":
        "8deebe5076454d9b4ffc693d0bb1a11a5e645d7bea24dfc736aa0ae56a09cf51",
    "holm/gaussian":
        "9145a34a97ca4dfae01e921f28e02b3fe4b019e8ba2c9da69961e2eb02034ba3",
    "holm/laplace":
        "9145a34a97ca4dfae01e921f28e02b3fe4b019e8ba2c9da69961e2eb02034ba3",
    "sup-bh/gaussian":
        "81bf92f2e1fc7f17938c09ef680bb43f3d3e0cd4761b46f47e4fa4b6a57bc301",
    "sup-bh/laplace":
        "3848990aa1e8d54c7238507a88464e6d223d5e3ceaebc06148b585615b66e055",
    "sup-by/gaussian":
        "32fa8beea0dd89eb3395970e67d89075b13aec5a0770da2d59d5286efb8e0f95",
    "sup-by/laplace":
        "9d4b3df47849b32cb3d37254bae4f39daccd6fce9727ef084aa891fd5c4942cd",
    "sup-bonf/gaussian":
        "52b914e3cc34cfbbd1b1c6d00ec0bbfd81ba6652766ec96b8bd88ae2866d4425",
    "sup-bonf/laplace":
        "9158caca2eea5b4c611ccb95d9a041e40369d95f0b6d00741a3202cc34a85a86",
    "sup-holm/gaussian":
        "4a12959eb8748a80bea543ba9ad8d86f0543358ae977222ce38e2b6aeb925a04",
    "sup-holm/laplace":
        "24428cb6aa3c25c449316c40c9e0d2c74c4c8263524e8a6cde973e0f4ba1dcdc",
    "asup-bh/gaussian":
        "242c24828d9a69615493b16ac330dc212aaf9ca777373f33527ae37f53a81365",
    "asup-bh/laplace":
        "2:0d5d7210fdd2149fc7e3f4d53bdba6bfcff63f2b8c2773638db018b9e9e64ed8",
    "asup-bonf/gaussian":
        "6fece4a6e664c73f655f36a83da6d8c96a2e41751c3f79b2a1abe47e9babba7a",
    "asup-bonf/laplace":
        "2:0d5d7210fdd2149fc7e3f4d53bdba6bfcff63f2b8c2773638db018b9e9e64ed8",
    "dp-bh/gaussian":
        "90caf615a69bff0efde8ba16af7e34e86afa436e18fca7f4b4baa6bd16eb86fd",
    "dp-bh/laplace":
        "90caf615a69bff0efde8ba16af7e34e86afa436e18fca7f4b4baa6bd16eb86fd",
    "dp-bonf/gaussian":
        "a1dc99377876b9b3205d2ecc2a6da1909b0688d57b5ca65bded3488461af1221",
    "dp-bonf/laplace":
        "a1dc99377876b9b3205d2ecc2a6da1909b0688d57b5ca65bded3488461af1221",
}
_FROZEN_SIMULATE = (
    "0a9b9a504cf1309be49337ac9bf3cff75c4abdcc8f3802ccbd789ac441ea68bf")

_FROZEN_SCENARIO = (
    "m = 400\nm1 = 20\nreps = 3\nseed = 6\n"
    "methods = " + ", ".join(simulate.METHOD_NAMES) + "\n"
)

# SHA-256 of the `suptest simulate` CSV of _ALL_OPTIONS_SCENARIO, which sets
# every method option to a value off its default; dropping any one of its
# option lines (the .method line is not an option) moves the digest.
# Recorded before the option table replaced the per-method option readers,
# again when the peel rounds moved to one lazily drawn stream, and again
# when the dp-* forward peel moved onto the same lazy rounds, with the seed
# and sup-bh.m_peel chosen so that sup-bh.zeta moves the digest too.
_FROZEN_ALL_OPTIONS = (
    "631bace507fa693ed1a49fcfc311b6ff0936db31dd2584b39e492d8cdafdd9d5")

_ALL_OPTIONS_SCENARIO = """\
m = 300
m1 = 30
reps = 2
seed = 22
theta_signal = 3.0
methods = sup-bh, sup-holm, sup-bh-lap, sup-bonf, asup-bh, dp-bh, dp-bonf
sup-bh.mu = 0.8
sup-bh.gs = 0.05
sup-bh.m_peel = 50
sup-bh.zeta = 0
sup-holm.eps = 0.9
sup-holm.delta = 1e-4
sup-holm.gs = 0.05
sup-holm.m_peel = 30
sup-bh-lap.method = sup-bh
sup-bh-lap.noise = laplace
sup-bh-lap.eps = 1.5
sup-bh-lap.delta = 1e-2
sup-bh-lap.gs = 0.05
sup-bh-lap.m_peel = 25
sup-bonf.sigma0 = 0.5
sup-bonf.sigma1 = 0.1
sup-bonf.m_peel = 5
asup-bh.mu = 1.2
asup-bh.gs = 0.05
asup-bh.tau = 0.6
asup-bh.c = 0.2
asup-bh.m_tilde = 20
asup-bh.c0 = 0.4
asup-bh.rho = 0.2
dp-bh.eta = 0.05
dp-bh.nu = 1e-6
dp-bh.eps = 0.8
dp-bh.delta = 1e-4
dp-bh.m_peel = 30
dp-bonf.eta = 0.02
dp-bonf.laplace_scale = 0.5
"""


def _frozen_input(path):
    g = np.random.default_rng(2024)
    p = g.uniform(size=300)
    p[:30] = g.uniform(size=30) * 1e-5
    _write_pvals(path, p)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_run_and_simulate_bytes_frozen(tmp_path, capsys):
    src = tmp_path / "pvals.csv"
    _frozen_input(src)
    got = {}
    for name in simulate.METHOD_NAMES:
        for noise in ("gaussian", "laplace"):
            code = main(["run", "--input", str(src), "--method", name,
                         "--noise", noise, "--m-peel", "40", "--seed", "4"])
            out, err = capsys.readouterr()
            if name.startswith("asup-") and noise == "laplace":
                assert out == ""
                got[f"{name}/{noise}"] = f"{code}:{_sha(err)}"
            else:
                assert code == 0 and err == ""
                got[f"{name}/{noise}"] = _sha(out)
    scen = tmp_path / "all.cfg"
    scen.write_text(_FROZEN_SCENARIO)
    assert main(["simulate", "--scenario", str(scen)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert got == _FROZEN_RUN
    assert _sha(out) == _FROZEN_SIMULATE


def test_simulate_every_option_bytes_frozen(tmp_path, capsys):
    scen = tmp_path / "options.cfg"
    scen.write_text(_ALL_OPTIONS_SCENARIO)
    assert main(["simulate", "--scenario", str(scen)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha(out) == _FROZEN_ALL_OPTIONS


# SHA-256 of `suptest simulate --preset desk --reps 8 --seed 1002856304`, the
# packaged preset at a simulate-desk benchmark round seed where the 8-replicate
# FDR means of bh, sup-bh and asup-bh lie above alpha; a change that moves
# these bytes also changes which benchmark rounds meet its FDR check.
_FROZEN_DESK = "7a75e846ba99ab228c352ee628f9ca9249b2932c9c66419dbbf5e38265fe5e3d"


def test_simulate_desk_preset_bytes_frozen(capsys):
    assert main(["simulate", "--preset", "desk", "--reps", "8", "--seed", "1002856304"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha(out) == _FROZEN_DESK


def test_run_and_simulate_close_their_input_files(pfile, tmp_path, capsys):
    path, _ = pfile
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=200\nm1=10\nreps=1\nmethods=bh\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--input", str(path), "--method", "bh"]) == 0
        assert main(["simulate", "--scenario", str(scen)]) == 0
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
