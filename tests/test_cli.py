"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iterbern
from iterbern import cli, core, iterated, szasz
from iterbern.cli import main, parse_k_list
from iterbern.iterated import INFINITY


def read_report(path):
    """Parse a grid-report CSV back into (meta, header, float rows)."""
    meta = {}
    with open(path) as fh:
        lines = fh.readlines()
    data_lines = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
        else:
            data_lines.append(line)
    reader = csv.reader(data_lines)
    header = next(reader)
    return meta, header, list(reader)


def test_parse_k_list():
    assert parse_k_list("1,2,3,inf") == [1, 2, 3, INFINITY]
    with pytest.raises(Exception):
        parse_k_list("1,zero")
    with pytest.raises(cli.UsageError, match="twice"):
        parse_k_list("1,inf,inf")


def test_approx_shape_and_roundtrip(tmp_path):
    out = tmp_path / "approx.csv"
    rc = main(
        ["approx", "--fn", "sin2pi", "--n", "30", "--k", "1,2,3,inf",
         "--grid", "1001", "--out", str(out)]
    )
    assert rc == 0
    meta, header, rows = read_report(out)
    assert len(rows) == 1001
    assert len(header) == 10
    assert meta["n"] == "30"
    # round-trip bit-exactness of the shortest-repr floats
    t_col = [float(r[0]) for r in rows]
    assert t_col == sorted(t_col) and len(set(t_col)) == 1001
    for r in rows[::100]:
        for cell in r:
            assert repr(float(cell)) == cell


def test_approx_from_linear_samples(tmp_path):
    samples = tmp_path / "lin.txt"
    n = 12
    lines = [f"{n}  # degree"] + [repr(0.5 + 2.0 * i / n) for i in range(n + 1)]
    samples.write_text("\n".join(lines) + "\n")
    out = tmp_path / "lin.csv"
    rc = main(["approx", "--samples", str(samples), "--k", "1,3,inf",
               "--grid", "101", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_report(out)
    assert header == ["t", "approx_k1", "approx_k3", "approx_kinf"]
    for r in rows:
        t = float(r[0])
        for cell in r[1:]:
            assert abs(float(cell) - (0.5 + 2.0 * t)) < 1e-11


def test_approx_nonsmooth_error_reduction(tmp_path):
    out = tmp_path / "abs.csv"
    rc = main(["approx", "--fn", "abshalf", "--n", "30", "--k", "1,3",
               "--grid", "1001", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_report(out)
    e1 = max(abs(float(r[header.index("err_k1")])) for r in rows)
    e3 = max(abs(float(r[header.index("err_k3")])) for r in rows)
    assert e3 < 0.5 * e1


def test_approx_conflicting_sources(tmp_path):
    rc = main(["approx", "--fn", "sin2pi", "--samples", "x.txt",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_approx_inf_above_cap_requires_force(tmp_path):
    out = tmp_path / "big.csv"
    rc = main(["approx", "--fn", "sin2pi", "--n", "40", "--k", "inf",
               "--grid", "11", "--out", str(out)])
    assert rc == 3


def test_approx_inf_singular_with_force(tmp_path, capsys):
    rc = main(["approx", "--fn", "sin2pi", "--n", "40", "--k", "inf", "--force",
               "--grid", "11", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("conditioning error: ") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["approx", "--help"])
    assert info.value.code == 0
    assert "--samples" in capsys.readouterr().out


def test_approx_unwritable_output():
    rc = main(["approx", "--fn", "sin2pi", "--n", "5", "--k", "1",
               "--grid", "11", "--out", "/nonexistent-dir/a.csv"])
    assert rc == 4


@pytest.mark.parametrize("table_id", [1, 2])
def test_table_golden(table_id, tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["table", str(table_id), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "OK" in printed
    _, header, rows = read_report(out)
    assert len(rows) == 9
    dev = header.index("deviation")
    assert all(float(r[dev]) <= 5e-7 for r in rows)


def test_integrate_exp(capsys):
    rc = main(["integrate", "--fn", "expx", "--a", "0", "--b", "1",
               "--n", "10", "--k", "inf"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.718282, abs=5e-7)


def test_integrate_gauss_table1(capsys):
    rc = main(["integrate", "--fn", "gauss", "--n", "5", "--k", "5"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.3413510, abs=5e-7)


def test_integrate_nonfinite_node_is_numeric_error(capsys):
    # pi * 6e307 overflows, and math.sin(inf) raises ValueError, not ArithmeticError.
    rc = main(["integrate", "--fn", "sinpi", "--a", "0", "--b", "1e308", "--k", "2"])
    assert rc == 3
    assert "function is not finite at node x=6e+307" in capsys.readouterr().err


def test_integrate_constant_shifted_interval(capsys):
    rc = main(["integrate", "--fn", "one", "--a", "2", "--b", "5",
               "--n", "4", "--k", "2"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.0, abs=1e-12)


def test_derivative_linear_constant_column(tmp_path):
    samples = tmp_path / "lin.txt"
    n = 10
    samples.write_text("\n".join([str(n)] + [repr(1.0 + 0.5 * i / n) for i in range(n + 1)]))
    out = tmp_path / "d.csv"
    rc = main(["approx", "--samples", str(samples), "--k", "1", "--grid", "3",
               "--out", str(out)])
    assert rc == 0
    out2 = tmp_path / "d2.csv"
    rc = main(["derivative", "--samples", str(samples), "--k", "1,2", "--r", "1",
               "--grid", "51", "--out", str(out2)])
    assert rc == 0
    _, header, rows = read_report(out2)
    for r in rows:
        for cell in r[1:]:
            assert abs(float(cell) - 0.5) < 1e-11


def test_derivative_abshalf_bounded(tmp_path):
    out = tmp_path / "dabs.csv"
    rc = main(["derivative", "--fn", "abshalf", "--n", "30", "--k", "1,2,3",
               "--r", "1", "--grid", "201", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_report(out)
    cols = [header.index(f"d1_k{k}") for k in (1, 2, 3)]
    for r in rows:
        for c in cols:
            assert -1.2 <= float(r[c]) <= 1.2


def test_derivative_convexity_counterexample(tmp_path):
    out = tmp_path / "d8.csv"
    rc = main(["derivative", "--fn", "example8", "--n", "30", "--k", "2",
               "--r", "2", "--grid", "201", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_report(out)
    col = header.index("d2_k2")
    window = [float(r[col]) for r in rows if 0.3 <= float(r[0]) <= 0.5]
    assert min(window) < 0.0


def test_derivative_r_above_degree(tmp_path):
    rc = main(["derivative", "--fn", "sin2pi", "--n", "3", "--k", "1", "--r", "5",
               "--grid", "11", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_szasz_grid_report(tmp_path):
    out = tmp_path / "sz.csv"
    rc = main(["szasz", "--fn", "chi4", "--n", "10", "--k", "1,2,3",
               "--grid", "101", "--out", str(out)])
    assert rc == 0
    meta, header, rows = read_report(out)
    assert len(rows) == 101
    e1 = max(abs(float(r[header.index("err_k1")])) for r in rows)
    e3 = max(abs(float(r[header.index("err_k3")])) for r in rows)
    assert e3 < e1


def test_szasz_tail_tol_near_rounding(tmp_path):
    # 1e-14 is below what 1 - (a sum near 1) resolves; tails summed from the
    # top reach it.
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "sz.csv"
    rc = main(["szasz", "--fn", "chi4", "--n", "10", "--k", "1,2", "--tail-tol", "1e-14",
               "--grid", "11", "--out", str(out)])
    assert rc == 0
    meta, _, _ = read_report(out)
    m = int(meta["M"])
    with mpmath.workdps(30):
        tail = mpmath.gammainc(m + 1, 0, 10 * 8.0, regularized=True)  # P(X > M)
    assert tail < 1e-14


@pytest.mark.parametrize("n,q", [("1100", "1.0"), ("200", "1.1")])
def test_qbernstein_overflow_is_numeric_error(n, q, tmp_path, capsys):
    # The Gaussian row [n, r]_q leaves the float range: exit 3, no NaN report.
    out = tmp_path / "q.csv"
    rc = main(["qbernstein", "--fn", "sin2pi", "--n", n, "--q", q, "--k", "1",
               "--grid", "5", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric error: ")
    assert not out.exists()


def test_szasz_constant(tmp_path):
    out = tmp_path / "szc.csv"
    rc = main(["szasz", "--fn", "one", "--n", "5", "--k", "1", "--xmax", "4",
               "--grid", "41", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_report(out)
    col = header.index("err_k1")
    assert max(abs(float(r[col])) for r in rows) < 1e-12


def test_qbernstein_report_and_nodes(tmp_path):
    out = tmp_path / "q.csv"
    rc = main(["qbernstein", "--fn", "sin2pi", "--n", "30", "--q", "1.1",
               "--k", "1,2,3", "--grid", "201", "--out", str(out)])
    assert rc == 0
    meta, header, rows = read_report(out)
    nodes = [float(v) for v in meta["nodes"].split(",")]
    assert len(nodes) == 31 and nodes[0] == 0.0 and nodes[-1] == 1.0
    # q=1.1 improves on classical over [0, 0.9] (compare against truth column)
    err1 = max(
        abs(float(r[header.index("err_k1")])) for r in rows if float(r[0]) <= 0.9
    )
    assert err1 < 0.13


def test_qbernstein_q1_matches_approx(tmp_path):
    out_q = tmp_path / "q1.csv"
    out_a = tmp_path / "a1.csv"
    assert main(["qbernstein", "--fn", "sin2pi", "--n", "12", "--q", "1",
                 "--k", "1,2", "--grid", "51", "--out", str(out_q)]) == 0
    assert main(["approx", "--fn", "sin2pi", "--n", "12", "--k", "1,2",
                 "--grid", "51", "--out", str(out_a)]) == 0
    _, hq, rq = read_report(out_q)
    _, ha, ra = read_report(out_a)
    for rowq, rowa in zip(rq, ra):
        for k in (1, 2):
            vq = float(rowq[hq.index(f"approx_k{k}")])
            va = float(rowa[ha.index(f"approx_k{k}")])
            assert abs(vq - va) < 1e-12


def test_qbernstein_tiny_q(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["qbernstein", "--fn", "sin2pi", "--n", "10", "--q", "1e-300", "--k", "1,2",
                 "--grid", "11", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    meta, header, rows = read_report(out)
    assert meta["nodes"] == ",".join(["0.0"] + ["1.0"] * 10)
    assert header == ["t", "truth", "approx_k1", "err_k1", "approx_k2", "err_k2"]
    assert np.isfinite(np.array(rows, dtype=float)).all()


def test_qbernstein_out_of_range(tmp_path):
    rc = main(["qbernstein", "--fn", "sin2pi", "--n", "5", "--q", "1.9",
               "--k", "1", "--grid", "11", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_unknown_function_is_usage_error(tmp_path):
    rc = main(["approx", "--fn", "mystery", "--k", "1", "--grid", "11",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


# The exact header and '# key=value' keys of each grid report. Downstream
# readers parse these by name, so they are a fixed schema. A meta value of
# None is computed by the run (M, the q-nodes) and only its key is fixed.
CSV_SCHEMAS = [
    (
        ["approx", "--fn", "sin2pi", "--n", "6", "--k", "1,inf", "--grid", "3"],
        ["t", "truth", "approx_k1", "err_k1", "approx_kinf", "err_kinf"],
        {"operation": "approx", "function": "sin2pi", "n": "6", "k": "1,inf"},
    ),
    (
        ["approx", "--samples", "SAMPLES", "--k", "1,2", "--grid", "3"],
        ["t", "approx_k1", "approx_k2"],
        {"operation": "approx", "function": "SAMPLES", "n": "4", "k": "1,2"},
    ),
    (
        ["derivative", "--fn", "sin2pi", "--n", "6", "--k", "1,2", "--r", "1", "--grid", "3"],
        ["t", "truth", "d1_k1", "err_k1", "d1_k2", "err_k2"],
        {"operation": "derivative", "function": "sin2pi", "n": "6", "k": "1,2", "r": "1"},
    ),
    (
        ["derivative", "--fn", "sin2pi", "--n", "6", "--k", "1,2", "--r", "2", "--grid", "3"],
        ["t", "d2_k1", "d2_k2"],
        {"operation": "derivative", "function": "sin2pi", "n": "6", "k": "1,2", "r": "2"},
    ),
    (
        ["szasz", "--fn", "chi4", "--n", "3", "--k", "1,2", "--xmax", "2", "--grid", "3"],
        ["x", "truth", "approx_k1", "err_k1", "approx_k2", "err_k2"],
        {"operation": "szasz", "function": "chi4", "n": "3", "k": "1,2",
         "x_max": "2.0", "tail_tol": "1e-12", "M": None},
    ),
    (
        ["qbernstein", "--fn", "sin2pi", "--n", "3", "--q", "0.9", "--k", "1,2", "--grid", "3"],
        ["t", "truth", "approx_k1", "err_k1", "approx_k2", "err_k2"],
        {"operation": "qbernstein", "function": "sin2pi", "n": "3", "q": "0.9", "k": "1,2",
         "nodes": None},
    ),
]


@pytest.mark.parametrize(
    "argv,header,meta", CSV_SCHEMAS,
    ids=["approx-fn", "approx-samples", "derivative-r1", "derivative-r2", "szasz", "qbernstein"],
)
def test_csv_schema(argv, header, meta, tmp_path):
    samples = tmp_path / "s.txt"
    samples.write_text("4\n0\n0.25\n0.5\n0.75\n1\n")
    argv = [str(samples) if a == "SAMPLES" else a for a in argv]
    meta = {key: str(samples) if v == "SAMPLES" else v for key, v in meta.items()}
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 0
    got_meta, got_header, rows = read_report(out)
    assert got_header == header
    assert list(got_meta) == list(meta)
    assert all(got_meta[key] == v for key, v in meta.items() if v is not None)
    assert len(rows) == 3 and all(len(row) == len(header) for row in rows)


BAD_ARGV = [
    ["approx", "--fn", "sin2pi", "--n", "0", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--grid", "0", "--out", "OUT"],
    ["approx", "--samples", "DEGREE0", "--out", "OUT"],
    ["approx", "--samples", "DEGREE1101", "--out", "OUT"],
    ["derivative", "--fn", "sin2pi", "--n", "0", "--out", "OUT"],
    ["derivative", "--fn", "sin2pi", "--r", "-1", "--out", "OUT"],
    ["integrate", "--fn", "expx", "--n", "0"],
    ["szasz", "--fn", "chi4", "--n", "0", "--out", "OUT"],
    ["szasz", "--fn", "chi4", "--xmax", "-1", "--out", "OUT"],
    ["szasz", "--fn", "chi4", "--tail-tol", "1", "--out", "OUT"],
    ["qbernstein", "--fn", "sin2pi", "--n", "0", "--out", "OUT"],
    ["qbernstein", "--fn", "sin2pi", "--q", "nan", "--out", "OUT"],
    ["szasz", "--fn", "chi4", "--xmax", "inf", "--out", "OUT"],
    ["szasz", "--fn", "chi4", "--xmax", "nan", "--out", "OUT"],
    ["szasz", "--fn", "chi4", "--n", "2000", "--k", "2", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--k", "1000001", "--out", "OUT"],
    ["integrate", "--fn", "expx", "--k", "1000001"],
    ["approx", "--fn", "sin2pi", "--k", "1,1", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--n", "1101", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--grid", "1000001", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--n", "abc", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--grid", "1e3", "--out", "OUT"],
    ["approx", "--fn", "sin2pi", "--out", "OUT", "extra"],
    ["approx", "--fn", "sin2pi"],
    ["table", "3"],
    ["szasz", "--out", "OUT"],
    ["derivative", "--fn", "sin2pi", "--k", "1,inf", "--out", "OUT"],
    ["integrate", "--fn", "expx", "--k", "1,2"],
    ["integrate", "--fn", "expx", "--a=-1e308", "--b", "1e308"],
    ["szasz", "--fn", "chi4", "--tail-tol", "1e-300", "--out", "OUT"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_value_is_usage_error(argv, tmp_path, capsys, recwarn):
    out = tmp_path / "x.csv"
    samples = tmp_path / "s.txt"
    samples.write_text("0\n1.0\n")
    above_cap = tmp_path / "big.txt"
    above_cap.write_text("1101\n" + "0.5\n" * 1102)
    files = {"OUT": str(out), "DEGREE0": str(samples), "DEGREE1101": str(above_cap)}
    rc = main([files.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not recwarn.list
    assert not out.exists()


# Token pools for the argv property: a few valid values and the malformed or
# out-of-range ones a user might type. Valid degrees and grids stay small.
INT_TOKENS = ["1", "2", "4", "0", "-1", "abc", "1e3", "nan", "inf", "1e308", "-1e308", "1000001"]
FLOAT_TOKENS = ["0", "0.5", "1", "2", "1e-9", "-1", "abc", "nan", "inf", "1e308", "-1e308"]
FLAG_TOKENS = {
    "fn": ["sin2pi", "one", "abshalf", "mystery"],
    "samples": ["s.txt", "missing.txt"],
    "n": INT_TOKENS, "grid": INT_TOKENS, "r": INT_TOKENS,
    "k": ["1", "2", "1,2", "inf", "1,inf", "1,1", "0", "abc", "nan", "1e3", ""],
    "a": FLOAT_TOKENS, "b": FLOAT_TOKENS, "xmax": FLOAT_TOKENS, "tail-tol": FLOAT_TOKENS,
    "q": FLOAT_TOKENS,
    "out": ["out.csv", "/nonexistent-dir/x.csv"],
    "force": [None],
}
COMMAND_FLAGS = {
    "approx": ["fn", "samples", "n", "k", "grid", "out", "force"],
    "derivative": ["fn", "samples", "n", "k", "grid", "out", "r"],
    "integrate": ["fn", "a", "b", "n", "k", "force"],
    "szasz": ["fn", "n", "k", "grid", "out", "xmax", "tail-tol"],
    "qbernstein": ["fn", "n", "k", "grid", "out", "q"],
    "table": ["out"],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(["1", "2", "3", "abc"])))
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), unique=True)):
        value = draw(st.sampled_from(FLAG_TOKENS[flag]))
        argv.append(f"--{flag}" if value is None else f"--{flag}={value}")
    return argv + draw(st.sampled_from([[], ["extra"], ["--bogus"]]))


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_any_argv_ends_in_an_exit_code(argv):
    # Whatever the argv, main returns a documented exit code, raises nothing
    # (no SystemExit, no warning) and explains a failure in one stderr line.
    # It runs in a fresh directory, where `table` writes its default output.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("s.txt", "w") as fh:
                fh.write("4\n0\n0.25\n0.5\n0.75\n1\n")
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main(argv)
        finally:
            os.chdir(cwd)
    assert rc in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    if rc != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["approx", "--fn", "abshalf", "--n", "12", "--k", "1,3,inf"],
    ["derivative", "--fn", "sin2pi", "--n", "9", "--k", "1,2", "--r", "2"],
    ["szasz", "--fn", "gauss", "--n", "3", "--k", "1,2", "--xmax", "2"],
    ["qbernstein", "--fn", "sin2pi", "--n", "8", "--q", "0.9", "--k", "1,2"],
], ids=lambda argv: argv[0])
def test_blocked_report_matches_pointwise(argv, tmp_path, monkeypatch):
    # More points than one block, with a partial last block.
    points = 2 * cli.GRID_BLOCK + 3
    argv = argv + ["--grid", str(points)]
    assert main(argv + ["--out", str(tmp_path / "blocked.csv")]) == 0
    monkeypatch.setattr(cli, "GRID_BLOCK", 1)
    assert main(argv + ["--out", str(tmp_path / "pointwise.csv")]) == 0
    meta, header, rows = read_report(tmp_path / "blocked.csv")
    assert (meta, header) == read_report(tmp_path / "pointwise.csv")[:2]
    got = np.array(rows, dtype=float)
    want = np.array(read_report(tmp_path / "pointwise.csv")[2], dtype=float)
    assert got.shape == (points, len(header))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


def test_derivative_report_computes_each_order_once(tmp_path, monkeypatch):
    orders = []
    iterate = iterated._iterate

    def counted(f1, build_matrix, k):
        orders.append(k)
        return iterate(f1, build_matrix, k)

    monkeypatch.setattr(iterated, "_iterate", counted)
    assert main(["derivative", "--fn", "sin2pi", "--n", "9", "--k", "1,3",
                 "--grid", str(2 * cli.GRID_BLOCK + 3), "--out", str(tmp_path / "d.csv")]) == 0
    assert orders == [1, 3]


@pytest.mark.parametrize("k", ["1", "1,2"])
def test_samples_past_float_range_are_one_numeric_error(k, tmp_path, capsys, recwarn):
    samples = tmp_path / "s.txt"
    samples.write_text("4\n1e308\n-1e308\n1e308\n-1e308\n1e308\n")
    out = tmp_path / "x.csv"
    assert main(["approx", "--samples", str(samples), "--k", k, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1
    assert not recwarn.list
    assert not out.exists()


def test_limit_past_float_range_is_one_numeric_error(tmp_path, capsys, recwarn):
    samples = tmp_path / "s.txt"
    values = [0.0] + [(-1) ** j * 1e300 for j in range(1, 30)] + [0.0]
    samples.write_text("30\n" + "".join(f"{v!r}\n" for v in values))
    out = tmp_path / "x.csv"
    assert main(["approx", "--samples", str(samples), "--k", "inf", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numeric error: overflow encountered in the k=inf solve\n"
    assert not recwarn.list
    assert not out.exists()


def test_order_one_report_builds_no_node_matrix(tmp_path, monkeypatch):
    def unbuilt(matrix):
        raise AssertionError(f"node matrix of degree {matrix.n} built")

    monkeypatch.setattr(core.BernsteinMatrix, "entries", property(unbuilt))
    assert main(["approx", "--fn", "sin2pi", "--n", "200", "--k", "1", "--grid", "11",
                 "--out", str(tmp_path / "a.csv")]) == 0


def test_order_one_report_builds_no_complement(tmp_path, monkeypatch):
    def unbuilt(matrix):
        raise AssertionError(f"complement of degree {matrix.n} built")

    monkeypatch.setattr(core.BernsteinMatrix, "complement", property(unbuilt))
    assert main(["approx", "--fn", "sin2pi", "--n", "200", "--k", "1", "--grid", "11",
                 "--out", str(tmp_path / "a.csv")]) == 0


def test_szasz_report_builds_operator_once_and_one_basis_per_block(tmp_path, monkeypatch):
    shapes = []
    vector = szasz._poisson_vector

    def counted(n, x, m):
        shapes.append(np.shape(x))
        return vector(n, x, m)

    m = szasz.SzaszContext(10).M
    monkeypatch.setattr(szasz, "_poisson_vector", counted)
    monkeypatch.setattr(szasz, "_table", np.empty((0, 0)))
    points = 2 * cli.GRID_BLOCK + 3
    assert main(["szasz", "--fn", "chi4", "--n", "10", "--k", "1,2,3", "--grid", str(points),
                 "--out", str(tmp_path / "sz.csv")]) == 0
    blocks = [(cli.GRID_BLOCK,), (cli.GRID_BLOCK,), (3,)]
    assert [s for s in shapes if s] == [(m + 1,)] + blocks


def test_derivative_of_order_n(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["derivative", "--fn", "sin2pi", "--n", "2", "--r", "2", "--k", "1",
                 "--grid", "5", "--out", str(out)]) == 0
    _, header, rows = read_report(out)
    assert header == ["t", "d2_k1"] and len({r[1] for r in rows}) == 1


def test_library_and_cli_import_without_scipy():
    # numpy is the only runtime dependency; scipy is a test extra.
    code = "import sys, iterbern, iterbern.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iterbern.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n,r", [("1100", "1100"), ("200", "150")])
def test_derivative_past_float_range_is_one_numeric_error(n, r, tmp_path, capsys, recwarn):
    out = tmp_path / "d.csv"
    assert main(["derivative", "--fn", "sin2pi", "--n", n, "--r", r, "--k", "1",
                 "--grid", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numeric error: overflow encountered in multiply\n"
    assert not recwarn.list
    assert not out.exists()
