import ast
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf
from test_golden import one_blas_thread

import tfloc
from tfloc import cli, operators
from tfloc.algebra import Partition, partition_gammas
from tfloc.atoms import Fibers, make_atom
from tfloc.cli import main
from tfloc.fields import random_bandlimited
from tfloc.grids import LineGrid, SampledFunction, action_of
from tfloc.io import read_signal_csv, sidecar_path, write_signal_csv
from tfloc.kernels import gamma
from tfloc.symbols import RANGE_EXPONENT, Symbol1D, SymbolSpec, parse_symbol


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def signal_csv(tmp_path):
    path = str(tmp_path / "sig.csv")
    f = random_bandlimited(LineGrid.centered(8.0, 1024), seed=11)
    write_signal_csv(path, f)
    return path


# -- io ---------------------------------------------------------------------------

def test_signal_csv_roundtrip(tmp_path):
    path = str(tmp_path / "f.csv")
    grid = LineGrid(-2.0, 0.125, 48)
    rng = np.random.default_rng(0)
    f = SampledFunction(grid, rng.standard_normal(48) + 1j * rng.standard_normal(48))
    write_signal_csv(path, f)
    g = read_signal_csv(path)
    assert (g.grid.start, g.grid.step, g.grid.count) == (-2.0, 0.125, 48)
    assert np.max(np.abs(g.values - f.values)) == 0.0  # %.17g is lossless


def test_read_signal_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_signal_csv(str(path))


def test_read_signal_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0,1,0\n1,1,0\n3,1,0\n")
    with pytest.raises(ValueError, match="uniform"):
        read_signal_csv(str(path))


def test_read_signal_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x,re,im\n0,1,0\n0.5,1\n1,1,0\n")
    with pytest.raises(ValueError, match=r"short\.csv: line 3"):
        read_signal_csv(str(path))
    out = tmp_path / "o.csv"
    assert run("filter", "--symbol", "const:1", "--input", str(path),
               "--out", str(out)) == 2
    assert not out.exists()


def test_read_signal_rejects_header_past_csv_limit(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("x" * 140_000 + ",re,im\n0,1,0\n1,1,0\n")
    with pytest.raises(ValueError, match=r"wide\.csv: line 1: field larger"):
        read_signal_csv(str(path))


def test_read_signal_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x,re,im\n\n0,1,0\n\n0.5,2,0\n1,3,1\n\n")
    f = read_signal_csv(str(path))
    assert (f.grid.start, f.grid.step, f.grid.count) == (0.0, 0.5, 3)
    assert f.values.tolist() == [1, 2, 3 + 1j]


@pytest.mark.parametrize("field", ["abc", "nan", "1e400", "9" * 140_000],
                         ids=["text", "nan", "overflow", "over-csv-limit"])
@pytest.mark.parametrize("route", ["input", "symbol"])
def test_cmd_bad_csv_field_names_file_and_line(tmp_path, capsys, field, route):
    # a non-numeric or non-finite field, or one past the csv module's field
    # size limit, exits 2 naming the file and the line, read as a signal
    # (filter --input) or as a symbol (--symbol sampled:)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x,re,im\n0,1,0\n0.5,{field},0\n1,1,0\n")
    good = tmp_path / "good.csv"
    write_signal_csv(str(good), random_bandlimited(LineGrid.centered(8.0, 64),
                                                   seed=1))
    signal, symbol = ((bad, "const:1") if route == "input"
                      else (good, f"sampled:{bad}"))
    out = tmp_path / "o.csv"
    assert run("filter", "--symbol", symbol, "--input", str(signal),
               "--out", str(out)) == 2
    assert "bad.csv: line 3: " in capsys.readouterr().err
    assert not out.exists()


# -- gamma command -------------------------------------------------------------------

def test_cmd_gamma_erf_value(tmp_path):
    out = str(tmp_path / "g.csv")
    assert run("gamma", "--case", "gabor", "--atom", "gaussian",
               "--symbol", "indicator:-1,1", "--out", out) == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "xi,re,im"
    row0 = [ln for ln in lines[1:] if float(ln.split(",")[0]) == 0.0][0]
    val = float(row0.split(",")[1])
    assert abs(val - erf(math.sqrt(2 * math.pi))) <= 1e-6
    assert os.path.exists(sidecar_path(out))


def test_cmd_gamma_const_one(tmp_path):
    out = str(tmp_path / "g.csv")
    assert run("gamma", "--case", "gabor", "--symbol", "const:1",
               "--out", out) == 0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.max(np.abs(vals[:, 1] - 1.0)) <= 1e-6


def test_cmd_gamma_malformed_symbol_no_partial_file(tmp_path):
    out = str(tmp_path / "g.csv")
    code = run("gamma", "--case", "gabor", "--symbol", "indicator:2,1",
               "--out", out)
    assert code != 0
    assert not os.path.exists(out)
    assert not os.path.exists(sidecar_path(out))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("atom", ["gaussian", "rect", "shannon", "haar"])
@pytest.mark.parametrize("window", [("--n", "64"), ("--n", "512"),
                                    ("--xi-min", "-7.97")],
                         ids=["default-64", "default-512", "off-lattice"])
def test_gamma_fft_rule_is_the_grid_rule(tmp_path, atom, window):
    # fft is a second name for the grid rule: on the default windows and
    # on [-7.97, xi_max) in 256 steps, off the 1/16 translation lattice,
    # gamma(rule="fft") and --rule fft give the grid rule's bytes, and the
    # sidecar records the rule asked for
    case = "gabor" if atom in ("gaussian", "rect") else "wavelet"
    symbol = "indicator:-1,1" if case == "gabor" else "indicator:1,2"
    outputs = {}
    for rule in ("grid", "fft"):
        out = str(tmp_path / f"{rule}.csv")
        assert run("gamma", "--case", case, "--atom", atom, "--symbol",
                   symbol, "--rule", rule, *window, "--out", out) == 0
        meta = json.loads(open(sidecar_path(out)).read())
        assert meta.pop("rule") == rule
        outputs[rule] = open(out, "rb").read(), meta
    assert outputs["fft"] == outputs["grid"]

    n = int(window[1]) if window[0] == "--n" else 256
    grid = operators.default_operator_grid(case, n)
    if window[0] == "--xi-min":
        grid = LineGrid(-7.97, (grid.stop + 7.97) / n, n)
    a = make_atom(case, atom)
    for sym in (parse_symbol(symbol), Symbol1D.constant(0.5 + 0.25j)):
        got, ref = (gamma(a, sym, grid, rule=rule) for rule in ("fft", "grid"))
        assert got.rule == "fft"
        assert got.values.tobytes() == ref.values.tobytes(), sym.descriptor


def test_cmd_gamma_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run("gamma", "--case", "wavelet", "--symbol", "power:-1",
                   "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert (open(sidecar_path(a), "rb").read()
            == open(sidecar_path(b), "rb").read())


def test_python_m_tfloc_exits_with_the_code_of_main(tmp_path, monkeypatch,
                                                   capsys):
    # ``python -m tfloc`` runs tfloc/__main__.py, which exits with main's
    # code and writes main's bytes
    argv = ["gamma", "--symbol", "const:1", "--n", "16", "--out"]
    via_m, direct = str(tmp_path / "m.csv"), str(tmp_path / "d.csv")
    for args, code in (([*argv, via_m], 0),
                       (["gamma", "--symbol", "nosuch:1", "--out", direct], 2)):
        monkeypatch.setattr(sys, "argv", ["tfloc", *args])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("tfloc", run_name="__main__")
        assert exc.value.code == code
    assert "tfloc gamma: error:" in capsys.readouterr().err
    assert not os.path.exists(direct)
    assert run(*argv, direct) == 0
    for suffix in ("", ".meta.json"):
        assert (open(via_m + suffix, "rb").read()
                == open(direct + suffix, "rb").read())


def test_in_process_commands_write_the_bytes_of_fresh_processes(tmp_path):
    # the catalog's atoms are shared within a process: gamma (reading the
    # gaussian's profile table), verify cto2 (building its fiber records)
    # and gamma again write, in one process, the bytes a new
    # ``python -m tfloc`` process writes for each; every warning is an
    # error on both sides, from import on in the fresh processes
    commands = [["gamma", "--symbol", "indicator:-1,1", "--rule", "adaptive",
                 "--n", "64", "--out", "g.csv"],
                ["verify", "cto2", "--n", "64", "--out", "v.json"]]
    commands.append(commands[0])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(tfloc.__file__)))
    for i, argv in enumerate(commands):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        here.mkdir()
        fresh.mkdir()
        with (pytest.MonkeyPatch.context() as mp, one_blas_thread(),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            mp.chdir(here)
            assert run(*argv) == 0
        subprocess.run([sys.executable, "-W", "error", "-m", "tfloc", *argv],
                       cwd=fresh, env=env, check=True)
        names = sorted(os.listdir(here))
        assert names and names == sorted(os.listdir(fresh))
        for name in names:
            assert ((here / name).read_bytes()
                    == (fresh / name).read_bytes()), (argv[0], name)


def test_cmd_gamma_sidecar_abserr(tmp_path):
    for cmd in ("gamma", "spectrum"):
        metas = {}
        for rule in ("adaptive", "adaptive", "grid"):
            out = str(tmp_path / f"{cmd}-{rule}.csv")
            assert run(cmd, "--symbol", "indicator:-1,1", "--rule", rule,
                       "--n", "64", "--out", out) == 0
            text = open(sidecar_path(out), "rb").read()
            assert metas.setdefault(rule, text) == text  # repeats identical
        adaptive = json.loads(metas["adaptive"])
        assert 0.0 < adaptive["quadrature_abserr_max"] <= 1e-10
        assert "quadrature_abserr_max" not in json.loads(metas["grid"])


def test_cmd_gamma_unlisted_jumps_exit_2(tmp_path, monkeypatch, capsys,
                                        square_wave):
    monkeypatch.setattr(cli, "parse_symbol", lambda text: square_wave)
    out = tmp_path / "g.csv"
    assert run("gamma", "--symbol", "square", "--n", "32",
               "--out", str(out)) == 2
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("gamma", "--rule", "grid", "--n", "64"),
                                  ("gamma", "--rule", "fft", "--n", "64"),
                                  ("kernel", "--n", "64"),
                                  ("filter", "--input", None)],
                         ids=["gamma-grid", "gamma-fft", "kernel", "filter"])
def test_cmd_symbol_not_finite_on_the_grid_exits_2(tmp_path, capsys,
                                                   signal_csv, argv):
    # u^-1 is infinite at the translation node 0, u^0.5 is nan at the
    # negative nodes and u^400 and u^-400 overflow: with every warning an
    # error, numpy's power warns of none, and the one message is the symbol's
    argv = [signal_csv if a is None else a for a in argv]
    out = tmp_path / "o.csv"
    for symbol in ("power:-1", "power:0.5", "power:400", "power:-400"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--symbol", symbol, "--out", str(out)) == 2
        assert capsys.readouterr().err.endswith(
            f"error: symbol {symbol} is not finite on the grid\n")
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("gamma", "--symbol", "const:1", "--xi-min", "2", "--xi-max", "1"),
     "need xi-min < xi-max, got [2.0, 1.0]"),
    (("algebra", "--cuts=abc"), "malformed --cuts 'abc'"),
    (("gamma", "--symbol", "const:inf", "--rule", "adaptive"),
     "symbol const:inf is not finite"),
], ids=["xi-window", "cuts", "infinite-integrand"])
def test_cmd_bad_values_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "o.csv"
    assert run(*argv, "--n", "16", "--out", str(out)) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert os.listdir(tmp_path) == []


def _wide_gaussian_csv(path: str):
    # width 2000: the spectrum lies within 1/2000 of zero, below the lowest
    # frequency, 2^-8, that the default scales reach
    grid = LineGrid(-8192.0, 64.0, 256)
    write_signal_csv(path, SampledFunction(
        grid, np.exp(-np.pi * (grid.samples / 2000.0) ** 2)))


@pytest.mark.parametrize("argv, message", [
    (("gamma", "--case", "wavelet", "--atom", "nosuch",
      "--symbol", "indicator:1,2"),
     "error: unknown wavelet 'nosuch'; catalog: ('shannon', 'haar')"),
    (("gamma", "--case", "gabor", "--atom", "nosuch",
      "--symbol", "indicator:-1,1"),
     "error: unknown window 'nosuch'; catalog: ('gaussian', 'rect')"),
    (("filter", "--symbol", "const:1", "--input", "{one}"),
     "error: {one}: need at least 2 samples"),
    (("filter", "--case", "wavelet", "--symbol", "indicator:1,2",
      "--input", "{wide}"),
     "the signal lies outside the atom's first-coordinate range, "
     "scales [0.00390625, 256]"),
], ids=["wavelet-atom", "window-atom", "one-sample-signal",
        "signal-below-the-scales"])
def test_cmd_input_checks_exit_2(tmp_path, capsys, argv, message):
    inputs = tmp_path / "in"
    inputs.mkdir()
    paths = {"one": str(inputs / "one.csv"), "wide": str(inputs / "wide.csv")}
    (inputs / "one.csv").write_text("x,re,im\n0,1,0\n")
    _wide_gaussian_csv(paths["wide"])
    assert run(*(a.format(**paths) for a in argv),
               "--out", str(tmp_path / "o.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tfloc {argv[0]}: error: ")
    assert err.endswith(message.format(**paths) + "\n")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["in"]



# the top of the supported range, the next float, and the error above it
TOP = 2.0 ** RANGE_EXPONENT
OVER = float(np.nextafter(TOP, math.inf))
RANGE_ERROR = "exceeds the supported range: a value above 2^256 (1.15792e+77)\n"


def _rejects(capsys, out, *argv):
    """``argv`` exits 2 with the range error and writes nothing, warnings
    raised."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out", str(out)) == 2, argv
    err = capsys.readouterr().err
    assert err.endswith(RANGE_ERROR) and "Traceback" not in err, err
    assert not os.path.exists(out)
    assert not os.path.exists(sidecar_path(str(out)))


def _all_finite(doc) -> bool:
    """Whether every number in a parsed JSON document is finite."""
    if isinstance(doc, dict):
        return all(_all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def _csv_rows(path):
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def _complex_values(path) -> np.ndarray:
    """The complex values of a ``gamma``, ``kernel`` or ``spectrum`` CSV:
    its last two columns, re and im, in row order."""
    return np.array([complex(float(r[-2]), float(r[-1]))
                     for r in _csv_rows(path)])


@pytest.mark.parametrize("argv", [("gamma", "--rule", "grid"),
                                  ("gamma", "--rule", "adaptive"),
                                  ("gamma", "--rule", "fft"),
                                  ("spectrum", "--with-eigs", "--rule", "grid"),
                                  ("spectrum", "--with-eigs",
                                   "--rule", "adaptive"),
                                  ("gamma", "--case", "wavelet",
                                   "--rule", "grid"),
                                  ("spectrum", "--case", "wavelet",
                                   "--with-eigs", "--rule", "grid"),
                                  ("gamma", "--case", "wavelet", "--atom",
                                   "shannon", "--rule", "adaptive"),
                                  ("gamma", "--case", "wavelet", "--atom",
                                   "haar", "--rule", "adaptive"),
                                  ("gamma", "--atom", "rect",
                                   "--rule", "adaptive"),
                                  ("spectrum", "--case", "wavelet",
                                   "--rule", "adaptive", "--with-eigs"),
                                  ("kernel", "--case", "wavelet")],
                         ids=["gamma-grid", "gamma-adaptive", "gamma-fft",
                              "spectrum-eigs-grid", "spectrum-eigs-adaptive",
                              "wavelet-gamma-grid",
                              "wavelet-spectrum-eigs-grid",
                              "shannon-gamma-adaptive", "haar-gamma-adaptive",
                              "rect-gamma-adaptive",
                              "wavelet-spectrum-eigs-adaptive",
                              "wavelet-kernel"])
def test_cmd_symbol_at_the_largest_float(tmp_path, capsys, argv):
    # const:1e308, const:1e307 and one float above 2^256 exit 2 naming the
    # bound, with no warning and no output; const:2^256, the top of the
    # supported range, runs every route with no warning, and its outputs
    # are 2^256 times const:1's
    for c in (1e308, 1e307, OVER):
        _rejects(capsys, tmp_path / "o.csv", *argv, "--symbol",
                 f"const:{c!r}", "--n", "64")
    outs = {}
    for c in (1.0, TOP):
        out = str(tmp_path / f"o-{c}.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--symbol", f"const:{c!r}", "--n", "64",
                       "--out", out) == 0
        values = _complex_values(out)
        assert np.all(np.isfinite(values))
        assert _all_finite(json.loads(open(sidecar_path(out)).read()))
        outs[c] = values
    one = outs[1.0]
    assert np.max(np.abs(outs[TOP] / TOP - one)) <= 1e-6 * np.max(np.abs(one))


@pytest.mark.parametrize("symbol", ["const:1e13", f"const:{TOP!r}"])
def test_cmd_bounded_symbol_over_the_overflow_guard(tmp_path, symbol):
    # ||H_a|| <= sup|a|: a |gamma| over the guard (1e12) marks only a symbol
    # with no sup bound unbounded
    s, g = str(tmp_path / "s.csv"), str(tmp_path / "g.csv")
    assert run("spectrum", "--symbol", symbol, "--rule", "grid", "--n", "64",
               "--out", s) == 0
    verdict = json.loads(open(sidecar_path(s)).read())["verdict"]
    assert verdict.startswith("bounded on sampled range")
    assert run("gamma", "--symbol", symbol, "--rule", "grid", "--n", "64",
               "--out", g) == 0
    assert json.loads(open(sidecar_path(g)).read())["unbounded"] is False


def test_main_builds_its_parser_once(tmp_path):
    # one parser serves every call of a process: commands parse as with a
    # fresh parser, write the same bytes when repeated, and a bad argument
    # still exits 2 without disturbing the next call
    assert cli._parser() is cli._parser()
    argvs = [["gamma", "--symbol", "indicator:-1,1", "--n", "32"],
             ["kernel", "--case", "wavelet", "--n", "32"]]
    for argv in argvs:
        assert vars(cli._parser().parse_args(argv + ["--out", "x"])) == \
            vars(cli.build_parser().parse_args(argv + ["--out", "x"]))
    first = []
    for i, argv in enumerate(argvs):
        out = tmp_path / f"first-{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        first.append(out.read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--rule", "simpson", "--symbol", "const:1",
              "--out", str(tmp_path / "bad.csv")])
    assert exc.value.code == 2
    for i, argv in enumerate(argvs):
        out = tmp_path / f"again-{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == first[i]

# -- verify command ------------------------------------------------------------------

def test_cmd_verify_cto1(tmp_path):
    out = str(tmp_path / "v.json")
    assert run("verify", "cto1", "--n", "256", "--seed", "7",
               "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["pass"] and rep["norm_discrepancy"] <= 1e-3
    assert rep["seed"] == 7


def test_cmd_verify_cto2_and_cto3_small(tmp_path):
    for suite, case in [("cto2", "wavelet"), ("cto3", "gabor")]:
        out = str(tmp_path / f"{suite}.json")
        assert run("verify", suite, "--case", case, "--n", "128",
                   "--seed", "3", "--out", out) == 0
        rep = json.loads(open(out).read())
        assert rep["pass"] and rep["norm_discrepancy"] <= 5e-3


def test_cmd_verify_transforms(tmp_path):
    out = str(tmp_path / "t.json")
    assert run("verify", "transforms", "--n", "1024", "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["pass"] and rep["isometry_error_max"] <= 2e-3
    # the round trip runs on an operator window of at most 256 points
    assert rep["N"] == 1024 and rep["roundtrip_N"] == 256


def test_cmd_verify_algebra_runs_at_n(tmp_path):
    out = str(tmp_path / "a.json")
    assert run("verify", "algebra", "--case", "wavelet", "--n", "288",
               "--out", out) == 0
    assert json.loads(open(out).read())["N"] == 288


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
@pytest.mark.parametrize("n, seed", [(64, 0), (128, 7)])
def test_cmd_verify_algebra_tau_isometry_is_the_dense_sum(tmp_path, case, n,
                                                          seed):
    # the suite combines the diagonal pieces on their diagonal entries, the
    # value here bit for bit; the dense Lanczos norms of the n x n
    # combinations agree to rounding
    out = str(tmp_path / "a.json")
    assert run("verify", "algebra", "--case", case, "--n", str(n),
               "--seed", str(seed), "--out", out) == 0
    atom = make_atom(case, action_of(case).default_atom)
    grid = operators.default_operator_grid(case, n)
    part = Partition(atom, action_of(case).default_cuts)
    cloud = partition_gammas(atom, part, grid)
    pieces = [operators.build_direct(atom, SymbolSpec.first_variable(ind),
                                     grid)
              for ind in part.indicator_symbols()]
    assert all(M.is_diagonal for M in pieces)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(part.m) + 1j * rng.standard_normal(part.m)
        sup = np.max(np.abs(cloud.points @ coeffs))
        d = sum(c * M.diagonal for c, M in zip(coeffs, pieces))
        nm = operators.operator_norm(d)
        dense = operators.operator_norm(np.diag(d))
        assert abs(dense - nm) <= 1e-13 * nm
        worst = max(worst, abs(sup - nm) / nm)
    rep = json.loads(open(out).read())
    assert rep["tau_isometry_rel_max"] == worst


def test_cmd_verify_exit_code_contract(tmp_path):
    # report always written; exit code mirrors the pass flag
    out = str(tmp_path / "v.json")
    code = run("verify", "cto1", "--n", "64", "--seed", "1", "--out", out)
    rep = json.loads(open(out).read())
    assert (code == 0) == rep["pass"]


def _plain(doc) -> bool:
    """Whether doc is made of Python bool, int, float, str and None, in
    lists and str-keyed dicts: no numpy value, not even a float64."""
    if type(doc) is dict:
        return all(type(k) is str and _plain(v) for k, v in doc.items())
    if type(doc) is list:
        return all(_plain(v) for v in doc)
    return type(doc) in (bool, int, float, str, type(None))


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_verify_reports_hold_python_values_only(tmp_path, monkeypatch, case):
    # the JSON writer converts nothing, so each report is JSON-ready as made
    action, cto1 = action_of(case), cli.VERIFY_SUITES["cto1"]
    rep = operators.verify_equivalence(
        make_atom(case, action.default_atom), cto1.symbols[action],
        operators.default_operator_grid(case, 64), cto1.tol)
    assert _plain(rep)
    handed = []
    monkeypatch.setattr(cli.tio, "write_json",
                        lambda path, doc: handed.append(doc))
    for suite in ("cto1", "cto2", "cto3", "transforms", "algebra"):
        assert run("verify", suite, "--case", case, "--n", "64",
                   "--out", str(tmp_path / "v.json")) == 0
    assert len(handed) == 5
    assert all(_plain(doc) for doc in handed)


@pytest.mark.parametrize("suite", ["cto1", "cto2", "cto3", "algebra"])
@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_cmd_verify_builds_one_fiber_matrix(tmp_path, fiber_builds, suite,
                                           case):
    # the direct route, the overlap kernels and the grid-rule gamma read one
    # fiber record of the job's atom
    assert run("verify", suite, "--case", case, "--n", "64",
               "--out", str(tmp_path / "v.json")) == 0
    assert fiber_builds == [64]


_TOL_ENTRIES = [(suite, key) for suite, entry in cli.VERIFY_SUITES.items()
                for key in (entry.tol if isinstance(entry.tol, dict)
                            else [None])]


@pytest.mark.parametrize("suite,key", _TOL_ENTRIES)
@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_cmd_verify_every_tolerance_reaches_its_pass_test(
        tmp_path, monkeypatch, suite, key, case):
    # every check measures a nonnegative value (the algebra commutator an
    # exact 0), so a negative tolerance fails unless its check was left out
    # of the pass test
    entry = cli.VERIFY_SUITES[suite]
    if key is None:
        monkeypatch.setitem(cli.VERIFY_SUITES, suite, entry._replace(tol=-1.0))
    else:
        monkeypatch.setitem(entry.tol, key, -1.0)
    out = str(tmp_path / "v.json")
    assert run("verify", suite, "--case", case, "--n", "64",
               "--out", out) == 1
    rep = json.loads(open(out).read())
    assert rep["pass"] is False
    assert rep["tolerance" if key is None else "tolerances"] == \
        cli.VERIFY_SUITES[suite].tol


def test_no_scope_compares_a_suite_name(scopes_where):
    # a verify suite is one entry of cli.VERIFY_SUITES: its cap, its
    # measurement, its tolerances and its symbols are read from the entry,
    # so no scope of the package compares a value with a suite's name
    def names_a_suite(side):
        items = side.elts if isinstance(side, (ast.Tuple, ast.List,
                                               ast.Set)) else [side]
        return any(isinstance(n, ast.Constant) and n.value in cli.VERIFY_SUITES
                   for n in items)

    def compares_a_suite(node):
        return isinstance(node, ast.Compare) and any(
            names_a_suite(side) for side in (node.left, *node.comparators))

    assert scopes_where(compares_a_suite) == []


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_first_variable_commands_need_no_solver(tmp_path, monkeypatch, case):
    # first-variable direct matrices, their differences, commutators and
    # linear combinations are exactly diagonal on the default windows, and
    # diagonals are read off
    def fail(*args, **kwargs):
        raise AssertionError("a dense solver was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(operators, "_lanczos_norm", fail)
    out = str(tmp_path / "v.json")
    for n in ("256", "512"):
        assert run("verify", "cto1", "--case", case, "--n", n,
                   "--out", out) == 0
        assert json.loads(open(out).read())["norm_discrepancy"] <= 1e-15
    for n in ("64", "128"):
        assert run("verify", "algebra", "--case", case, "--n", n,
                   "--out", out) == 0
        assert json.loads(open(out).read())["commutator_rel_max"] == 0.0
    symbol = "indicator:-1,1" if case == "gabor" else "indicator:1,2"
    assert run("spectrum", "--case", case, "--symbol", symbol, "--rule",
               "grid", "--with-eigs", "--out", str(tmp_path / "s.csv")) == 0


# -- filter command ------------------------------------------------------------------

def test_cmd_filter_identity_compare(tmp_path, signal_csv):
    out = str(tmp_path / "out.csv")
    assert run("filter", "--case", "gabor", "--symbol", "const:1",
               "--input", signal_csv, "--out", out, "--compare") == 0
    meta = json.loads(open(sidecar_path(out)).read())
    assert meta["relative_deviation"] <= 2e-3
    f = read_signal_csv(signal_csv)
    g = read_signal_csv(out)
    rel = np.linalg.norm(g.values - f.values) / np.linalg.norm(f.values)
    assert rel <= 2e-3


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_cmd_filter_slow_near_the_largest_float(tmp_path, capsys, signal_csv,
                                              case):
    # const:2^256 runs slow and --compare with no warning, and the slow
    # output is 2^256 times const:1's; one float above 2^256, and 1e307,
    # exit 2 on both
    outs = {}
    for c in (1.0, TOP):
        for method in (("--method", "slow"), ("--compare",)):
            out = str(tmp_path / f"{c}{method[0]}.csv")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run("filter", "--case", case, *method, "--symbol",
                           f"const:{c!r}", "--input", signal_csv,
                           "--out", out) == 0
            if method[0] == "--compare":
                meta = json.loads(open(sidecar_path(out)).read())
                assert meta["relative_deviation"] <= 1e-9
            else:
                outs[c] = read_signal_csv(out).values
    one = outs[1.0]
    assert np.max(np.abs(outs[TOP] / TOP - one)) <= 1e-12 * np.max(np.abs(one))
    for method in (("--method", "slow"), ("--compare",)):
        for c in (OVER, 1e307):
            _rejects(capsys, tmp_path / "over.csv", "filter", "--case", case,
                     *method, "--symbol", f"const:{c!r}", "--input",
                     signal_csv)


def test_cmd_filter_fast_at_the_largest_float(tmp_path, capsys):
    # constants from one float above 2^256 to near the largest float exit 2
    # with the range error in both cases; const:2^256 runs with no warning
    # (64 samples of exp(-pi x^2 / 4) on [-8, 8))
    x = (np.arange(64) - 32) / 4
    path = str(tmp_path / "sig.csv")
    write_signal_csv(path, SampledFunction(LineGrid.centered(8.0, 64),
                                           np.exp(-np.pi * x ** 2 / 4)))
    for case in ("gabor", "wavelet"):
        out = str(tmp_path / f"{case}.csv")
        for c in (OVER, 1e307, 1e308, 1.7e308):
            _rejects(capsys, out, "filter", "--case", case, "--method",
                     "fast", "--symbol", f"const:{c!r}", "--input", path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("filter", "--case", case, "--method", "fast",
                       "--symbol", f"const:{TOP!r}", "--input", path,
                       "--out", out) == 0, case


def test_cmd_filter_chirp_band_contracts_energy(tmp_path):
    # chirp through the scale band: output energy strictly below input
    grid = LineGrid.centered(8.0, 1024)
    xs = grid.samples
    chirp = np.exp(2j * np.pi * (0.5 * xs + 0.08 * xs ** 2)) \
        * np.exp(-(xs / 5.0) ** 2)
    path = str(tmp_path / "chirp.csv")
    write_signal_csv(path, SampledFunction(grid, chirp))
    out = str(tmp_path / "f.csv")
    assert run("filter", "--case", "wavelet", "--atom", "shannon",
               "--symbol", "indicator:1,2", "--input", path,
               "--out", out) == 0
    fin = read_signal_csv(path)
    fout = read_signal_csv(out)
    assert fout.norm() < fin.norm()


def test_cmd_filter_gabor_compare_signal_starting_at_zero(tmp_path):
    # a signal grid that is not centered: the slow path must come back on
    # the signal's own grid, where the fast path lives
    grid = LineGrid(0.0, 1.0 / 32.0, 1024)
    xs = grid.samples
    tone = np.exp(-np.pi * ((xs - 6.0) / 2.0) ** 2) * np.exp(3j * np.pi * xs)
    path = str(tmp_path / "sig0.csv")
    write_signal_csv(path, SampledFunction(grid, tone))
    out = str(tmp_path / "out.csv")
    assert run("filter", "--case", "gabor", "--symbol", "indicator:0,12",
               "--input", path, "--out", out, "--compare") == 0
    meta = json.loads(open(sidecar_path(out)).read())
    assert meta["relative_deviation"] <= 1e-9
    slow = read_signal_csv(f"{out}.slow.csv")
    assert (slow.grid.start, slow.grid.step, slow.grid.count) == (
        grid.start, grid.step, grid.count)
    # the symbol covers the tone: the filter keeps almost all of it
    rel = np.linalg.norm(slow.values - tone) / np.linalg.norm(tone)
    assert rel <= 1e-3


def test_cmd_filter_writes_fiber_coverage(tmp_path, signal_csv):
    for case in ("gabor", "wavelet"):
        out = str(tmp_path / f"{case}.csv")
        assert run("filter", "--case", case, "--symbol", "const:1",
                   "--input", signal_csv, "--out", out) == 0
        meta = json.loads(open(sidecar_path(out)).read())
        assert 0.999 <= meta["fiber_coverage"] <= 1.0 + 1e-9


def test_cmd_filter_transforms_and_covers_the_signal_once(tmp_path,
                                                         monkeypatch):
    # the fast path transforms the signal to its omega side and back, and
    # the sidecar's coverage is the one that filter_signal checks
    calls = {"fourier": 0, "coverage": 0}
    fourier, coverage = sys.modules["tfloc.fourier"].fourier, Fibers.coverage

    def counted_fourier(*args, **kwargs):
        calls["fourier"] += 1
        return fourier(*args, **kwargs)

    def counted_coverage(self, h):
        calls["coverage"] += 1
        return coverage(self, h)

    for name, module in list(sys.modules.items()):
        if name.startswith("tfloc") and getattr(module, "fourier", None) is fourier:
            monkeypatch.setattr(module, "fourier", counted_fourier)
    monkeypatch.setattr(Fibers, "coverage", counted_coverage)
    path = str(tmp_path / "sig.csv")
    write_signal_csv(path, random_bandlimited(LineGrid.centered(8.0, 512), 5))
    out = str(tmp_path / "out.csv")
    calls.update(fourier=0, coverage=0)
    assert run("filter", "--case", "wavelet", "--symbol", "indicator:1,2",
               "--input", path, "--out", out) == 0
    assert calls == {"fourier": 2, "coverage": 1}
    assert json.loads(open(sidecar_path(out)).read())["fiber_coverage"] > 0.99


def test_cmd_filter_signal_off_translation_grid_exits_2(tmp_path, capsys):
    # a bump at x = 24 on [0, 32) lies outside the window's translations
    grid = LineGrid(0.0, 32.0 / 1024, 1024)
    path = str(tmp_path / "bump.csv")
    write_signal_csv(path, SampledFunction(
        grid, np.exp(-np.pi * (grid.samples - 24.0) ** 2)))
    out = str(tmp_path / "o.csv")
    for flag in (["--method", "fast"], ["--method", "slow"], ["--compare"]):
        assert run("filter", "--case", "gabor", "--symbol", "const:1",
                   "--input", path, "--out", out, *flag) == 2
        err = capsys.readouterr().err
        assert "fiber coverage" in err and "translations [-16, 16)" in err
        assert not os.path.exists(out)


def test_cmd_filter_coverage_ignores_the_signal_scale(tmp_path, capsys):
    # a two-sample wavelet signal below the coverage gate stays below it at
    # 1e-200, where the squares of its samples underflow
    for scale in (1.0, 1e-200):
        path = str(tmp_path / "two.csv")
        write_signal_csv(path, SampledFunction(
            LineGrid(0.0, 1.0, 2), scale * np.array([1.0, 2.0])))
        capsys.readouterr()
        assert run("filter", "--case", "wavelet", "--symbol", "indicator:1,2",
                   "--input", path, "--out", str(tmp_path / "o.csv")) == 2
        assert "fiber coverage 0.1 " in capsys.readouterr().err


def test_cmd_filter_at_2_to_930_writes_a_finite_coverage(tmp_path, capsys):
    # 64 samples of exp(-pi x^2 / 4) on [-8, 8), peak 1, times 2^930, or 2^256
    # with the peak one float above, and a 256-sample signal at 2^1021 (its
    # f_hat overflowed) exit 2; times 2^256, or 2^-700, where the squares of
    # the fiber coverage would underflow unscaled, it runs with no warning,
    # and the sidecar is JSON with no NaN
    x = (np.arange(64) - 32) / 4
    top = np.ldexp(np.exp(-np.pi * x ** 2 / 4), RANGE_EXPONENT)
    big = random_bandlimited(LineGrid.centered(8.0, 256), 3)
    paths = [str(tmp_path / f"{i}.csv") for i in range(5)]
    for path, vals in zip(paths, (top, np.ldexp(top, -956),
                                  np.ldexp(top, 674),
                                  np.where(x == 0, OVER, top),
                                  big.values * 2.0 ** 1021)):
        write_signal_csv(path, SampledFunction(
            big.grid if vals.size == 256 else LineGrid.centered(8.0, 64), vals))

    def no_constant(name):
        raise ValueError(f"{name} in the sidecar")

    for case, symbol in (("gabor", "indicator:-1,1"),
                         ("wavelet", "indicator:1,2")):
        for method in (("--method", "fast"), ("--method", "slow"),
                       ("--compare",)):
            out = str(tmp_path / f"{case}{method[-1]}.csv")
            for path in paths[2:]:
                _rejects(capsys, out, "filter", "--case", case, *method,
                         "--symbol", symbol, "--input", path)
            for path in paths[:2]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert run("filter", "--case", case, *method, "--symbol",
                               symbol, "--input", path, "--out", out) == 0
                with open(sidecar_path(out)) as fh:
                    meta = json.load(fh, parse_constant=no_constant)
                assert 0.5 <= meta["fiber_coverage"] <= 1.0, path


def test_cmd_filter_missing_input(tmp_path):
    code = run("filter", "--case", "gabor", "--symbol", "const:1",
               "--input", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "o.csv"))
    assert code != 0
    assert not os.path.exists(tmp_path / "o.csv")


# -- other commands ------------------------------------------------------------------

def test_cmd_spectrum_indicator(tmp_path):
    out = str(tmp_path / "s.csv")
    assert run("spectrum", "--case", "gabor", "--symbol", "indicator:-1,1",
               "--out", out) == 0
    meta = json.loads(open(sidecar_path(out)).read())
    assert -1e-10 <= meta["interval"][0] and meta["interval"][1] <= 1 + 1e-10
    assert meta["verdict"].startswith("bounded")


def test_cmd_spectrum_with_eigs(tmp_path):
    out = str(tmp_path / "s.csv")
    assert run("spectrum", "--case", "gabor", "--symbol", "const:0.5",
               "--n", "128", "--with-eigs", "--out", out) == 0
    meta = json.loads(open(sidecar_path(out)).read())
    assert meta["hausdorff_eigs_vs_gamma"] <= 1e-6
    assert abs(meta["operator_norm"] - 0.5) <= 1e-6


def test_cmd_spectrum_hausdorff_is_that_of_its_rows(tmp_path):
    # the sidecar's distance is hausdorff_distance of the CSV's eig and
    # gamma rows; the adaptive gamma differs from the eigenvalues by O(step),
    # and the grid gamma is their spectrum, on odd n and off-centre windows
    # too, where the direct matrix is dense and gathered from its lag tables
    out = str(tmp_path / "s.csv")
    for n, argv in ((64, ("--symbol", "indicator:-1,1")),
                    (63, ("--case", "wavelet", "--symbol", "indicator:1,2",
                          "--rule", "grid", "--xi-min", "0.3",
                          "--xi-max", "3.7")),
                    (65, ("--symbol", "indicator:-1,1", "--rule", "grid",
                          "--xi-min", "-3", "--xi-max", "5"))):
        assert run("spectrum", *argv, "--n", str(n), "--with-eigs",
                   "--out", out) == 0
        meta = json.loads(open(sidecar_path(out)).read())
        with open(out) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        values = {kind: np.array([complex(float(re), float(im))
                                  for k, re, im in rows if k == kind])
                  for kind in ("gamma", "eig")}
        assert values["gamma"].size == values["eig"].size == n
        hd = operators.hausdorff_distance(values["eig"], values["gamma"])
        assert meta["hausdorff_eigs_vs_gamma"] == hd
        assert hd <= 1e-12 if "grid" in argv else hd > 0, (argv, hd)


def test_cmd_spectrum_complex_hausdorff_holds_no_table(tmp_path):
    # a complex first-variable symbol: both spectra are the diagonal, and
    # the distance takes the n x n table a block of 64 rows at a time.
    # Warm, the command peaked at 6.17 MiB with the whole table (two 4 MiB
    # arrays at n = 512) and at 1.18 MiB with its blocks, measured
    argv = ["spectrum", "--with-eigs", "--rule", "grid", "--symbol",
            "const:1+1j", "--n", "512", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_cmd_spectrum_with_eigs_builds_two_fiber_matrices(tmp_path,
                                                         fiber_builds):
    # under the grid rule the direct matrix shares the first gamma's record;
    # only the wide-grid gamma needs another
    assert run("spectrum", "--symbol", "indicator:-1,1", "--rule", "grid",
               "--n", "64", "--with-eigs",
               "--out", str(tmp_path / "s.csv")) == 0
    assert fiber_builds == [64, 64]


def test_cmd_reports_lowrank_margin(tmp_path):
    # an indicator symbol is first-variable: rank 1, tail at rounding level
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        assert run("spectrum", "--case", "gabor", "--symbol", "indicator:-1,1",
                   "--n", "64", "--rule", "grid", "--with-eigs",
                   "--out", str(d / "s.csv")) == 0
        assert run("verify", "cto1", "--case", "wavelet", "--n", "64",
                   "--out", str(d / "v.json")) == 0
        for report in (sidecar_path(str(d / "s.csv")), str(d / "v.json")):
            rep = json.loads(open(report).read())
            assert rep["lowrank_rank"] == 1
            assert 0.0 <= rep["lowrank_tail"] <= 1e-13
    for name in ("s.csv", sidecar_path("s.csv"), "v.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cmd_reports_gram_rows(tmp_path):
    # the most first-coordinate rows a Gram product of the direct route ran
    # over: the 32 of 512 scales in the octave [1, 2], the 33 translations
    # in [-1, 1], all 512 for a second-variable symbol on the gaussian window
    s, v = str(tmp_path / "s.csv"), str(tmp_path / "v.json")
    assert run("spectrum", "--case", "wavelet", "--symbol", "indicator:1,2",
               "--n", "64", "--rule", "grid", "--with-eigs", "--out", s) == 0
    assert json.loads(open(sidecar_path(s)).read())["gram_rows"] == 32
    for suite, rows in (("cto1", 33), ("cto2", 512)):
        assert run("verify", suite, "--n", "64", "--out", v) == 0
        assert json.loads(open(v).read())["gram_rows"] == rows


def test_cmd_kernel_diagonal(tmp_path):
    out = str(tmp_path / "k.csv")
    assert run("kernel", "--case", "gabor", "--n", "64", "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    diag = rows[np.isclose(rows[:, 0], rows[:, 1])]
    assert np.max(np.abs(diag[:, 2] - 1.0)) <= 1e-6


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("case,atom", [("gabor", "gaussian"), ("gabor", "rect"),
                                       ("wavelet", "shannon"),
                                       ("wavelet", "haar")])
def test_cmd_kernel_meets_its_stated_diagonal_tolerance(tmp_path, case, atom,
                                                         n):
    out = str(tmp_path / "k.csv")
    assert run("kernel", "--case", case, "--atom", atom, "--n", str(n),
               "--out", out) == 0
    tol = json.loads(open(sidecar_path(out)).read())["tolerances"]
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    diag = rows[::n + 1]
    lo, hi = make_atom(case, atom).healthy_range
    healthy = (diag[:, 0] >= lo) & (diag[:, 0] <= hi)
    assert healthy.sum() >= n // 2
    dev = np.max(np.abs(diag[healthy, 2] + 1j * diag[healthy, 3] - 1.0))
    assert dev <= tol["diag_unit_healthy"]
    # a symbol-weighted diagonal is the grid-rule gamma: no unit target
    assert run("kernel", "--case", case, "--atom", atom, "--n", "64",
               "--symbol", "const:0.5", "--out", out) == 0
    tol = json.loads(open(sidecar_path(out)).read())["tolerances"]
    assert "diag_unit_healthy" not in tol


@pytest.mark.parametrize("symbol", [None, "indicator:1,2", "const:1+1j"])
def test_cmd_kernel_meets_its_stated_hermitian_tolerance(tmp_path, symbol):
    # a complex symbol's kernel, (1+i) times a Hermitian one for const:1+1j,
    # is not Hermitian, so its output states no hermitian tolerance
    out = str(tmp_path / "k.csv")
    argv = ["kernel", "--n", "64", "--out", out]
    assert run(*argv, *(["--symbol", symbol] if symbol else [])) == 0
    tol = json.loads(open(sidecar_path(out)).read())["tolerances"]
    # the CSV lists the 64 x 64 kernel row by row
    K = _complex_values(out).reshape(64, 64)
    dev = float(np.max(np.abs(K - K.conj().T)))
    if symbol == "const:1+1j":
        assert "hermitian" not in tol and dev >= 1.0
    else:
        assert dev <= tol["hermitian"]


def test_cmd_algebra_split_cloud(tmp_path):
    out = str(tmp_path / "c.csv")
    assert run("algebra", "--case", "gabor", "--cuts", "0",
               "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    sums = rows[:, 1] + rows[:, 2]
    assert np.max(np.abs(sums - 1.0)) <= 1e-6
    e = erf(math.sqrt(2 * math.pi) * rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - 0.5 * (1 - e))) <= 1e-6


@pytest.mark.parametrize("case,cut", [("gabor", "0"), ("wavelet", "1")])
def test_cmd_algebra_default_cuts_follow_case(tmp_path, case, cut):
    # the wavelet first coordinate is a scale range, which excludes 0
    default, given = str(tmp_path / "d.csv"), str(tmp_path / "g.csv")
    assert run("algebra", "--case", case, "--n", "64", "--out", default) == 0
    assert run("algebra", "--case", case, "--n", "64", "--cuts", cut,
               "--out", given) == 0
    for suffix in ("", ".meta.json"):
        assert open(default + suffix).read() == open(given + suffix).read()


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_simplex_sum_deviation_is_the_clouds(tmp_path, case):
    # the algebra sidecar and the verify algebra report both state the
    # deviation that the cloud computed
    atom = make_atom(case, action_of(case).default_atom)
    cloud = partition_gammas(atom, Partition(atom, atom.action.default_cuts),
                             operators.default_operator_grid(case, 64))
    dev = cloud.simplex_sum_deviation
    assert dev == float(np.max(np.abs(cloud.points.sum(axis=1) - 1.0)))
    out, report = str(tmp_path / "c.csv"), str(tmp_path / "v.json")
    assert run("algebra", "--case", case, "--n", "64", "--out", out) == 0
    assert run("verify", "algebra", "--case", case, "--n", "64",
               "--out", report) == 0
    assert json.loads(open(sidecar_path(out)).read())[
        "simplex_sum_deviation"] == dev
    assert json.loads(open(report).read())["simplex_sum_deviation"] == dev


def test_simplex_deviation_over_tolerance_fails_verify(tmp_path, capsys):
    # haar's fiber norms fall short of 1 at the window's edge: the verify
    # suite reports the deviation against its tolerance and fails (exit 1),
    # while the algebra command refuses to write the cloud (exit 2)
    report = str(tmp_path / "v.json")
    assert run("verify", "algebra", "--case", "wavelet", "--atom", "haar",
               "--n", "64", "--out", report) == 1
    d = json.loads(open(report).read())
    assert d["pass"] is False
    assert abs(d["simplex_sum_deviation"] - 4.34e-4) <= 5e-7
    assert d["tolerances"]["simplex"] == \
        cli.VERIFY_SUITES["algebra"].tol["simplex"]
    capsys.readouterr()
    out = str(tmp_path / "c.csv")
    assert run("algebra", "--case", "wavelet", "--atom", "haar",
               "--n", "64", "--out", out) == 2
    assert ("simplex sums deviate from 1 by 4.34e-04"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_cmd_n_cap(tmp_path, capsys):
    # gamma and spectrum without eigenvalues build no n x n matrix: they take
    # any size without --allow-large
    assert run("gamma", "--case", "gabor", "--symbol", "const:1",
               "--n", "1024", "--out", str(tmp_path / "g.csv")) == 0
    assert run("spectrum", "--symbol", "const:1", "--rule", "grid",
               "--n", "1024", "--out", str(tmp_path / "s.csv")) == 0
    # the commands that build dense operators hold the only size cap
    capsys.readouterr()
    for argv in (["spectrum", "--symbol", "const:1", "--with-eigs"],
                 ["verify", "cto1"], ["verify", "algebra"]):
        out = tmp_path / "big.out"
        assert run(*argv, "--n", "1024", "--out", str(out)) == 2
        assert "--allow-large" in capsys.readouterr().err
        assert not out.exists()


def test_cmd_verify_transforms_caps_n_before_allocating(tmp_path, capsys,
                                                       monkeypatch):
    # each analysis field holds K x n complex values, K = 512: the cap keeps
    # it at 256 MiB.  n = 10^8 (763 GiB a field) exits 2 with the cap's
    # message and allocates nothing first
    assert make_atom("gabor", "gaussian").g1.count == 512
    assert cli.MAX_FIELD_N * 512 * 16 == 256 * 2 ** 20
    out = tmp_path / "t.json"
    tracemalloc.start()
    try:
        code = run("verify", "transforms", "--case", "gabor",
                   "--n", "100000000", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert (f"n=100000000 exceeds the cap {cli.MAX_FIELD_N}; pass "
            "--allow-large to override") in capsys.readouterr().err
    assert peak < 2 ** 20, f"peak {peak} B"
    assert not out.exists()
    # --allow-large lifts the cap, shown on a lowered one so that no size
    # over the real cap runs
    monkeypatch.setitem(cli.VERIFY_SUITES, "transforms",
                        cli.VERIFY_SUITES["transforms"]._replace(cap=64))
    assert run("verify", "transforms", "--n", "128", "--out", str(out)) == 2
    assert "n=128 exceeds the cap 64" in capsys.readouterr().err
    assert run("verify", "transforms", "--n", "128", "--allow-large",
               "--out", str(out)) == 0


@pytest.mark.parametrize("argv", [["gamma", "--symbol", "const:1"],
                                  ["algebra"]])
def test_cmd_allow_large_only_on_dense_commands(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--allow-large", "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-large" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_verify_rejects_ignored_options(tmp_path, capsys):
    for extra in (["--format", "csv"], ["--xi-min", "0"], ["--xi-max", "1"]):
        with pytest.raises(SystemExit) as exc:
            run("verify", "cto1", *extra, "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gamma", "--symbol", "const:1"],
                                  ["spectrum", "--symbol", "const:1"],
                                  ["kernel"], ["algebra"]])
def test_cmd_seed_only_on_verify(tmp_path, capsys, argv):
    # only the verify suites draw random test vectors
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--n", "64", "--seed", "3", "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--n", "64", "--out", str(out)) == 0
    assert "seed" not in json.loads(open(sidecar_path(str(out))).read())


@pytest.mark.parametrize("argv", [["gamma", "--symbol", "const:1"],
                                  ["spectrum", "--symbol", "const:1"],
                                  ["kernel"], ["algebra"]])
def test_cmd_tables_have_one_output_format(tmp_path, capsys, argv):
    # each table command writes its CSV and sidecar; there is no JSON mode
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--format", "json", "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cmd_rejects_n_below_two(tmp_path, capsys, n):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        run("gamma", "--symbol", "const:1", "--n", n, "--out", str(out))
    assert exc.value.code == 2
    assert "at least 2 samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite", ["cto1", "transforms"])
def test_cmd_verify_rejects_a_negative_seed(tmp_path, capsys, suite):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run("verify", suite, "--n", "64", "--seed", "-1", "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("tfloc verify: error: argument --seed: need a "
                        "non-negative integer, got -1\n")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_cmd_spectrum_eig_failure_exits_2(tmp_path, monkeypatch, capsys):
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    out = tmp_path / "s.csv"
    # an odd n leaves the direct matrix off-diagonal at rounding, so the
    # spectrum needs the solver (an exactly diagonal one is read off)
    assert run("spectrum", "--symbol", "const:0.5", "--rule", "grid",
               "--n", "33", "--with-eigs", "--out", str(out)) == 2
    assert calls
    assert "eigenvalue computation failed" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_unexpected_exception_exits_2(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setitem(cli._COMMANDS, "gamma", boom)
    out = tmp_path / "g.csv"
    assert run("gamma", "--symbol", "const:1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "tfloc gamma: internal error: RuntimeError: unexpected state" in err
    assert not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB", ""])
def test_cmd_out_of_memory_is_one_error_line(monkeypatch, capsys, message):
    # a size too large to allocate exits 2 like bad input, without a
    # traceback; the command is replaced, so nothing is allocated
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "gamma", exhausted)
    assert run("gamma", "--symbol", "indicator:-1,1", "--n", "10000000000",
               "--out", "g.csv") == 2
    assert capsys.readouterr().err == \
        f"tfloc gamma: error: {message or 'MemoryError'}\n"
