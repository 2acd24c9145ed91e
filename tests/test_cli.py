import json
import math
import os

import numpy as np
import pytest
from scipy.special import erf

from tfloc import cli
from tfloc.cli import main
from tfloc.fields import random_bandlimited
from tfloc.grids import LineGrid, SampledFunction
from tfloc.io import read_signal_csv, sidecar_path, write_signal_csv


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
    assert g.grid.approx_eq(grid)
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


def test_cmd_gamma_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run("gamma", "--case", "wavelet", "--symbol", "power:-1",
                   "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert (open(sidecar_path(a), "rb").read()
            == open(sidecar_path(b), "rb").read())


def test_cmd_gamma_json_format(tmp_path):
    out = str(tmp_path / "g.json")
    assert run("gamma", "--case", "gabor", "--symbol", "const:1",
               "--format", "json", "--out", out) == 0
    data = json.loads(open(out).read())
    assert len(data["re"]) == 256 and max(abs(v - 1) for v in data["re"]) <= 1e-6


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


# -- verify command ------------------------------------------------------------------

def test_cmd_verify_cto1(tmp_path):
    out = str(tmp_path / "v.json")
    assert run("verify", "cto1", "--n", "256", "--seed", "7",
               "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["pass"] and rep["norm_discrepancy"] <= 1e-3


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


def test_cmd_verify_exit_code_contract(tmp_path):
    # report always written; exit code mirrors the pass flag
    out = str(tmp_path / "v.json")
    code = run("verify", "cto1", "--n", "64", "--seed", "1", "--out", out)
    rep = json.loads(open(out).read())
    assert (code == 0) == rep["pass"]


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
    assert slow.grid.approx_eq(grid)
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


def test_cmd_kernel_diagonal(tmp_path):
    out = str(tmp_path / "k.csv")
    assert run("kernel", "--case", "gabor", "--n", "64", "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    diag = rows[np.isclose(rows[:, 0], rows[:, 1])]
    assert np.max(np.abs(diag[:, 2] - 1.0)) <= 1e-6


def test_cmd_algebra_split_cloud(tmp_path):
    out = str(tmp_path / "c.csv")
    assert run("algebra", "--case", "gabor", "--cuts", "0",
               "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    sums = rows[:, 1] + rows[:, 2]
    assert np.max(np.abs(sums - 1.0)) <= 1e-6
    e = erf(math.sqrt(2 * math.pi) * rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - 0.5 * (1 - e))) <= 1e-6


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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cmd_rejects_n_below_two(tmp_path, capsys, n):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        run("gamma", "--symbol", "const:1", "--n", n, "--out", str(out))
    assert exc.value.code == 2
    assert "at least 2 samples" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_spectrum_eig_failure_exits_2(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    out = tmp_path / "s.csv"
    assert run("spectrum", "--symbol", "const:0.5", "--rule", "grid",
               "--n", "32", "--with-eigs", "--out", str(out)) == 2
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
