"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line after its assertions (run with -s to see
them); a failed assertion surfaces as an ordinary pytest failure.  Expected
values come from closed-form oracles (error functions, logarithmic overlaps,
scale substitutions) or from independent quadratures computed in the test
suite, never from the code path under test.
"""

import json
import math
import os

import numpy as np
from scipy.special import erf

from tfloc.algebra import (Partition, commutator_diagnostics,
                           evaluate_on_cloud, partition_gammas,
                           semi_commutator)
from tfloc.cli import main as cli_main
from tfloc.fields import analyze, bargmann, random_bandlimited
from tfloc.fourier import fourier
from tfloc.grids import LineGrid
from tfloc.io import sidecar_path, write_signal_csv
from tfloc.kernels import (boundedness_verdict, gamma, overlap_kernel,
                           spectrum_from_gamma, weighted_overlap_kernel)
from tfloc.operators import (build_direct, build_integral,
                             build_multiplication, build_pseudodiff,
                             default_operator_grid, hausdorff_distance,
                             operator_norm, spectrum, verify_equivalence)
from tfloc.symbols import Symbol1D, SymbolSpec

LN2 = math.log(2.0)
SIGNAL_GRID = LineGrid.centered(8.0, 1024)

SYMBOL_POOLS = {
    "gabor": [Symbol1D.indicator(-1.0, 1.0),
              Symbol1D.indicator(-math.inf, 0.0),
              Symbol1D.smooth_step(4.0),
              Symbol1D.gaussian_bump(8.0)],
    "wavelet": [Symbol1D.indicator(1.0, 2.0),
                Symbol1D.indicator(0.5, 8.0),
                Symbol1D.smooth_step(8.0, log2_axis=True),
                Symbol1D.constant(0.5)],
}


def _report(num: int, name: str, detail: str):
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS ({detail})", flush=True)


def test_acceptance_01_admissibility(shannon, haar):
    r_shannon = shannon.admissibility_residual()
    assert r_shannon <= 1e-10
    r_haar = haar.admissibility_residual()
    assert r_haar <= 1e-6
    _report(1, "admissibility",
            f"shannon residual {r_shannon:.1e} <= 1e-10 at 64 frequencies, "
            f"haar {r_haar:.1e} <= 1e-6")


def test_acceptance_02_transform_factorization(shannon, haar, gaussian, rect):
    worst = {}
    for atom in (shannon, haar, gaussian, rect):
        errs = []
        for k in range(20):
            f = random_bandlimited(SIGNAL_GRID, seed=1000 + k)
            out = bargmann(atom, analyze(atom, f))
            ref = fourier(f).values if atom.case == "wavelet" else f.values
            errs.append(np.linalg.norm(out.values - ref)
                        / np.linalg.norm(ref))
        worst[atom.name] = max(errs)
        assert worst[atom.name] <= 2e-3, (atom.name, worst[atom.name])
    _report(2, "transform factorization",
            "20 seeded signals each, rel L2 err: "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_acceptance_03_cto1_diagonalization(gaussian):
    grid = default_operator_grid("gabor", 256)
    alpha = Symbol1D.indicator(-1.0, 1.0)
    M = build_direct(gaussian, SymbolSpec.first_variable(alpha), grid)
    off = M.values - np.diag(np.diag(M.values))
    off_frac = np.linalg.norm(off) / np.linalg.norm(M.values)
    assert off_frac <= 1e-3
    gf = gamma(gaussian, alpha, grid, rule="grid")
    disc = operator_norm(M.values - np.diag(gf.values)) / operator_norm(M)
    assert disc <= 1e-3
    g0 = gamma(gaussian, alpha,
               LineGrid(0.0, 1.0, 2), rule="adaptive").values[0]
    oracle = erf(math.sqrt(2.0 * math.pi))
    assert abs(g0 - oracle) <= 1e-6
    _report(3, "cto1 diagonalization",
            f"off-diag fraction {off_frac:.1e}, diag match {disc:.1e}, "
            f"gamma(0)={g0.real:.6f} vs erf oracle {oracle:.6f}")


def test_acceptance_04_norm_theorem(gaussian, shannon):
    worst = 0.0
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 256)
        for sym in SYMBOL_POOLS[atom.case]:
            M = build_direct(atom, SymbolSpec.first_variable(sym), grid)
            sup = spectrum_from_gamma(
                gamma(atom, sym, grid, rule="adaptive")).norm_estimate
            rel = abs(operator_norm(M) - sup) / sup
            worst = max(worst, rel)
            assert rel <= 1e-3, (atom.name, sym.descriptor, rel)
    _report(4, "norm theorem",
            f"|op norm - sup gamma| rel <= {worst:.1e} over 4 symbols x 2 cases")


def test_acceptance_05_spectrum_theorem(gaussian, shannon):
    details = []
    for atom, sym in [(gaussian, Symbol1D.gaussian_bump(8.0)),
                      (shannon, Symbol1D.smooth_step(8.0, log2_axis=True))]:
        ref = gamma(atom, sym, default_operator_grid(atom.case, 1024),
                    rule="adaptive").values
        ds = []
        for n in (256, 512):
            M = build_direct(atom, SymbolSpec.first_variable(sym),
                             default_operator_grid(atom.case, n))
            ds.append(hausdorff_distance(spectrum(M).values, ref))
        assert ds[0] <= 1e-2, (atom.name, ds)
        assert ds[1] <= 0.65 * ds[0], (atom.name, ds)
        details.append(f"{atom.name}: d256={ds[0]:.2e}, d512={ds[1]:.2e}")
    _report(5, "spectrum theorem", "; ".join(details)
            + " (<= 1e-2, halving under doubling)")


def test_acceptance_06_cto2_integral_form(gaussian, shannon):
    discs = {}
    for atom in (gaussian, shannon):
        rep = verify_equivalence(
            atom, SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0)),
            default_operator_grid(atom.case, 128), 5e-3, seed=2)
        assert rep["pass"] and rep["norm_discrepancy"] <= 5e-3, rep
        discs[atom.name] = rep["norm_discrepancy"]
        K = overlap_kernel(atom, default_operator_grid(atom.case, 128))
        assert np.max(np.abs(np.diag(K.values) - 1.0)) <= 1e-6
        assert np.max(np.abs(K.values - K.values.conj().T)) <= 1e-10
    grid = default_operator_grid("gabor", 128)
    K = overlap_kernel(gaussian, grid)
    xs = grid.samples
    closed = np.exp(-np.pi * (xs[:, None] - xs[None, :]) ** 2 / 2.0)
    kerr = np.max(np.abs(K.values - closed))
    assert kerr <= 1e-8
    _report(6, "cto2 integral form",
            f"norm discrepancy gaussian={discs['gaussian']:.1e}, "
            f"shannon={discs['shannon']:.1e} <= 5e-3; kernel diag/symmetry ok; "
            f"gaussian kernel closed form err {kerr:.1e} <= 1e-8")


def test_acceptance_07_cto3_compound_symbol(gaussian, shannon):
    discs = {}
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 128)
        alpha = (Symbol1D.indicator(0.0, math.inf) if atom.case == "gabor"
                 else Symbol1D.indicator(0.5, 8.0))
        beta = Symbol1D.cosine_window(2.0)
        rep = verify_equivalence(atom, SymbolSpec.separable(alpha, beta),
                                 grid, 5e-3, seed=3)
        assert rep["pass"] and rep["norm_discrepancy"] <= 5e-3, rep
        discs[atom.name] = rep["norm_discrepancy"]
        # degenerate reductions
        m_mult = build_multiplication(gamma(atom, alpha, grid, rule="grid"))
        m_beta1 = build_pseudodiff(atom, alpha, Symbol1D.constant(1.0), grid)
        assert operator_norm(m_beta1.values - m_mult.values) <= 2e-3
        m_int = build_integral(atom, beta, grid)
        m_alpha1 = build_pseudodiff(atom, Symbol1D.constant(1.0), beta, grid)
        assert np.max(np.abs(m_alpha1.values - m_int.values)) <= 1e-6
        # diagonal of the weighted kernel is the scalar symbol
        G = weighted_overlap_kernel(atom, alpha, grid)
        gf = gamma(atom, alpha, grid, rule="grid")
        assert np.max(np.abs(np.diag(G.values) - gf.values)) <= 1e-8
    _report(7, "cto3 compound symbol",
            f"norm discrepancy gaussian={discs['gaussian']:.1e}, "
            f"shannon={discs['shannon']:.1e} <= 5e-3; degenerate reductions "
            "and diagonal identity ok")


def test_acceptance_08_commutative_algebra(gaussian):
    grid = default_operator_grid("gabor", 128)
    pool = SYMBOL_POOLS["gabor"]
    worst_comm = max(commutator_diagnostics(gaussian, pool, grid).values())
    assert worst_comm <= 5e-3
    big = default_operator_grid("gabor", 256)
    semi = semi_commutator(gaussian, Symbol1D.indicator(-math.inf, 0.0),
                           Symbol1D.indicator(0.0, math.inf), big)
    semi_err = abs(np.max(np.abs(semi)) - 0.25)
    assert semi_err <= 1e-6
    part = Partition(gaussian, [0.0])
    cloud = partition_gammas(gaussian, part, big)
    assert float(cloud.points.min()) >= -1e-8
    sums_dev = float(np.max(np.abs(cloud.points.sum(axis=1) - 1.0)))
    assert sums_dev <= 1e-6
    rng = np.random.default_rng(8)
    worst_iso = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, sup = evaluate_on_cloud(coeffs, cloud)
        M = build_direct(gaussian, SymbolSpec.first_variable(
            Symbol1D.piecewise(part.pieces, coeffs)), big)
        nm = operator_norm(M)
        worst_iso = max(worst_iso, abs(sup - nm) / nm)
    assert worst_iso <= 2e-3
    _report(8, "commutative algebra",
            f"commutators <= {worst_comm:.1e}, semi-commutator sup err "
            f"{semi_err:.1e} vs 1/4, simplex dev {sums_dev:.1e}, "
            f"tau isometry <= {worst_iso:.1e}")


def test_acceptance_09_unbounded_symbol(shannon):
    sym = Symbol1D.power(-1.0)
    grid = default_operator_grid("wavelet", 256)
    gf = gamma(shannon, sym, grid, rule="adaptive")
    err = np.max(np.abs(gf.values - grid.samples / (2.0 * LN2)))
    assert err <= 1e-8
    reports = []
    for hi in (4.0, 8.0, 16.0):
        g = LineGrid(2.0 ** -4, (hi - 2.0 ** -4) / 128, 128)
        reports.append(spectrum_from_gamma(
            gamma(shannon, sym, g, rule="adaptive")))
    verdict = boundedness_verdict(reports)
    assert verdict == "unbounded on sampled range"
    sups = [r.norm_estimate for r in reports]
    _report(9, "unbounded symbol",
            f"gamma = |xi|/(2 ln 2) err {err:.1e} <= 1e-8; sups "
            + " -> ".join(f"{s:.3f}" for s in sups) + f" => {verdict!r}")


def test_acceptance_10_determinism_and_contracts(tmp_path):
    sig = str(tmp_path / "sig.csv")
    write_signal_csv(sig, random_bandlimited(SIGNAL_GRID, seed=5))
    # byte-identical reruns
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"g{tag}.csv")
        assert cli_main(["gamma", "--case", "gabor",
                         "--symbol", "indicator:-1,1", "--out", out]) == 0
        outs.append(out)
    same_csv = open(outs[0], "rb").read() == open(outs[1], "rb").read()
    same_meta = (open(sidecar_path(outs[0]), "rb").read()
                 == open(sidecar_path(outs[1]), "rb").read())
    assert same_csv and same_meta
    # verify exit code mirrors the report
    vout = str(tmp_path / "v.json")
    code = cli_main(["verify", "cto1", "--n", "128", "--seed", "7",
                     "--out", vout])
    rep = json.loads(open(vout).read())
    assert (code == 0) == rep["pass"] and code == 0
    # errors leave no partial outputs
    bad = str(tmp_path / "bad.csv")
    assert cli_main(["gamma", "--case", "gabor", "--symbol", "nope",
                     "--out", bad]) != 0
    assert not os.path.exists(bad) and not os.path.exists(sidecar_path(bad))
    assert cli_main(["filter", "--case", "gabor", "--symbol", "const:1",
                     "--input", str(tmp_path / "absent.csv"),
                     "--out", bad]) != 0
    assert not os.path.exists(bad)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]
    assert leftovers == []
    _report(10, "determinism and contracts",
            "byte-identical reruns, exit codes mirror reports, "
            "no partial files on error")
