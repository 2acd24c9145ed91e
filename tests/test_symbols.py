import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erf

from tfloc.grids import LineGrid
from tfloc.kernels import (boundedness_verdict, gamma, overlap_kernel,
                           spectrum_from_gamma, weighted_overlap_kernel)
from tfloc.operators import OperatorMatrix, default_operator_grid
from tfloc.symbols import Symbol1D, SymbolParseError, parse_symbol

LN2 = math.log(2.0)
GABOR_GRID = LineGrid.centered(8.0, 256)
WAVELET_GRID = default_operator_grid("wavelet", 256)


def shannon_indicator_gamma(a, b, xs):
    """Log-overlap closed form: overlap of [a,b] with [1/|x|, 2/|x|] in du/u."""
    out = np.zeros_like(xs)
    nz = xs != 0
    lo = np.maximum(a, 1.0 / np.abs(xs[nz]))
    hi = np.minimum(b, 2.0 / np.abs(xs[nz]))
    out[nz] = np.where(hi > lo, np.log(np.maximum(hi, 1e-300) / lo), 0.0) / LN2
    return out


def gabor_indicator_gamma(a, b, xs):
    """Error-function closed form for the gaussian window."""
    s = math.sqrt(2.0 * math.pi)
    return 0.5 * (erf(s * (xs - a)) - erf(s * (xs - b)))


# -- DSL ----------------------------------------------------------------------

def test_parse_symbol_forms(tmp_path):
    assert parse_symbol("const:2").descriptor == "const:2"
    ind = parse_symbol("indicator:-1,1")
    assert ind.breakpoints == (-1.0, 1.0)
    assert parse_symbol("power:-1")(np.array([2.0]))[0] == 0.5
    assert parse_symbol("indicator:-inf,0").support[0] == -math.inf


@pytest.mark.parametrize("bad", ["nope", "indicator:1", "indicator:2,1",
                                 "power:x", "const:zz", "unknown:1"])
def test_parse_symbol_rejects_malformed(bad):
    with pytest.raises(SymbolParseError):
        parse_symbol(bad)


_DSL_ARGS = st.one_of(st.text(), st.text(alphabet="0123456789.,+-eEinfajJ() "))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(
    st.text(),
    st.builds("{}:{}".format,
              st.sampled_from(["const", "indicator", "power", "sampled", "",
                               "Const"]), _DSL_ARGS)))
def test_parse_symbol_raises_only_value_error(text):
    # any text parses to a Symbol1D or raises ValueError (a SymbolParseError
    # or the CSV reader's error); parsing only, evaluation may overflow
    try:
        sym = parse_symbol(text)
    except ValueError:
        return
    assert isinstance(sym, Symbol1D)


def test_parse_sampled_symbol(tmp_path):
    from tfloc.grids import SampledFunction
    from tfloc.io import write_signal_csv
    grid = LineGrid(-4.0, 0.125, 64)
    write_signal_csv(str(tmp_path / "sym.csv"),
                     SampledFunction(grid, np.hanning(64)))
    sym = parse_symbol(f"sampled:{tmp_path / 'sym.csv'}")
    assert abs(sym(np.array([0.0]))[0] - np.hanning(64)[32]) <= 1e-2


# -- gamma oracles -------------------------------------------------------------

def test_gamma_constant_is_one(gaussian, shannon):
    for atom, grid in [(gaussian, GABOR_GRID), (shannon, WAVELET_GRID)]:
        gf = gamma(atom, Symbol1D.constant(1.0), grid, rule="grid")
        assert np.max(np.abs(gf.values - 1.0)) <= 1e-6


def test_gamma_gabor_indicator_erf_closed_form(gaussian):
    a, b = -1.0, 1.0
    gf = gamma(gaussian, Symbol1D.indicator(a, b), GABOR_GRID, rule="adaptive")
    ref = gabor_indicator_gamma(a, b, GABOR_GRID.samples)
    assert np.max(np.abs(gf.values - ref)) <= 1e-8


def test_gamma_gabor_indicator_independent_quadrature(gaussian):
    # second independent oracle: scipy adaptive quadrature assembled here
    sym = Symbol1D.indicator(-1.0, 1.0)
    xs = np.array([-2.0, -0.5, 0.0, 0.75, 3.0])
    gf = gamma(gaussian, sym, LineGrid(-2.0, 1.25 / 4, 2), rule="adaptive")
    for xi in xs:
        ref, _ = integrate.quad(
            lambda q: math.sqrt(2.0) * math.exp(-2 * math.pi * (xi - q) ** 2),
            -1.0, 1.0, epsabs=1e-13)
        got = gamma(gaussian, sym,
                    LineGrid(float(xi), 1.0, 2), rule="adaptive").values[0]
        assert abs(got - ref) <= 1e-10


def test_gamma_shannon_indicator_log_overlap(shannon):
    for a, b in [(0.7, 3.0), (1.0, 2.0), (0.1, 0.2), (5.0, 9.0)]:
        gf = gamma(shannon, Symbol1D.indicator(a, b), WAVELET_GRID,
                   rule="adaptive")
        ref = shannon_indicator_gamma(a, b, WAVELET_GRID.samples)
        assert np.max(np.abs(gf.values - ref)) <= 1e-8, (a, b)


def test_gamma_shannon_disjoint_band_is_zero(shannon):
    # [a, b] disjoint from [1/|xi|, 2/|xi|] on the whole window
    gf = gamma(shannon, Symbol1D.indicator(100.0, 200.0), WAVELET_GRID,
               rule="adaptive")
    assert np.max(np.abs(gf.values)) <= 1e-12


def test_gamma_shannon_inverse_scale_linear_growth(shannon):
    # alpha(u) = 1/u: substitution gives |xi|/(2 ln 2)
    gf = gamma(shannon, Symbol1D.power(-1.0), WAVELET_GRID, rule="adaptive")
    ref = WAVELET_GRID.samples / (2.0 * LN2)
    assert np.max(np.abs(gf.values - ref)) <= 1e-8


def test_gamma_flags_overflow_as_unbounded(shannon):
    # u^-24 exceeds the 1e12 overflow guard on the sampled window
    gf = gamma(shannon, Symbol1D.power(-24.0), WAVELET_GRID, rule="grid")
    assert gf.unbounded


def test_gamma_rejects_nonfinite_symbol(gaussian):
    sym = Symbol1D(lambda x: np.where(x == 0.0, np.inf, 1.0), "inf-at-0")
    with pytest.raises(ValueError, match="finite"):
        gamma(gaussian, sym, GABOR_GRID, rule="grid")


def test_gamma_haar_adaptive_matches_grid(haar):
    sym = Symbol1D.smooth_step(8.0, log2_axis=True)
    grid = LineGrid(0.25, 3.75 / 32, 32)
    ga = gamma(haar, sym, grid, rule="adaptive")
    gg = gamma(haar, sym, grid, rule="grid")
    # grid rule carries the scale-truncation tail, O(1e-4)
    assert np.max(np.abs(ga.values - gg.values)) <= 1e-3


def test_gamma_haar_adaptive_nonconvergence_raises(haar):
    # QUADPACK gives up on this sampled symbol: its error estimate (6.2e-4)
    # is far above the 1e-10 the sidecars state
    sym = Symbol1D.sampled(LineGrid(0.25, 1 / 16, 64),
                           np.random.default_rng(0).uniform(0, 1, 64))
    with pytest.raises(ArithmeticError, match=r"at xi=0\.0625: adaptive"):
        gamma(haar, sym, default_operator_grid("wavelet", 4), rule="adaptive")


# -- adaptive rule against the per-point scipy loop ------------------------------

def _scipy_gamma_adaptive(atom, alpha, xs):
    """Reference: one pair of scipy quad calls per xi, scalar callbacks.

    The adaptive rule's former implementation; every quad must converge
    (IntegrationWarning is turned into an error by the caller).
    """
    def quad_complex(fn, lo, hi, pts):
        opts = dict(points=pts, epsabs=1e-12, epsrel=1e-11, limit=300)
        re, _ = integrate.quad(lambda t: fn(t).real, lo, hi, **opts)
        im, _ = integrate.quad(lambda t: fn(t).imag, lo, hi, **opts)
        return re + 1j * im

    def sym(t):
        return complex(alpha(np.asarray([t]))[0])

    out = np.zeros(xs.size, dtype=complex)
    for i, xi in enumerate(float(x) for x in xs):
        if atom.case == "wavelet":
            if xi == 0.0:
                continue
            a, side = abs(xi), (1.0 if xi > 0 else -1.0)
            lo = max(atom.freq_support[0] / a, alpha.support[0], 1e-300)
            hi = min(atom.freq_support[1] / a, alpha.support[1])

            def fn(u, a=a, side=side):
                prof = complex(atom.eval_freq(np.asarray([side * u * a]))[0])
                return sym(u) * abs(prof) ** 2 / u
        else:
            lo = max(xi - atom.time_support[1], alpha.support[0])
            hi = min(xi - atom.time_support[0], alpha.support[1])

            def fn(q, xi=xi):
                return sym(q) * abs(complex(
                    atom.eval_time(np.asarray([xi - q]))[0])) ** 2
        if lo < hi:
            pts = [b for b in alpha.breakpoints if lo < b < hi] or None
            out[i] = quad_complex(fn, lo, hi, pts)
    return out


def _oracle_symbols(case):
    """Indicator, half-line, smooth step, bump, power:-1 (scale axis only),
    a sampled symbol (interpolation kinks, no breakpoints), complex
    piecewise."""
    if case == "gabor":
        sg = LineGrid(-4.0, 1.0, 9)
        return [Symbol1D.indicator(-1.0, 1.0),
                Symbol1D.indicator(-math.inf, 0.0),
                Symbol1D.smooth_step(4.0),
                Symbol1D.gaussian_bump(2.0, 0.5),
                Symbol1D.sampled(sg, 1.0 + np.sin(3.0 * sg.samples)),
                Symbol1D.piecewise([[(-1.0, 0.5)], [(0.5, 2.0), (3.0, 4.0)]],
                                   [1j, 0.5 - 2j])]
    sg = LineGrid(0.25, 1.0, 9)
    return [Symbol1D.indicator(0.7, 3.0),
            Symbol1D.indicator(1.5, math.inf),
            Symbol1D.smooth_step(8.0, log2_axis=True),
            Symbol1D.gaussian_bump(2.0, 0.5),
            Symbol1D.power(-1.0),
            Symbol1D.sampled(sg, 1.0 + np.sin(3.0 * sg.samples)),
            Symbol1D.piecewise([[(0.3, 1.0)], [(1.0, 2.5)]], [1 + 1j, -0.5])]


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon"])
def test_gamma_adaptive_matches_scipy_loop(atom_name, request):
    atom = request.getfixturevalue(atom_name)
    grid = default_operator_grid(atom.case, 32)
    for sym in _oracle_symbols(atom.case):
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            ref = _scipy_gamma_adaptive(atom, sym, grid.samples)
        gf = gamma(atom, sym, grid, rule="adaptive")
        assert np.max(np.abs(gf.values - ref)) <= 1e-12, sym.descriptor


def test_gamma_adaptive_repeats_bit_identical(gaussian, shannon):
    for atom, sym in [(gaussian, Symbol1D.piecewise(
            [[(-1.0, 0.5)], [(0.5, 2.0)]], [1j, 0.5])),
            (shannon, Symbol1D.smooth_step(8.0, log2_axis=True))]:
        grid = default_operator_grid(atom.case, 128)
        a = gamma(atom, sym, grid, rule="adaptive")
        b = gamma(atom, sym, grid, rule="adaptive")
        assert a.values.tobytes() == b.values.tobytes()
        assert a.abserr == b.abserr


def test_gamma_adaptive_symbol_calls_batched(gaussian, shannon):
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 128)
        for sym in _oracle_symbols(atom.case):
            calls = []

            def fn(x, sym=sym):
                calls.append(x.size)
                return sym(x)

            counted = Symbol1D(fn, sym.descriptor, sym.breakpoints,
                               sym.support, sym.is_real, sym.sup_bound)
            gamma(atom, counted, grid, rule="adaptive")
            assert len(calls) <= 64, (atom.name, sym.descriptor, len(calls))


def test_gamma_adaptive_unlisted_jumps_raise(gaussian, square_wave):
    with pytest.raises(ArithmeticError, match=r"square:10000 at xi=.*300 panels"):
        gamma(gaussian, square_wave, default_operator_grid("gabor", 32),
              rule="adaptive")


def test_gamma_adaptive_abserr(gaussian):
    gf = gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), GABOR_GRID,
               rule="adaptive")
    ref = gabor_indicator_gamma(-1.0, 1.0, GABOR_GRID.samples)
    assert 0.0 < gf.abserr <= 1e-10
    assert np.max(np.abs(gf.values - ref)) <= 1e-10
    assert gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), GABOR_GRID,
                 rule="grid").abserr is None


# -- gamma invariants -----------------------------------------------------------

def test_gamma_additive_over_partition(gaussian):
    cuts = [-2.0, 0.0, 1.5]
    edges = [-math.inf] + cuts + [math.inf]
    total = np.zeros(GABOR_GRID.count, dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        sym = Symbol1D.piecewise([[(a, b)]], [1.0])
        total += gamma(gaussian, sym, GABOR_GRID, rule="grid").values
    assert np.max(np.abs(total - 1.0)) <= 1e-6


def test_gamma_positive_symbol_nonnegative(gaussian, shannon):
    for atom, grid in [(gaussian, GABOR_GRID), (shannon, WAVELET_GRID)]:
        gf = gamma(atom, Symbol1D.indicator(0.5, 2.0), grid, rule="grid")
        assert float(gf.values.real.min()) >= -1e-10


def test_gamma_contraction_bound(gaussian, shannon):
    for atom, grid in [(gaussian, GABOR_GRID), (shannon, WAVELET_GRID)]:
        for sym in (Symbol1D.indicator(-1.0, 1.0) if atom.case == "gabor"
                    else Symbol1D.indicator(1.0, 2.0),
                    Symbol1D.constant(0.35)):
            gf = gamma(atom, sym, grid, rule="grid")
            assert float(np.max(np.abs(gf.values))) <= sym.sup_bound + 1e-8


def test_gamma_dilation_covariance_shannon(shannon):
    # gamma_{alpha(./c)}(xi) = gamma_alpha(c xi) by du/u scale invariance
    c = 1.7
    alpha = Symbol1D.indicator(0.8, 2.5)
    alpha_scaled = Symbol1D.indicator(0.8 * c, 2.5 * c)
    xs = WAVELET_GRID
    g_scaled = gamma(shannon, alpha_scaled, xs, rule="adaptive")
    scaled_axis = LineGrid(xs.start * c, xs.step * c, xs.count)
    g_at_cxi = gamma(shannon, alpha, scaled_axis, rule="adaptive")
    assert np.max(np.abs(g_scaled.values - g_at_cxi.values)) <= 1e-8


def test_gamma_fft_rule_matches_direct_quadrature(gaussian):
    for sym in (Symbol1D.indicator(-1.0, 1.0), Symbol1D.smooth_step(4.0)):
        g_fft = gamma(gaussian, sym, GABOR_GRID, rule="fft")
        g_grid = gamma(gaussian, sym, GABOR_GRID, rule="grid")
        assert np.max(np.abs(g_fft.values - g_grid.values)) <= 1e-8


def test_gamma_real_symbol_real_values(gaussian):
    gf = gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), GABOR_GRID,
               rule="adaptive")
    assert np.max(np.abs(gf.values.imag)) <= 1e-10


# -- spectrum reports --------------------------------------------------------------

def test_spectrum_constant_symbol(gaussian):
    gf = gamma(gaussian, Symbol1D.constant(0.7), GABOR_GRID, rule="grid")
    rep = spectrum_from_gamma(gf)
    assert abs(rep.norm_estimate - 0.7) <= 1e-9
    assert abs(rep.interval[0] - 0.7) <= 1e-9 and abs(rep.interval[1] - 0.7) <= 1e-9


def test_spectrum_gabor_indicator_norm_is_erf_peak(gaussian):
    gf = gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), GABOR_GRID,
               rule="adaptive")
    rep = spectrum_from_gamma(gf)
    assert abs(rep.norm_estimate - erf(math.sqrt(2 * math.pi))) <= 1e-6
    assert rep.interval[0] >= -1e-10 and rep.interval[1] <= 1.0 + 1e-10


def test_spectrum_interval_endpoints_match_minmax(gaussian):
    gf = gamma(gaussian, Symbol1D.smooth_step(4.0), GABOR_GRID, rule="grid")
    rep = spectrum_from_gamma(gf)
    assert rep.interval == (float(gf.values.real.min()),
                            float(gf.values.real.max()))


def test_boundedness_verdict_growth(shannon):
    reports = []
    for hi in (4.0, 8.0, 16.0):
        grid = LineGrid(0.25, (hi - 0.25) / 128, 128)
        gf = gamma(shannon, Symbol1D.power(-1.0), grid, rule="adaptive")
        reports.append(spectrum_from_gamma(gf))
    assert boundedness_verdict(reports) == "unbounded on sampled range"
    sups = [r.norm_estimate for r in reports]
    assert abs(sups[1] / sups[0] - 2.0) <= 0.1
    bounded = [spectrum_from_gamma(gamma(shannon, Symbol1D.constant(1.0),
                                         LineGrid(0.25, h / 128, 128), rule="grid"))
               for h in (4.0, 8.0)]
    assert boundedness_verdict(bounded).startswith("bounded")


# -- kernels -------------------------------------------------------------------------

def test_kernel_diagonal_unit(gaussian, shannon):
    for atom, grid in [(gaussian, LineGrid.centered(8.0, 128)),
                       (shannon, default_operator_grid("wavelet", 128))]:
        K = overlap_kernel(atom, grid)
        assert np.max(np.abs(np.diag(K.values) - 1.0)) <= 1e-6


def test_kernel_hermitian(gaussian, shannon, haar):
    for atom, grid in [(gaussian, LineGrid.centered(8.0, 128)),
                       (shannon, default_operator_grid("wavelet", 128)),
                       (haar, default_operator_grid("wavelet", 128))]:
        K = overlap_kernel(atom, grid)
        assert np.max(np.abs(K.values - K.values.conj().T)) <= 1e-10


def test_kernels_are_operator_matrix_records(gaussian, shannon):
    # real-symbol kernels are flagged Hermitian; a complex symbol gives a
    # record flagged non-Hermitian, not an error
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 64)
        K = overlap_kernel(atom, grid)
        R = weighted_overlap_kernel(atom, Symbol1D.smooth_step(4.0), grid)
        C = weighted_overlap_kernel(atom, Symbol1D.piecewise(
            [[(-1.0, 1.0)], [(1.0, 2.0)]], [1j, 0.5]), grid)
        for M in (K, R, C):
            assert isinstance(M, OperatorMatrix) and M.grid is grid
            assert M.atom_name == atom.name
        assert (K.builder, K.symbol_descriptor) == ("overlap", "const:1")
        assert (R.builder, R.symbol_descriptor) == ("weighted_overlap",
                                                    "step:4")
        assert K.is_hermitian and R.is_hermitian
        assert not C.is_hermitian


def test_kernel_gabor_gaussian_closed_form(gaussian):
    grid = LineGrid.centered(8.0, 128)
    K = overlap_kernel(gaussian, grid)
    xs = grid.samples
    ref = np.exp(-np.pi * (xs[:, None] - xs[None, :]) ** 2 / 2.0)
    assert np.max(np.abs(K.values - ref)) <= 1e-8


def test_weighted_kernel_diagonal_is_grid_gamma(gaussian, shannon):
    for atom, grid in [(gaussian, LineGrid.centered(8.0, 128)),
                       (shannon, default_operator_grid("wavelet", 128))]:
        sym = (Symbol1D.indicator(-1.0, 1.0) if atom.case == "gabor"
               else Symbol1D.indicator(1.0, 2.0))
        W = weighted_overlap_kernel(atom, sym, grid)
        gf = gamma(atom, sym, grid, rule="grid")
        assert np.max(np.abs(np.diag(W.values) - gf.values)) <= 1e-8


def test_weighted_kernel_constant_equals_overlap(gaussian):
    grid = LineGrid.centered(8.0, 128)
    K = overlap_kernel(gaussian, grid)
    W = weighted_overlap_kernel(gaussian, Symbol1D.constant(1.0), grid)
    assert np.max(np.abs(W.values - K.values)) <= 1e-10


def test_weighted_kernel_matches_quadrature_sum(gaussian, shannon):
    # reference: the first-coordinate quadrature sum as one einsum
    sym = Symbol1D.piecewise([[(-1.0, 1.0)], [(1.0, 2.0)]], [1j, 0.5])
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 64)
        L = atom.ell_matrix(grid.samples)
        w = atom.g1.measure_weights * sym(atom.g1.nodes)
        ref = np.einsum("k,ki,kj->ij", w, np.conj(L), L)
        W = weighted_overlap_kernel(atom, sym, grid)
        assert np.max(np.abs(W.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_weighted_kernel_real_symbol_hermitian(gaussian):
    grid = LineGrid.centered(8.0, 128)
    W = weighted_overlap_kernel(gaussian, Symbol1D.smooth_step(4.0), grid)
    assert np.max(np.abs(W.values - W.values.conj().T)) <= 1e-10
