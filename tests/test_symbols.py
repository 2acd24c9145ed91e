import ast
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erf, sici

import tfloc
import tfloc.kernels
from tfloc.algebra import Partition
from tfloc.atoms import make_wavelet
from tfloc.fields import random_bandlimited
from tfloc.grids import LineGrid, SampledFunction
from tfloc.kernels import (GammaFunction, boundedness_verdict, gamma,
                           overlap_kernel,
                           spectrum_from_gamma, weighted_overlap_kernel)
from tfloc.operators import (OperatorMatrix, build_direct, build_integral,
                             build_pseudodiff, default_operator_grid,
                             filter_signal)
from tfloc.quadrature import gauss_kronrod
from tfloc.symbols import (RANGE_EXPONENT, Symbol1D, SymbolParseError,
                           SymbolSpec, _exponent, _in_range, _ldexp,
                           parse_symbol)

LN2 = math.log(2.0)
GABOR_GRID = LineGrid.centered(8.0, 256)
# the top of the supported range, the next float, and the error above it
TOP = 2.0 ** RANGE_EXPONENT
OVER = float(np.nextafter(TOP, math.inf))
OUT_OF_RANGE = r"exceeds the supported range.*above 2\^256"
WAVELET_GRID = default_operator_grid("wavelet", 256)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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


def haar_indicator_gamma(haar, a, b, xs):
    """Closed form for the haar wavelet, independent of tfloc's quadrature.

    With s = u|xi| the gamma of [a, b] is the integral of
    |psi_hat(s)|^2 / s = (4c^2/pi^2) sin^4(pi s/2) / s^3 over [a|xi|, b|xi|]
    clipped to the atom's frequency support (c the normalization).  With
    x = pi s/2, sin^4 x = 3/8 - cos(2x)/2 + cos(4x)/8, and
    integral cos(ws)/s^3 ds = -cos(ws)/(2s^2) + w sin(ws)/(2s) - (w^2/2) Ci(ws).
    The 1/s^2 terms cancel near s = 0, so keep a|xi| >= 1/64.
    """
    def prim(w, s):
        return (-np.cos(w * s) / (2 * s ** 2) + w * np.sin(w * s) / (2 * s)
                - 0.5 * w ** 2 * sici(w * s)[1])

    def energy(s):
        return (-0.375 / (2 * s ** 2) - 0.5 * prim(np.pi, s)
                + 0.125 * prim(2 * np.pi, s))

    s_lo, s_hi = haar.freq_support
    lo = np.clip(a * np.abs(xs), s_lo, s_hi)
    hi = np.clip(b * np.abs(xs), s_lo, s_hi)
    return 4 * haar.normalization ** 2 / np.pi ** 2 * (energy(hi) - energy(lo))


# -- DSL ----------------------------------------------------------------------

def test_parse_symbol_forms(tmp_path):
    assert parse_symbol("const:2").descriptor == "const:2"
    ind = parse_symbol("indicator:-1,1")
    assert ind.breakpoints == (-1.0, 1.0)
    assert parse_symbol("power:-1")(np.array([2.0]))[0] == 0.5
    assert parse_symbol("indicator:-inf,0").support[0] == -math.inf


def test_piecewise_descriptor_prints_real_coefficients_as_real():
    assert Symbol1D.piecewise([[(0, 1)]], [1.0]).descriptor == "piecewise:1"
    assert Symbol1D.piecewise([[(0, 1)], [(1, 2)]],
                              [2.5, 1j]).descriptor == "piecewise:2.5,0+1j"
    assert SymbolSpec.first_variable(Symbol1D.piecewise(
        [[(0, 1)]], [1.0])).descriptor == "a(r)=piecewise:1"


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
@example(text="power:1.0000001")
@example(text="indicator:0.333333333,2")
@example(text="const:0.1234567891")
def test_parse_symbol_raises_only_value_error(text):
    # any text parses to a Symbol1D or raises ValueError (a SymbolParseError
    # or the CSV reader's error); parsing only, evaluation may overflow
    try:
        sym = parse_symbol(text)
    except ValueError:
        return
    assert isinstance(sym, Symbol1D)
    # a descriptor names the symbol computed: it parses back to itself and
    # to equal values, also at the breakpoints of either symbol
    if not sym.descriptor.startswith("sampled:"):
        again = parse_symbol(sym.descriptor)
        assert again.descriptor == sym.descriptor
        xs = np.array([0.5, 2.0, 3.0, *sym.breakpoints, *again.breakpoints])
        with np.errstate(all="ignore"):
            assert np.array_equal(sym(xs), again(xs), equal_nan=True)


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


@pytest.mark.parametrize("name", ["shannon", "gaussian"])
def test_gamma_adaptive_of_a_symbol_out_of_reach_is_zero(request, name):
    # a symbol with no pieces (so no table path) whose support no xi of the
    # window reaches: no segment is integrated, and gamma is exactly 0
    atom = request.getfixturevalue(name)
    grid = WAVELET_GRID if atom.case == "wavelet" else GABOR_GRID
    far = Symbol1D(np.cos, "cos-on-[1e3,2e3]", support=(1e3, 2e3))
    gf = gamma(atom, far, grid, rule="adaptive")
    assert not gf.values.any() and gf.abserr == 0.0


def test_gamma_shannon_inverse_scale_linear_growth(shannon):
    # alpha(u) = 1/u: substitution gives |xi|/(2 ln 2)
    gf = gamma(shannon, Symbol1D.power(-1.0), WAVELET_GRID, rule="adaptive")
    ref = WAVELET_GRID.samples / (2.0 * LN2)
    assert np.max(np.abs(gf.values - ref)) <= 1e-8


def test_gamma_flags_overflow_as_unbounded(shannon):
    # u^-24 exceeds the 1e12 overflow guard on the sampled window, and one
    # report flagged unbounded makes the verdict, whatever its norm
    gf = gamma(shannon, Symbol1D.power(-24.0), WAVELET_GRID, rule="grid")
    assert gf.unbounded
    assert boundedness_verdict([spectrum_from_gamma(gf)]) == \
        "unbounded on sampled range"


def test_gamma_grid_keeps_the_bits_of_the_unscaled_power_sums(gaussian,
                                                              shannon):
    # symbols in the supported range enter the power sums as they are:
    # scaling them by a power of two would round the subnormal products of
    # the gaussian record's far rows on the wide window
    for atom, grid in ((gaussian, GABOR_GRID),
                       (gaussian, LineGrid.centered(32.0, 256)),
                       (shannon, WAVELET_GRID)):
        fib = atom.fibers(grid.samples)
        for text in ("const:3", "const:1.5", "const:1e13", "const:1e-300",
                     f"const:{TOP!r}", "indicator:-1,1"):
            sym = parse_symbol(text)
            ref = fib.power_sums(sym.sample(atom.g1.nodes),
                                 atom.g1.measure_weights)
            got = gamma(atom, sym, grid, rule="grid").values
            assert got.dtype == np.float64, (atom.name, text)
            assert np.array_equal(bits(got), bits(ref)), (atom.name, text)


def test_gamma_grid_scales_only_a_symbol_that_overflows(shannon, rect):
    # no symbol is scaled: a symbol with no bound whose samples are above
    # 2^256 raises the range error of the grid and fft rules' sampling, and
    # at 2^256 the sums are 2^256 times those of 1, bit for bit
    def flat(c):
        return Symbol1D(lambda x: np.full_like(x, c), f"flat:{c!r}")

    for rule, atom, grid in (("grid", shannon, WAVELET_GRID),
                             ("fft", rect, GABOR_GRID)):
        one = gamma(atom, flat(1.0), grid, rule=rule).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = gamma(atom, flat(TOP), grid, rule=rule).values
            with pytest.raises(ValueError, match=OUT_OF_RANGE):
                gamma(atom, flat(OVER), grid, rule=rule)
        assert top.tobytes() == np.ldexp(one.view(float),
                                         RANGE_EXPONENT).tobytes(), rule


def test_the_scale_helpers():
    # _exponent: the frexp exponent of the largest real or imaginary part,
    # 0 for zeros, inf when a part is not finite; a scalar's is frexp's
    assert _exponent(np.zeros(3)) == _exponent(np.zeros((2, 2), complex)) == 0
    assert _exponent(np.array([])) == 0
    for bad in (math.nan, math.inf, -math.inf):
        assert _exponent(np.array([1.0, bad])) == math.inf
        assert _exponent(np.array([1.0, complex(0.0, bad)])) == math.inf
    assert _exponent(np.array([-3.0, 2.0])) == 2
    assert _exponent(np.array([1.0 - 5.0j])) == 3
    # |0.75 + 0.75j| = 1.06 has exponent 1, its parts 0
    assert _exponent(np.array([0.75 + 0.75j])) == 0
    for x in (0.0, 0.5, -3.0, 5e-324, 1e-320, 2.0 ** -1022, 1.7e308):
        assert _exponent(x) == math.frexp(x)[1], x
    assert _exponent(-1e308j) == math.frexp(1e308)[1]

    # _ldexp: A *= 2^e in place, exact down to the smallest subnormal, and
    # a no-op for e = 0 and a non-finite e
    tiny = np.array([5e-324, 3 * 5e-324, -2.0 ** -1073, 2.0 ** -1022])
    up = tiny.copy()
    _ldexp(up, 1074)
    assert np.array_equal(up, [1.0, 3.0, -2.0, 2.0 ** 52])
    _ldexp(up, -1074)
    assert np.array_equal(bits(up), bits(tiny))
    z = tiny + 1j * tiny[::-1]
    _ldexp(z, 1074)
    assert np.array_equal(z, [1.0 + 2.0 ** 52 * 1j, 3.0 - 2.0j,
                              -2.0 + 3.0j, 2.0 ** 52 + 1.0j])
    for e in (0, math.inf, -math.inf):
        a = np.array([1.5, -0.0, 1e308, 5e-324])
        _ldexp(a, e)
        assert np.array_equal(bits(a), bits([1.5, -0.0, 1e308, 5e-324]))

    # _in_range: the array itself up to 2^exponent in every part; above it,
    # or not finite, the ValueError naming the subject and the bound
    a = np.array([TOP, -TOP * 1j])
    assert _in_range(a, "x") is a
    with pytest.raises(ValueError, match=r"^x exceeds the supported range "
                                         r"here: a value above 2\^3 \(8\)$"):
        _in_range(np.array([1.0, -8.5j]), "x", " here", exponent=3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^x is not finite here$"):
            _in_range(np.array([complex(0.0, bad)]), "x", " here")

    # a symbol's bound is checked as it is made, by every constructor and
    # the CLI's parser; a separable spec's is the product of its factors'
    assert Symbol1D.constant(-TOP).sup_bound == TOP
    for make in (lambda: Symbol1D.constant(-OVER * 1j),
                 lambda: Symbol1D.constant(TOP * (1 + 1j)),
                 lambda: Symbol1D.piecewise([[(0.0, 1.0)]], [OVER]),
                 lambda: Symbol1D.sampled(LineGrid(0.0, 1.0, 2), [1.0, OVER]),
                 lambda: parse_symbol(f"const:{OVER!r}"),
                 lambda: SymbolSpec.separable(Symbol1D.constant(2.0 ** 200),
                                              Symbol1D.constant(2.0 ** 200))):
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            make()
    with pytest.raises(ValueError, match=r"^symbol const:inf is not finite$"):
        parse_symbol("const:inf")


def test_gamma_of_a_scaled_symbol_keeps_the_bits(rect, shannon):
    # on records with no subnormal product every step of the grid and fft
    # rules is exact under a power of two, so gamma of const:2^256 is 2^256
    # times gamma of const:1, bit for bit
    one, top = Symbol1D.constant(1.0), Symbol1D.constant(TOP)
    for atom, grid, rule in ((rect, default_operator_grid("gabor", 64), "grid"),
                             (rect, default_operator_grid("gabor", 64), "fft"),
                             (rect, GABOR_GRID, "fft"),
                             (shannon, WAVELET_GRID, "grid")):
        ref = gamma(atom, one, grid, rule=rule).values
        got = gamma(atom, top, grid, rule=rule).values
        ref = np.ldexp(ref.view(float), RANGE_EXPONENT).view(complex)
        assert np.array_equal(bits(got), bits(ref)), (atom.name, rule)


@pytest.mark.parametrize("c", [1e307, 1e308])
def test_gamma_adaptive_near_the_largest_float(gaussian, rect, shannon, haar,
                                               c):
    # a constant near the largest float is out of range; at 2^256 the
    # adaptive rule's values and error estimate are 2^256 times those of
    # const:1 up to rounding, with no warning
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        Symbol1D.constant(c)
    for atom in (gaussian, rect, shannon, haar):
        grid = default_operator_grid(atom.case, 64)
        one = gamma(atom, Symbol1D.constant(1.0), grid, rule="adaptive")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = gamma(atom, Symbol1D.constant(TOP), grid, rule="adaptive")
        rel = np.max(np.abs(top.values / TOP - one.values)) / np.max(
            np.abs(one.values))
        assert rel <= 1e-10, (atom.name, rel)
        assert math.isfinite(top.abserr) and top.abserr <= TOP * 1e-10


def test_gamma_self_checks_are_relative_to_the_scale(gaussian):
    # a large constant passes the realness and symbol-bound checks under
    # every rule; values over the declared bound by 1e-6 relative do not
    grid = default_operator_grid("gabor", 64)
    over = Symbol1D(lambda x: np.full_like(x, 1e8 * (1 + 1e-6)), "over",
                    sup_bound=1e8)
    for rule in ("grid", "adaptive", "fft"):
        gf = gamma(gaussian, Symbol1D.constant(1e8), grid, rule=rule)
        assert gf.is_real and not gf.unbounded, rule
        assert np.max(np.abs(gf.values - 1e8)) <= 1e8 * 1e-6, rule
        with pytest.raises(ValueError, match="exceeded its symbol bound"):
            gamma(gaussian, over, grid, rule=rule)
    assert gamma(gaussian, Symbol1D.constant(1e6), grid, rule="fft").is_real


def test_gamma_function_realness_check_is_relative():
    grid = LineGrid(0.0, 1.0, 4)
    re = np.array([1e6, -2e6, 3.0, 0.0])
    gf = GammaFunction(grid, re + 1e-12 * 2e6j, "a", "s", "grid",
                       is_real=True)
    # the real part, a read-only C-contiguous float64 copy
    assert gf.values.dtype == np.float64 and not gf.values.flags.writeable
    assert gf.values.flags.c_contiguous
    assert gf.values.tobytes() == re.tobytes()
    with pytest.raises(ValueError, match="real symbol produced imaginary"):
        GammaFunction(grid, re * (1 + 1e-6j), "a", "s", "grid", is_real=True)


def test_gamma_function_keeps_real_float64_values():
    # float64 values of a real symbol are kept, as a read-only view (the
    # caller's array stays writeable); a complex or non-real input is cast
    grid = LineGrid(0.0, 1.0, 4)
    re = np.array([1.0, -2.0, 3.0, 0.5])
    gf = GammaFunction(grid, re, "a", "s", "grid", is_real=True)
    assert gf.values.dtype == np.float64 and gf.values.flags.c_contiguous
    assert np.shares_memory(gf.values, re) and not gf.values.flags.writeable
    assert re.flags.writeable
    strided = GammaFunction(grid, np.repeat(re, 2)[::2], "a", "s", "grid",
                            is_real=True)
    assert strided.values.flags.c_contiguous
    assert strided.values.tobytes() == re.tobytes()
    for values, is_real in ((re, False), (re.astype(complex), None)):
        gf = GammaFunction(grid, values, "a", "s", "grid", is_real=is_real)
        assert gf.values.dtype == np.complex128 and not gf.is_real
        assert np.array_equal(gf.values, re)


@pytest.mark.parametrize("name", ["gaussian", "shannon", "rect"])
def test_gamma_grid_holds_the_power_sums_alone(name, request):
    # the grid rule's gamma of a real symbol at n = 512 holds the float64
    # power sums themselves: 4.5 kB stay allocated (n x 8 = 4 kB; a complex
    # cast and its real part's copy held 8.5 kB), and the peak is the power
    # sums' blocks of _BLOCK_ROWS rows, 98.6 n x 8 B measured, far below
    # one K x n array (512 n x 8 B)
    atom = request.getfixturevalue(name)
    n = 512
    grid = default_operator_grid(atom.case, n)
    sym = parse_symbol("const:1")
    gamma(atom, sym, grid, rule="grid")
    tracemalloc.start()
    try:
        gf = gamma(atom, sym, grid, rule="grid")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gf.values.dtype == np.float64 and gf.values.flags.c_contiguous
    assert not gf.values.flags.writeable
    assert held <= n * 8 + 1024, f"held {held} B"
    assert peak <= 128 * n * 8, f"peak {peak / (n * 8):.1f} n x 8 B"


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
    # the interpolation kinks of this sampled symbol are not breakpoints: a
    # piece exhausts the batched rule's panel cap with an error estimate
    # (6.8e-5) far above the 1e-10 the sidecars state
    sym = Symbol1D.sampled(LineGrid(0.25, 1 / 16, 64),
                           np.random.default_rng(0).uniform(0, 1, 64))
    with pytest.raises(ArithmeticError, match=r"at xi=0\.0625: adaptive"):
        gamma(haar, sym, default_operator_grid("wavelet", 4), rule="adaptive")


def test_gamma_haar_adaptive_indicator_closed_form(haar):
    grid = LineGrid(2.0 ** -4, 4.0 / 64, 64)
    for a, b in [(0.5, 8.0), (1.0, 2.0), (0.25, 64.0), (3.0, 1000.0)]:
        gf = gamma(haar, Symbol1D.indicator(a, b), grid, rule="adaptive")
        ref = haar_indicator_gamma(haar, a, b, grid.samples)
        assert np.max(np.abs(gf.values - ref)) <= 1e-12, (a, b)


def test_gamma_haar_adaptive_abserr_within_stated_tolerance(haar):
    # 1e-10 is the adaptive-rule tolerance the gamma sidecar states
    grid = default_operator_grid("wavelet", 64)
    for sym in (Symbol1D.constant(0.5), Symbol1D.power(0.5),
                Symbol1D.smooth_step(8.0, log2_axis=True),
                Symbol1D.smooth_step(2.0, log2_axis=True)):
        gf = gamma(haar, sym, grid, rule="adaptive")
        assert gf.abserr <= 1e-10, (sym.descriptor, gf.abserr)


def test_gamma_adaptive_batches_do_not_change_bits(haar):
    # 64 haar frequencies hold more than GK_MAX_POINTS segments, and the
    # adaptive pass integrates them in halves; two frequencies at a time
    # are not.  The table path reads each frequency's P alone, 512 at once
    # or two at a time
    sym = Symbol1D.indicator(0.5, 8.0)
    for sym, n in ((sym, 512), (_without_pieces(sym), 64)):
        grid = LineGrid(2.0 ** -4, 2.0 ** -4, n)
        whole = gamma(haar, sym, grid, rule="adaptive").values
        pairs = np.concatenate([
            gamma(haar, sym, LineGrid(x, grid.step, 2), rule="adaptive").values
            for x in grid.samples[::2]])
        assert whole.tobytes() == pairs.tobytes()


def test_gauss_kronrod_real_integrand_is_one_part():
    # a real integrand and its values cast to complex integrate to the same
    # bits: the zero imaginary part adds nothing
    lo, hi = np.array([0.0, 1.0, -2.0]), np.array([1.0, 5.0, 3.0])
    w = np.array([1.0, 3.0, 0.5])

    def real(t, j):
        return np.exp(-w[j] * t * t) * np.cos(7.0 * t)

    vr, er = gauss_kronrod(real, lo, hi, str)
    vc, ec = gauss_kronrod(lambda t, j: real(t, j).astype(complex),
                           lo, hi, str)
    assert vr.tobytes() == vc.tobytes()
    assert er.tobytes() == ec.tobytes()


def test_package_has_one_adaptive_quadrature():
    # tfloc integrates adaptively with quadrature.gauss_kronrod alone and
    # transforms with numpy.fft alone; any scipy import would bring a
    # second engine back, and a second runtime dependency with it
    src = Path(tfloc.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_importing_tfloc_loads_no_scipy():
    code = ("import sys, tfloc, tfloc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(tfloc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_gamma_adaptive_repeats_bit_identical(gaussian, shannon, haar):
    for atom, sym in [(gaussian, Symbol1D.piecewise(
            [[(-1.0, 0.5)], [(0.5, 2.0)]], [1j, 0.5])),
            (shannon, Symbol1D.smooth_step(8.0, log2_axis=True)),
            (haar, Symbol1D.constant(0.5))]:
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
    grid = default_operator_grid("gabor", 32)
    with pytest.raises(ArithmeticError, match=r"square:10000 at xi=.*300 panels"):
        gamma(gaussian, square_wave, grid, rule="adaptive")
    # a symbol with no bound, infinite or above 2^256 where it is
    # integrated, fails the range check of its samples
    for c, error in ((math.inf, r"^symbol c is not finite on the grid$"),
                     (OVER, OUT_OF_RANGE)):
        with pytest.raises(ValueError, match=error):
            gamma(gaussian, Symbol1D(lambda x: np.full_like(x, c), "c"), grid,
                  rule="adaptive")


def test_gamma_adaptive_abserr(gaussian):
    gf = gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), GABOR_GRID,
               rule="adaptive")
    ref = gabor_indicator_gamma(-1.0, 1.0, GABOR_GRID.samples)
    assert 0.0 < gf.abserr <= 1e-10
    assert np.max(np.abs(gf.values - ref)) <= 1e-10
    assert gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), GABOR_GRID,
                 rule="grid").abserr is None


# -- the cumulative-profile table against the adaptive pass ----------------------

# the table's largest difference from the adaptive pass is 3.9 eps (haar,
# indicator:1,inf at n = 512, where a 30-digit mpmath integral is the nearer
# to the table's value); the bound is 8 eps
TABLE_BOUND = 8 * np.finfo(float).eps


def _without_pieces(sym):
    """``sym`` as a plain callable symbol, with its metadata but no recorded
    pieces: the adaptive rule then integrates it with the adaptive pass."""
    return Symbol1D(sym.fn, sym.descriptor, sym.breakpoints, sym.support,
                    sym.is_real, sym.sup_bound)


def _table_symbols(atom):
    """An indicator, a half-line, a complex constant, the indicators of a
    3-piece partition and a complex combination of them."""
    if atom.case == "gabor":
        syms, cuts = ["indicator:-1,1", "indicator:-inf,0"], [-1.0, 1.0]
    else:
        syms, cuts = ["indicator:1,2", "indicator:1,inf"], [0.5, 2.0]
    part = Partition(atom, cuts)
    return [*map(parse_symbol, syms), parse_symbol("const:1+1j"),
            *part.indicator_symbols(),
            Symbol1D.piecewise(part.pieces, [1.0, 2j, -0.5 + 0.25j])]


@pytest.mark.parametrize("n", [64, 128, 512])
@pytest.mark.parametrize("atom_name", [
    prefix + name for prefix in ("", "imported-")
    for name in ("gaussian", "rect", "shannon", "haar")])
def test_gamma_table_matches_the_adaptive_pass(atom_name, n, request,
                                               imported):
    # an imported atom's profile interpolates its samples, its nodes listed
    # as profile breakpoints: the adaptive pass splits at them, and the
    # table's panels end at them.  Its table sums 500 to 1,000 panels, and
    # its bound is 8 eps per unit of sup |alpha| (10.0 eps read for
    # imported shannon's complex 3-piece symbol, sup |alpha| = 2)
    atom = request.getfixturevalue(atom_name.removeprefix("imported-"))
    is_imported = atom_name != atom.name
    if is_imported:
        atom = imported(atom)
    grid = default_operator_grid(atom.case, n)
    if atom.case == "wavelet" and n == 64:
        # both signs of frequency, and zero
        grid = LineGrid(-2.0, 1.0 / 16, 64)
    # the adaptive pass integrates haar's half-lines across its 2,047
    # profile zeros, about 2 s a call at n = 512: there the oracle reads
    # every 4th frequency of the table's grid
    stride = 4 if n == 512 else 1
    sub = LineGrid(grid.samples[1 % stride], stride * grid.step, n // stride)
    assert np.array_equal(sub.samples, grid.samples[1 % stride::stride])
    for sym in _table_symbols(atom):
        table = gamma(atom, sym, grid, rule="adaptive")
        ref = gamma(atom, _without_pieces(sym), sub, rule="adaptive")
        diff = table.values[1 % stride::stride] - ref.values
        bound = TABLE_BOUND * (max(1.0, sym.sup_bound) if is_imported
                               else 1.0)
        assert np.max(np.abs(diff)) <= bound, sym.descriptor
        assert table.abserr <= 1e-11 * max(1.0, sym.sup_bound)


def test_profile_tables_reach_the_fiber_norm(gaussian, rect, shannon, haar):
    # P rises from 0 over the support to the fiber norm: 1 for a unit-norm
    # window, the admissibility integral at either sign of xi for a real
    # wavelet; the table's summed panel error estimates are at most 1e-12
    for atom in (gaussian, rect, shannon, haar):
        edges, P, err = atom._profile_table
        if atom.case == "wavelet":
            support = atom.freq_support
            norms = [atom.admissibility_integral(s) for s in (1.0, -1.0)]
        else:
            support, norms = atom.time_support, [1.0]
        assert (edges[0], edges[-1]) == support
        assert P[0] == 0.0 and np.all(np.diff(P) >= 0.0)
        for norm in norms:
            assert abs(P[-1] - norm) <= 4 * np.finfo(float).eps, atom.name
        assert 0.0 < err <= 1e-12, (atom.name, err)


def test_gamma_adaptive_path_of_each_symbol(gaussian, haar, monkeypatch,
                                            imported):
    # a symbol built by constant, indicator or piecewise takes the table;
    # a plain callable with an indicator's values and a sampled symbol
    # take the adaptive pass; an imported atom's indicator takes the table
    passes = []
    adaptive = tfloc.kernels.gauss_kronrod
    monkeypatch.setattr(tfloc.kernels, "gauss_kronrod",
                        lambda *a: passes.append(1) or adaptive(*a))
    grid = default_operator_grid("wavelet", 64)
    indicator = Symbol1D.indicator(1.0, 2.0)
    sampled = Symbol1D.sampled(LineGrid(0.5, 0.25, 9), np.ones(9))
    for sym, pass_taken in ((indicator, False),
                            (Symbol1D.constant(0.5), False),
                            (Symbol1D.piecewise([[(1.0, 2.0)]], [1j]), False),
                            (_without_pieces(indicator), True),
                            (sampled, True)):
        passes.clear()
        gamma(haar, sym, grid, rule="adaptive")
        assert bool(passes) == pass_taken, sym.descriptor
    passes.clear()
    gamma(imported(gaussian), indicator, default_operator_grid("gabor", 8),
          rule="adaptive")
    assert not passes


def test_gamma_table_profile_evaluations_are_bounded(monkeypatch):
    # haar const:1+1j at n = 512 reads the table at 2 ends per frequency,
    # one 21-point panel each, once the table is built; the adaptive pass
    # integrated every frequency across haar's 2,047 profile zeros
    atom = make_wavelet("haar")
    points = []
    power = atom.eval_power
    monkeypatch.setattr(atom, "eval_power",
                        lambda xi: points.append(np.size(xi)) or power(xi))
    edges = atom._profile_table[0]
    assert 0 < sum(points) <= 2 * 21 * len(edges)
    points.clear()
    grid = default_operator_grid("wavelet", 512)
    sym = parse_symbol("const:1+1j")
    gamma(atom, sym, grid, rule="adaptive")
    assert sum(points) <= 2 * 21 * grid.count * len(sym._pieces)


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


@pytest.mark.parametrize("grid", [
    # strides 4, 2 and 1 on the translation grid
    pytest.param(default_operator_grid("gabor", 64), id="default-64"),
    pytest.param(default_operator_grid("gabor", 128), id="default-128"),
    pytest.param(default_operator_grid("gabor", 256), id="default-256"),
    # starts left of the translation grid
    pytest.param(LineGrid(-20.0, 1 / 16, 256), id="left-of-lattice"),
    pytest.param(LineGrid(10.0, 1 / 8, 200), id="right-stride-2"),
    pytest.param(LineGrid(-16.0, 1 / 16, 512), id="wide-512"),
    # off the translation lattice: its step, then its offset
    pytest.param(LineGrid(-8.0, 0.07, 128), id="step-off-lattice"),
    pytest.param(LineGrid(-8.0 + 1 / 32, 1 / 16, 256), id="offset-off-lattice"),
])
def test_gamma_fft_rule_matches_direct_quadrature(gaussian, grid):
    # fft is a second name for the grid rule: the same bits on every grid
    for sym in (Symbol1D.indicator(-1.0, 1.0), Symbol1D.smooth_step(4.0),
                Symbol1D.constant(0.5 + 0.25j),
                Symbol1D.gaussian_bump(8.0, 3.0)):
        g_fft = gamma(gaussian, sym, grid, rule="fft")
        g_grid = gamma(gaussian, sym, grid, rule="grid")
        assert np.array_equal(bits(g_fft.values), bits(g_grid.values))


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


def test_sampled_symbol_interpolates_its_samples():
    # real, complex and zero-imaginary samples, read inside and outside the
    # grid: the values of SampledFunction.interp, whose formula
    # test_grids_io pins, with the same dtype
    grid = LineGrid(-3.0, 1 / 16, 97)
    x = np.linspace(-40.0, 40.0, 20011)
    re, im = np.random.default_rng(5).standard_normal((2, 97))
    for values, real in [(re, True), (re + 1j * im, False), (re + 0j, True)]:
        sym = Symbol1D.sampled(grid, values, "s")
        vals, ref = sym(x), SampledFunction(grid, values).interp(x)
        assert vals.dtype == ref.dtype and vals.tobytes() == ref.tobytes()
        assert vals.dtype == (np.float64 if real else np.complex128)
        assert sym.is_real is real and sym.support == (-3.0, 3.0)
        assert sym.sup_bound == float(np.max(np.abs(values)))
    with pytest.raises(ValueError,
                       match="sampled function contains non-finite values"):
        Symbol1D.sampled(grid, np.where(grid.samples > 0, np.inf, 1.0))


def test_symbol_sample_is_the_call_or_its_error(monkeypatch):
    calls = []
    original = Symbol1D.__call__

    def counted(self, x):
        calls.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(Symbol1D, "__call__", counted)
    x = np.linspace(-2.0, 2.0, 9)
    sym = Symbol1D.gaussian_bump(1.0)
    assert sym.sample(x).tobytes() == sym(x).tobytes()
    assert calls == [9, 9]
    spike = Symbol1D(lambda x: np.where(x > 0.5, np.inf, 1.0), "spike")
    with pytest.raises(ValueError,
                       match=r"^symbol spike is not finite on the grid$"):
        spike.sample(x)


def test_evaluate_field_of_each_kind_and_its_non_finite_values():
    # one-variable symbols are checked on their column or row, before the
    # broadcast copy; the values and the error are those of the whole field
    r = np.linspace(-2.0, 2.0, 5)
    s = np.linspace(-1.0, 3.0, 7)
    a = Symbol1D.indicator(-1.0, 1.0)
    b = Symbol1D.gaussian_bump(1.0)
    specs = {"a(r)": (SymbolSpec.first_variable(a), np.outer(a(r), 0 * s + 1)),
             "a(s)": (SymbolSpec.second_variable(b), np.outer(0 * r + 1, b(s))),
             "sep": (SymbolSpec.separable(a, b), np.outer(a(r), b(s))),
             "gen": (SymbolSpec.general(lambda x, y: x * y), np.outer(r, s))}
    for label, (spec, ref) in specs.items():
        vals = spec.evaluate_field(r, s)
        assert vals.shape == (5, 7) and vals.flags.writeable, label
        assert np.array_equal(vals, ref), label
    spike = Symbol1D(lambda x: np.where(x > 0.5, np.inf, 1.0), "spike")
    for spec in (SymbolSpec.first_variable(spike),
                 SymbolSpec.second_variable(spike),
                 SymbolSpec.separable(spike, b),
                 SymbolSpec.general(lambda x, y: spike(x) * y, "g")):
        with pytest.raises(ValueError, match="is not finite on the grid"):
            spec.evaluate_field(r, s)


# -- the seam where a symbol meets the grid -------------------------------------

def test_one_seam_where_a_symbol_meets_the_grid(scopes_where):
    # a symbol is evaluated at a grid's nodes or samples only inside the
    # seam, cell_values and cell_field; every other sample of a symbol is
    # the adaptive gamma's, at its quadrature points, and no route calls
    # evaluate_field
    evaluators = ("sample", "_compact_field", "evaluate_field", "fn",
                  "general_fn", "alpha", "beta")

    def reads_a_grid(node):
        return any(isinstance(n, ast.Attribute) and n.attr in ("nodes",
                                                               "samples")
                   for arg in node.args for n in ast.walk(arg))

    def calls(names):
        return lambda node: (isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Attribute)
                             and node.func.attr in names)

    at_grid_nodes = scopes_where(lambda node: calls(evaluators)(node)
                                 and reads_a_grid(node))
    assert sorted(at_grid_nodes) == ["symbols.py:Symbol1D.cell_values",
                                     "symbols.py:SymbolSpec.cell_field"]
    assert sorted(scopes_where(calls(("sample",)))) == [
        "kernels.py:_gamma_adaptive.integrand"] * 2 + [
        "symbols.py:Symbol1D.cell_values"]
    assert sorted(scopes_where(calls(("_compact_field",)))) == [
        "symbols.py:SymbolSpec.cell_field",
        "symbols.py:SymbolSpec.evaluate_field"]
    assert scopes_where(calls(("evaluate_field",))) == []


def _grid_routes(atom, alpha, beta, general, grid, signal):
    """The bits of every route that reads a symbol on the grid, for the
    first-variable alpha, the second-variable beta and a general spec."""
    first = SymbolSpec.first_variable(alpha)
    separable = SymbolSpec.separable(alpha, beta)
    out = {f"build_direct {spec.kind}": build_direct(atom, spec, grid).values
           for spec in (first, SymbolSpec.second_variable(beta), separable,
                        general)}
    for rule in ("grid", "fft"):
        out[f"gamma {rule}"] = gamma(atom, alpha, grid, rule=rule).values
    out["weighted_overlap_kernel"] = weighted_overlap_kernel(
        atom, alpha, grid).values
    out["build_integral"] = build_integral(atom, beta, grid).values
    out["build_pseudodiff"] = build_pseudodiff(atom, alpha, beta, grid).values
    out["fast filter"] = filter_signal(atom, first, signal, "fast")[0].values
    for spec in (first, separable, general):
        out[f"slow filter {spec.kind}"] = filter_signal(
            atom, spec, signal, "slow")[0].values
    return {route: bits(values).tobytes() for route, values in out.items()}


def test_every_grid_route_reads_the_symbol_through_the_seam(
        monkeypatch, gaussian, shannon):
    # with the seam patched to hand each symbol's grid values to another,
    # every route that reads the grid gives the other symbol's bits; the
    # adaptive gamma, the continuum reference, reads the symbol itself and
    # does not move
    signal = random_bandlimited(LineGrid.centered(8.0, 256), seed=5)
    swap = {}  # a symbol, or a general symbol's function -> its stand-in

    def swapped(x):
        return swap.get(x, x)

    values, field = Symbol1D.cell_values, SymbolSpec.cell_field
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 64)
        if atom.case == "gabor":
            alpha, alpha2 = (Symbol1D.indicator(-1.0, 1.0),
                             Symbol1D.smooth_step(2.0))
        else:
            alpha, alpha2 = (Symbol1D.indicator(1.0, 2.0),
                             Symbol1D.smooth_step(4.0, log2_axis=True))
        beta, beta2 = (Symbol1D.cosine_window(2.0),
                       Symbol1D.gaussian_bump(1.0, 0.3))
        disk = SymbolSpec.general(
            lambda r, s: (r * r + s * s <= 4.0).astype(float), "disk:2")
        radial = SymbolSpec.general(
            lambda r, s: np.exp(-np.pi * (r * r + s * s)), "radial")
        own_args = (atom, alpha, beta, disk, grid, signal)
        own = _grid_routes(*own_args)
        stand_in = _grid_routes(atom, alpha2, beta2, radial, grid, signal)
        adaptive = {a: gamma(atom, a, grid, rule="adaptive").values.tobytes()
                    for a in (alpha, alpha2)}
        assert all(own[route] != stand_in[route] for route in own)

        swap.clear()
        swap.update({alpha: alpha2, beta: beta2,
                     disk.general_fn: radial.general_fn, alpha2: alpha})
        with monkeypatch.context() as m:
            m.setattr(Symbol1D, "cell_values",
                      lambda self, grid: values(swapped(self), grid))
            m.setattr(SymbolSpec, "cell_field",
                      lambda self, g1, g2, rows=slice(None): field(
                          SymbolSpec(self.kind, swapped(self.alpha),
                                     swapped(self.beta),
                                     swapped(self.general_fn),
                                     self.descriptor),
                          g1, g2, rows))
            patched = _grid_routes(*own_args)
            for a in (alpha, alpha2):
                assert gamma(atom, a, grid, rule="adaptive").values.tobytes() \
                    == adaptive[a], a.descriptor
        for route in own:
            assert patched[route] == stand_in[route], (atom.name, route)
