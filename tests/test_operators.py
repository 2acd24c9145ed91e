import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from tfloc.atoms import Fibers
from tfloc.fields import omega_grid, omega_side, random_bandlimited
from tfloc.fourier import _fourier_rows, fourier
from tfloc.grids import LineGrid, SampledFunction, induced_grid
from tfloc.kernels import (gamma, overlap_kernel, spectrum_from_gamma,
                           weighted_overlap_kernel)
from tfloc.operators import (LOWRANK_TAIL, EquivalenceSpec, OperatorMatrix, _lowrank_factors, build_direct,
                             build_integral, build_multiplication,
                             build_pseudodiff, default_operator_grid,
                             filter_signal, hausdorff_distance, operator_norm,
                             spectrum, verify_equivalence)
from tfloc.symbols import Symbol1D, SymbolSpec

G128 = default_operator_grid("gabor", 128)
W128 = default_operator_grid("wavelet", 128)


def _grid_for(atom, n=128):
    return default_operator_grid(atom.case, n)


# -- direct builder ------------------------------------------------------------

def test_direct_constant_symbol_is_identity(gaussian, shannon):
    for atom in (gaussian, shannon):
        M = build_direct(atom, SymbolSpec.first_variable(Symbol1D.constant(1.0)),
                         _grid_for(atom))
        assert np.max(np.abs(M.values - np.eye(128))) <= 1e-6


def test_direct_first_variable_hermitian_and_near_diagonal(gaussian):
    M = build_direct(gaussian,
                     SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)),
                     G128)
    assert M.is_hermitian
    off = M.values - np.diag(np.diag(M.values))
    frac = np.linalg.norm(off) / np.linalg.norm(M.values)
    assert frac <= 1e-3


def test_direct_linear_in_symbol(gaussian):
    s1 = SymbolSpec.first_variable(Symbol1D.indicator(-2.0, 0.0))
    s2 = SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0))
    both = SymbolSpec.general(
        lambda r, s: ((r >= -2.0) & (r <= 0.0)).astype(float)
        + np.exp(-np.pi * s ** 2) * np.ones_like(r),
        descriptor="sum")
    M1 = build_direct(gaussian, s1, G128)
    M2 = build_direct(gaussian, s2, G128)
    M = build_direct(gaussian, both, G128)
    assert np.max(np.abs(M.values - (M1.values + M2.values))) <= 1e-10


def test_direct_hermitian_iff_real_symbol(gaussian):
    real = build_direct(gaussian,
                        SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)),
                        G128)
    assert real.is_hermitian
    cplx = build_direct(
        gaussian,
        SymbolSpec.first_variable(Symbol1D.piecewise([[(-1.0, 1.0)]], [1j])),
        G128)
    assert not cplx.is_hermitian


def test_direct_rejects_nonfinite_symbol(gaussian):
    spec = SymbolSpec.general(
        lambda r, s: np.full((r.size, s.size), np.inf), descriptor="inf")
    with pytest.raises(ValueError, match="finite"):
        build_direct(gaussian, spec, G128)


# -- low-rank assembly against the column loop ---------------------------------

def _direct_column_loop(atom, spec, xi_grid):
    """Reference pipeline: one embed/transform/multiply/transform/project
    pass per basis vector, as the direct route was assembled before its
    low-rank form.  O(n^2 K log n); small n only."""
    n = xi_grid.count
    assert n <= 64
    s_grid = induced_grid(xi_grid)
    a_field = spec.evaluate_field(atom.g1.nodes, s_grid.samples)
    L = atom.ell_matrix(xi_grid.samples)
    Lc = np.conj(L)
    w = atom.g1.measure_weights
    back_sign = "inverse" if atom.case == "wavelet" else "forward"
    fwd_sign = "forward" if atom.case == "wavelet" else "inverse"
    T_back = _fourier_rows(np.eye(n, dtype=complex), xi_grid, back_sign, s_grid)
    M = np.empty((n, n), dtype=complex)
    for j in range(n):
        H = a_field * np.outer(L[:, j], T_back[j])
        Y = _fourier_rows(H, s_grid, fwd_sign, xi_grid)
        M[:, j] = np.einsum("k,ki,ki->i", w, Lc, Y)
    return M


def _oracle_specs(case):
    if case == "gabor":
        alpha, beta = Symbol1D.indicator(-1.0, 1.0), Symbol1D.cosine_window(2.0)
    else:
        alpha, beta = Symbol1D.indicator(1.0, 2.0), Symbol1D.gaussian_bump(1.0)
    return {
        "first": SymbolSpec.first_variable(alpha),
        "second": SymbolSpec.second_variable(beta),
        "separable": SymbolSpec.separable(alpha, beta),
        "radial": SymbolSpec.general(
            lambda r, s: np.exp(-np.pi * (r ** 2 + s ** 2)), "radial"),
        "disk": SymbolSpec.general(
            lambda r, s: (r ** 2 + s ** 2 <= 4.0).astype(float), "disk:2"),
        "chirp": SymbolSpec.general(
            lambda r, s: np.cos(np.pi * r * s) * np.exp(-0.05 * (r ** 2 + s ** 2)),
            "chirp"),
        "complex": SymbolSpec.general(
            lambda r, s: np.exp(-np.pi * ((r - 0.5) ** 2 + s ** 2) + 1j * r * s),
            "complex"),
    }


@pytest.mark.parametrize("atom_name", ["gaussian", "shannon", "haar"])
def test_direct_lowrank_matches_column_loop(atom_name, request):
    atom = request.getfixturevalue(atom_name)
    grid = _grid_for(atom, 64)
    for kind, spec in _oracle_specs(atom.case).items():
        M = build_direct(atom, spec, grid)
        ref = _direct_column_loop(atom, spec, grid)
        rel = operator_norm(M.values - ref) / operator_norm(ref)
        assert rel <= 1e-13, f"{atom.name}/{kind}: {rel:.2e}"
        assert M.lowrank_tail <= 1e-13
        if kind in ("first", "second", "separable", "radial"):
            assert M.lowrank_rank == 1, f"{atom.name}/{kind}"
        else:
            assert 1 < M.lowrank_rank <= grid.count


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_direct_radial_gaussian_daubechies_eigenvalues(gaussian, sigma):
    # Daubechies (1988): with the Gaussian window, the radial symbol
    # exp(-pi (q^2 + p^2) / sigma^2) has the Hermite functions as
    # eigenfunctions and eigenvalues (1 + sigma^-2)^-(k+1)
    spec = SymbolSpec.general(
        lambda q, p: np.exp(-np.pi * (q * q + p * p) / sigma ** 2),
        f"radial:{sigma:g}")
    M = build_direct(gaussian, spec, default_operator_grid("gabor", 256))
    lead = np.sort(spectrum(M).values.real)[::-1][:16]
    ref = (1.0 + sigma ** -2) ** -(np.arange(16) + 1.0)
    assert np.max(np.abs(lead - ref)) <= 1e-10


def test_direct_disk_daubechies_eigenvalues(gaussian):
    # Daubechies (1988): the disk of radius R has eigenvalues P(k+1, pi R^2)
    # (regularized lower incomplete gamma); the sampled disk edge is a
    # staircase of one grid step, measured 3.5e-3 at n = 256
    spec = SymbolSpec.general(
        lambda q, p: (q * q + p * p <= 4.0).astype(float), "disk:2")
    M = build_direct(gaussian, spec, default_operator_grid("gabor", 256))
    lead = np.sort(spectrum(M).values.real)[::-1][:20]
    ref = gammainc(np.arange(20) + 1.0, 4.0 * np.pi)
    assert np.max(np.abs(lead - ref)) <= 1e-2


def test_direct_zero_symbol_is_zero(gaussian, shannon):
    for atom in (gaussian, shannon):
        with np.errstate(divide="raise", invalid="raise"):
            M = build_direct(
                atom, SymbolSpec.first_variable(Symbol1D.constant(0.0)),
                _grid_for(atom, 32))
        assert not np.any(M.values)
        assert M.lowrank_rank == 0 and M.lowrank_tail == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rank=st.sampled_from([0, 1, 2, 5, 20]), complex_field=st.booleans(),
       shape=st.sampled_from([(64, 48), (48, 64), (128, 32)]),
       decades=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_lowrank_factors_contract(rank, complex_field, shape, decades, seed):
    # a product of random rank-r factors, columns scaled over a few decades
    rng = np.random.default_rng(seed)

    def draw(*size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if complex_field else x

    K, n = shape
    a = (draw(K, rank) @ draw(rank, n)) * 10.0 ** rng.uniform(-decades, 0.0, n)
    Q, V, tail = _lowrank_factors(a)
    assert Q.shape == (K, rank) and V.shape == (rank, n)
    a_norm = np.linalg.norm(a)
    rel = np.linalg.norm(a - Q @ V) / a_norm if a_norm else 0.0
    assert rel <= LOWRANK_TAIL and tail <= LOWRANK_TAIL
    assert abs(rel - tail) <= 1e-14


# -- multiplication route -----------------------------------------------------------

def test_multiplication_identity_and_spectrum(gaussian):
    gf = gamma(gaussian, Symbol1D.constant(1.0), G128, rule="grid")
    M = build_multiplication(gf)
    assert np.max(np.abs(M.values - np.eye(128))) <= 1e-6
    rep = spectrum(M)
    assert np.max(np.abs(np.sort(rep.values.real)
                         - np.sort(gf.values.real))) <= 1e-12


def test_multiplication_matches_direct(gaussian, shannon):
    for atom in (gaussian, shannon):
        sym = (Symbol1D.indicator(-1.0, 1.0) if atom.case == "gabor"
               else Symbol1D.indicator(1.0, 2.0))
        grid = _grid_for(atom, 256)
        M1 = build_direct(atom, SymbolSpec.first_variable(sym), grid)
        M2 = build_multiplication(gamma(atom, sym, grid, rule="grid"))
        assert operator_norm(M1.values - M2.values) <= 1e-3 * operator_norm(M1)


# -- integral route -------------------------------------------------------------------

def test_integral_constant_beta_is_identity(gaussian, shannon):
    for atom in (gaussian, shannon):
        M = build_integral(atom, Symbol1D.constant(1.0), _grid_for(atom))
        assert operator_norm(M.values - np.eye(128)) <= 2e-3


def test_integral_real_beta_hermitian(gaussian, shannon):
    for atom in (gaussian, shannon):
        M = build_integral(atom, Symbol1D.gaussian_bump(1.0), _grid_for(atom))
        assert np.max(np.abs(M.values - M.values.conj().T)) <= 1e-8


def test_integral_matches_direct_random_smooth_beta(gaussian, shannon):
    rng = np.random.default_rng(8)
    for atom in (gaussian, shannon):
        grid = _grid_for(atom)
        coeff = rng.standard_normal(3)
        beta = Symbol1D(
            lambda s, c=coeff: (c[0] * np.exp(-np.pi * s ** 2)
                                + c[1] * np.exp(-np.pi * (s - 0.5) ** 2)
                                + c[2] * np.exp(-2 * np.pi * s ** 2)),
            "mix-of-bumps")
        M1 = build_direct(atom, SymbolSpec.second_variable(beta), grid)
        M2 = build_integral(atom, beta, grid)
        rel = operator_norm(M1.values - M2.values) / operator_norm(M1)
        assert rel <= 5e-3, f"{atom.name}: {rel:.2e}"


# -- pseudodifferential route -----------------------------------------------------------

def test_pseudodiff_alpha_one_reduces_to_integral(gaussian):
    beta = Symbol1D.gaussian_bump(1.0)
    M1 = build_pseudodiff(gaussian, Symbol1D.constant(1.0), beta, G128)
    M2 = build_integral(gaussian, beta, G128)
    assert np.max(np.abs(M1.values - M2.values)) <= 1e-6


def test_integral_route_is_the_compound_route_with_alpha_one(gaussian,
                                                            shannon):
    # the identity that lets the two builders stay separate: bit for bit,
    # both for the kernels and for the assembled operators
    one = Symbol1D.constant(1.0)
    beta = Symbol1D.gaussian_bump(1.0)
    for atom in (gaussian, shannon):
        grid = _grid_for(atom)
        assert np.array_equal(overlap_kernel(atom, grid).values,
                              weighted_overlap_kernel(atom, one, grid).values)
        assert np.array_equal(build_integral(atom, beta, grid).values,
                              build_pseudodiff(atom, one, beta, grid).values)


def test_pseudodiff_beta_one_reduces_to_multiplication(gaussian, shannon):
    for atom in (gaussian, shannon):
        sym = (Symbol1D.indicator(-1.0, 1.0) if atom.case == "gabor"
               else Symbol1D.indicator(1.0, 2.0))
        grid = _grid_for(atom)
        M1 = build_pseudodiff(atom, sym, Symbol1D.constant(1.0), grid)
        M2 = build_multiplication(gamma(atom, sym, grid, rule="grid"))
        assert operator_norm(M1.values - M2.values) <= 2e-3


def test_pseudodiff_matches_direct_separable(gaussian, shannon):
    for atom in (gaussian, shannon):
        grid = _grid_for(atom)
        alpha = (Symbol1D.indicator(0.0, math.inf) if atom.case == "gabor"
                 else Symbol1D.indicator(0.5, 8.0))
        beta = Symbol1D.cosine_window(2.0)
        M1 = build_direct(atom, SymbolSpec.separable(alpha, beta), grid)
        M2 = build_pseudodiff(atom, alpha, beta, grid)
        rel = operator_norm(M1.values - M2.values) / operator_norm(M1)
        assert rel <= 5e-3, f"{atom.name}: {rel:.2e}"


# -- equivalence harness ------------------------------------------------------------------

def test_verify_equivalence_cto1(gaussian):
    rep = verify_equivalence(EquivalenceSpec(
        "cto1", gaussian, alpha=Symbol1D.indicator(-1.0, 1.0),
        xi_grid=default_operator_grid("gabor", 256), seed=7))
    assert rep.passed and rep.norm_discrepancy <= 1e-3


def test_verify_equivalence_cto2(shannon):
    rep = verify_equivalence(EquivalenceSpec(
        "cto2", shannon, beta=Symbol1D.gaussian_bump(1.0), seed=11))
    assert rep.passed and rep.norm_discrepancy <= 5e-3
    assert rep.N == 128


def test_verify_equivalence_cto3(gaussian):
    rep = verify_equivalence(EquivalenceSpec(
        "cto3", gaussian, alpha=Symbol1D.indicator(0.0, math.inf),
        beta=Symbol1D.cosine_window(2.0), seed=3))
    assert rep.passed and rep.norm_discrepancy <= 5e-3


def test_verify_reports_failure_without_raising(gaussian):
    # mismatched routes: compare the direct operator for one symbol against
    # the multiplication operator of another
    espec = EquivalenceSpec("cto1", gaussian,
                            alpha=Symbol1D.indicator(-1.0, 1.0),
                            xi_grid=G128, seed=0, tolerance=1e-16)
    rep = verify_equivalence(espec)
    assert not rep.passed  # rounding exceeds an absurd tolerance
    assert rep.to_dict()["pass"] is False


# -- spectra -------------------------------------------------------------------------------

def test_spectrum_identity(gaussian):
    M = build_direct(gaussian,
                     SymbolSpec.first_variable(Symbol1D.constant(1.0)), G128)
    rep = spectrum(M)
    assert np.max(np.abs(rep.values - 1.0)) <= 1e-6


def test_spectrum_norm_estimate_is_largest_singular_value(gaussian):
    herm = build_direct(gaussian, SymbolSpec.separable(
        Symbol1D.indicator(0.0, math.inf), Symbol1D.cosine_window(2.0)), G128)
    cplx = build_direct(gaussian, SymbolSpec.first_variable(
        Symbol1D.piecewise([[(-1.0, 1.0)]], [1j])), G128)
    assert herm.is_hermitian and not cplx.is_hermitian
    for M in (herm, cplx):
        sv = np.linalg.svd(M.values, compute_uv=False)[0]
        assert abs(spectrum(M).norm_estimate - sv) <= 1e-12 * sv


def test_spectrum_diag_interval_for_real_symbol(gaussian):
    gf = gamma(gaussian, Symbol1D.indicator(-1.0, 1.0), G128, rule="grid")
    rep = spectrum(build_multiplication(gf))
    lo, hi = float(gf.values.real.min()), float(gf.values.real.max())
    assert np.all(rep.values.real >= lo - 1e-9)
    assert np.all(rep.values.real <= hi + 1e-9)


def test_spectrum_direct_indicator_is_positive_contraction(gaussian):
    M = build_direct(gaussian,
                     SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)),
                     G128)
    eigs = spectrum(M).values.real
    assert eigs.min() >= -1e-3 and eigs.max() <= 1.0 + 1e-3


def test_norm_theorem_four_catalog_symbols(gaussian, shannon):
    pools = {
        "gabor": [Symbol1D.indicator(-1.0, 1.0),
                  Symbol1D.indicator(-math.inf, 0.0),
                  Symbol1D.smooth_step(4.0),
                  Symbol1D.gaussian_bump(8.0)],
        "wavelet": [Symbol1D.indicator(1.0, 2.0),
                    Symbol1D.indicator(0.5, 8.0),
                    Symbol1D.smooth_step(8.0, log2_axis=True),
                    Symbol1D.constant(0.5)],
    }
    for atom in (gaussian, shannon):
        grid = _grid_for(atom, 256)
        for sym in pools[atom.case]:
            M = build_direct(atom, SymbolSpec.first_variable(sym), grid)
            sup = spectrum_from_gamma(
                gamma(atom, sym, grid, rule="adaptive")).norm_estimate
            rel = abs(operator_norm(M) - sup) / sup
            assert rel <= 1e-3, f"{atom.name}/{sym.descriptor}: {rel:.2e}"


def test_noncompactness_proxy(gaussian):
    # multiplication operators are never compact: eigenvalues do not pile
    # up at zero when gamma is large on a chunk of the window
    M = build_direct(gaussian,
                     SymbolSpec.first_variable(Symbol1D.indicator(-2.0, 2.0)),
                     default_operator_grid("gabor", 256))
    eigs = np.abs(spectrum(M).values)
    norm = operator_norm(M)
    gf = gamma(gaussian, Symbol1D.indicator(-2.0, 2.0),
               default_operator_grid("gabor", 256), rule="grid")
    heavy_fraction = float(np.mean(np.abs(gf.values) > norm / 2))
    assert heavy_fraction >= 0.10
    assert float(np.mean(eigs > norm / 2)) >= 0.10


def test_operator_norm_hermitian_uses_eigenvalues(gaussian, shannon):
    # a Hermitian OperatorMatrix takes max |eigvalsh|, the value spectrum
    # reports; it agrees with the SVD to rounding, and raw arrays keep the SVD
    for atom in (gaussian, shannon):
        M = build_direct(atom, SymbolSpec.first_variable(
            Symbol1D.indicator(-1.0, 1.5)), _grid_for(atom))
        assert M.is_hermitian
        nm = operator_norm(M)
        assert nm == spectrum(M).norm_estimate
        svd = float(np.linalg.svd(M.values, compute_uv=False)[0])
        assert abs(nm - svd) <= 1e-13 * svd
        assert operator_norm(M.values) == svd
    rng = np.random.default_rng(4)
    A = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    N = OperatorMatrix(LineGrid.centered(8.0, 32), A, "test", "none", "none")
    assert not N.is_hermitian
    assert operator_norm(N) == float(np.linalg.svd(A, compute_uv=False)[0])


def test_hausdorff_distance_basics():
    assert hausdorff_distance([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert abs(hausdorff_distance([0.0], [0.5, 3.0]) - 3.0) <= 1e-15
    assert abs(hausdorff_distance([0.0, 1.0], [0.25]) - 0.75) <= 1e-15


# -- signal filtering --------------------------------------------------------------------

SIGNAL_GRID = LineGrid.centered(8.0, 1024)


def test_filter_constant_symbol_reproduces_signal(gaussian, shannon):
    for atom in (gaussian, shannon):
        f = random_bandlimited(SIGNAL_GRID, seed=19)
        out = filter_signal(atom, SymbolSpec.first_variable(Symbol1D.constant(1.0)),
                            f, method="slow")
        err = np.linalg.norm(out.values - f.values) / np.linalg.norm(f.values)
        assert err <= 2e-3, f"{atom.name}: {err:.2e}"


def test_filter_halfline_contracts_energy(gaussian):
    spec = SymbolSpec.first_variable(Symbol1D.indicator(-math.inf, 0.0))
    for k in range(5):
        f = random_bandlimited(SIGNAL_GRID, seed=200 + k)
        out = filter_signal(gaussian, spec, f, method="slow")
        assert out.norm() <= f.norm() * (1 + 1e-12)


def test_filter_fast_slow_agree(gaussian, shannon):
    for atom, sym in [(gaussian, Symbol1D.indicator(-1.0, 1.0)),
                      (shannon, Symbol1D.indicator(1.0, 2.0))]:
        f = random_bandlimited(SIGNAL_GRID, seed=33)
        fast, slow, dev = filter_signal(
            atom, SymbolSpec.first_variable(sym), f, method="compare")
        assert dev <= 5e-3, f"{atom.name}: {dev:.2e}"


@st.composite
def _signal_grids(draw):
    """Span-16 grids that start at 0, at a negative lattice point or off the
    lattice of their step; a start >= -16 keeps the signal on the atom's
    translation grid."""
    n = draw(st.sampled_from([256, 1024]))
    k = draw(st.one_of(
        st.just(0.0), st.integers(-n, -1).map(float),
        st.floats(-n, 0.99).filter(lambda s: abs(s - round(s)) > 0.01)))
    return LineGrid(k * 16.0 / n, 16.0 / n, n)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(grid=_signal_grids(), seed=st.integers(0, 2 ** 16))
def test_filter_compare_agrees_on_any_signal_grid(gaussian, shannon, grid,
                                                  seed):
    # both paths must act on the signal's own grid, wherever it starts; the
    # gabor symbol covers the signal
    f = random_bandlimited(grid, seed)
    for atom, sym in [(gaussian, Symbol1D.indicator(grid.start, grid.stop)),
                      (shannon, Symbol1D.indicator(1.0, 2.0))]:
        _, _, dev = filter_signal(
            atom, SymbolSpec.first_variable(sym), f, method="compare")
        assert dev <= 1e-9, f"{atom.name}, {grid!r}: {dev:.2e}"


def test_filter_scale_band_attenuates_as_fast_path_predicts(shannon):
    # scale band [1, 2]: the diagonal symbol is the log-overlap tent peaking
    # at |xi| = 1 and vanishing outside [1/2, 2]; the slow output spectrum
    # must match gamma * f_hat, the fast-path prediction
    sym = Symbol1D.indicator(1.0, 2.0)
    spec = SymbolSpec.first_variable(sym)
    f = random_bandlimited(SIGNAL_GRID, seed=44)
    out = filter_signal(shannon, spec, f, method="slow")
    fh, oh = fourier(f), fourier(out)
    gf = gamma(shannon, sym, fh.grid, rule="grid")
    assert np.max(np.abs(oh.values - gf.values * fh.values)) <= 5e-3
    xs = np.abs(fh.grid.samples)
    kill = (xs < 0.5 - 1e-9) | (xs > 2.0 + 1e-9)
    assert np.max(np.abs(oh.values[kill])) <= 5e-3


def test_filter_fast_rejects_non_first_variable(gaussian):
    f = random_bandlimited(SIGNAL_GRID, seed=1)
    spec = SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0))
    with pytest.raises(ValueError, match="first-variable"):
        filter_signal(gaussian, spec, f, method="fast")


def test_filter_fibers_keyword_is_bit_identical(shannon, haar, gaussian, rect):
    f = random_bandlimited(SIGNAL_GRID, seed=12)
    for atom, sym in [(gaussian, Symbol1D.indicator(-1.0, 2.0)),
                      (rect, Symbol1D.indicator(0.0, 3.0)),
                      (shannon, Symbol1D.indicator(1.0, 2.0)),
                      (haar, Symbol1D.indicator(0.5, 4.0))]:
        spec = SymbolSpec.first_variable(sym)
        fib = Fibers.of(atom, omega_grid(atom.case, f.grid).samples)
        for method in ("fast", "slow"):
            assert np.array_equal(
                filter_signal(atom, spec, f, method, fibers=fib).values,
                filter_signal(atom, spec, f, method).values)
        fast, slow, dev = filter_signal(atom, spec, f, "compare", fibers=fib)
        rfast, rslow, rdev = filter_signal(atom, spec, f, "compare")
        assert np.array_equal(fast.values, rfast.values)
        assert np.array_equal(slow.values, rslow.values)
        assert dev == rdev
        with pytest.raises(ValueError, match="fiber record"):
            filter_signal(atom, spec, f, "fast",
                          fibers=Fibers.of(atom, W128.samples))


def test_filter_builds_one_fiber_matrix(gaussian, shannon, ell_calls):
    f = random_bandlimited(SIGNAL_GRID, seed=13)
    for atom, sym in [(gaussian, Symbol1D.indicator(-1.0, 2.0)),
                      (shannon, Symbol1D.indicator(1.0, 2.0))]:
        for method in ("fast", "slow", "compare"):
            ell_calls.clear()
            filter_signal(atom, SymbolSpec.first_variable(sym), f, method)
            assert len(ell_calls) == 1, f"{atom.name} {method}: {ell_calls}"


def test_filter_slow_peak_memory(gaussian):
    # the slow path holds the fiber record, the analysis field and one
    # transform output: about 3 K x N complex arrays (4 when the FFTs ran
    # out of place and project conjugated its own fiber matrix)
    n = 4096
    f = random_bandlimited(LineGrid.centered(16.0, n), seed=3)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 2.0))
    tracemalloc.start()
    try:
        filter_signal(gaussian, spec, f, "slow")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    K = gaussian.g1.count
    assert peak <= 3.25 * K * n * 16, f"peak {peak / (K * n * 16):.3f} K*N*16"


def test_filter_rejects_signal_off_the_translation_grid(gaussian, shannon):
    # a bump at x = 24 lies outside the window's translations [-16, 16):
    # every operator would return ~1e-21 of it
    grid = LineGrid(0.0, 32.0 / 1024, 1024)
    bump = SampledFunction(grid, np.exp(-np.pi * (grid.samples - 24.0) ** 2))
    fib = Fibers.of(gaussian, grid.samples)
    assert fib.coverage(bump) < 1e-80
    spec = SymbolSpec.first_variable(Symbol1D.constant(1.0))
    for method in ("fast", "slow", "compare"):
        with pytest.raises(ValueError, match=r"translations \[-16, 16\)"):
            filter_signal(gaussian, spec, bump, method)
    # on the healthy band the fibers carry the whole signal
    f = random_bandlimited(SIGNAL_GRID, seed=14)
    for atom in (gaussian, shannon):
        h = omega_side(atom.case, f)
        assert Fibers.of(atom, h.grid.samples).coverage(h) >= 0.999
