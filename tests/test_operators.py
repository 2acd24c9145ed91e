import ast
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from tfloc.algebra import commutator_diagnostics
from tfloc import atoms
from tfloc.atoms import _BLOCK_ROWS, Fibers, make_atom
from tfloc.cli import VERIFY_SUITES
from tfloc.fields import random_bandlimited
from tfloc.fourier import _Sandwich, _sandwich, fourier
from tfloc.grids import LineGrid, SampledFunction, induced_grid
from tfloc.kernels import (gamma, overlap_kernel, spectrum_from_gamma,
                           weighted_overlap_kernel)
from tfloc.operators import (LOWRANK_TAIL, OperatorMatrix, _add_lag_product,
                             _beta_hat_on_lattice, _hermitian_eigvals,
                             _lag_table, _lanczos_norm, _lowrank_factors,
                             build_direct, build_integral, build_multiplication,
                             build_pseudodiff, default_operator_grid,
                             filter_signal, hausdorff_distance, operator_norm,
                             spectrum, verify_equivalence)
from tfloc.symbols import (RANGE_EXPONENT, Symbol1D, SymbolSpec, _exponent,
                           _ldexp)

G128 = default_operator_grid("gabor", 128)
# the top of the supported range, the next float, and the error above it
TOP = 2.0 ** RANGE_EXPONENT
OVER = float(np.nextafter(TOP, math.inf))
OUT_OF_RANGE = r"exceeds the supported range.*above 2\^256"


def _grid_for(atom, n=128):
    return default_operator_grid(atom.case, n)


def _suite_symbol(suite, atom):
    """The symbol that ``verify <suite>`` compares its routes on, for the
    atom's first-axis action."""
    return VERIFY_SUITES[suite].symbols[atom.action]


# -- direct builder ------------------------------------------------------------

def test_direct_constant_symbol_is_identity(gaussian, shannon):
    for atom in (gaussian, shannon):
        M = build_direct(atom, SymbolSpec.first_variable(Symbol1D.constant(1.0)),
                         _grid_for(atom))
        assert np.max(np.abs(M.values - np.eye(128))) <= 1e-6


def test_direct_first_variable_hermitian_and_near_diagonal(gaussian, rect,
                                                           shannon, haar):
    # first-variable operators are diagonal on the diagonalized side.  On
    # the default windows the sandwich's phases are exactly +-1, so the lag
    # generator of a row constant in s is an exact delta and every
    # off-diagonal word of the matrix is +0: [P_S, M] = 0 for every diagonal
    # projector P_S, so each window subspace is invariant
    for atom in (gaussian, rect, shannon, haar):
        pool = ([Symbol1D.indicator(-1.0, 1.0), Symbol1D.smooth_step(4.0),
                 Symbol1D.gaussian_bump(8.0)] if atom.case == "gabor" else
                [Symbol1D.indicator(1.0, 2.0),
                 Symbol1D.smooth_step(8.0, log2_axis=True),
                 Symbol1D.constant(0.5)])
        for n in (64, 128, 256, 512):
            for alpha in pool:
                M = build_direct(atom, SymbolSpec.first_variable(alpha),
                                 _grid_for(atom, n))
                assert M.is_hermitian
                # a real diagonal, |L|^2 summed, even on haar's complex
                # record: one float64 word per entry
                assert M.values.dtype == float
                words = M.values.view(np.int64)
                assert not words[~np.eye(n, dtype=bool)].any(), \
                    f"{atom.name} {alpha.descriptor}, {n}"


def test_direct_first_variable_odd_windows_off_diagonal_at_rounding(
        gaussian, rect, shannon, haar):
    # an odd n puts the phases off the quarter turns: the off-diagonal
    # entries are rounding, measured at most 1.7e-15 of the largest entry
    windows = {"gabor": LineGrid(-3.0, 8.0 / 65, 65),
               "wavelet": LineGrid(0.3, 3.4 / 63, 63)}
    for atom in (gaussian, rect, shannon, haar):
        alpha = (Symbol1D.indicator(-1.0, 1.0) if atom.case == "gabor"
                 else Symbol1D.indicator(1.0, 2.0))
        M = build_direct(atom, SymbolSpec.first_variable(alpha),
                         windows[atom.case]).values
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) <= 2e-15 * np.max(np.abs(M)), atom.name


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["gabor", "wavelet"]), n=st.sampled_from([32, 64]),
       c1=st.complex_numbers(min_magnitude=0.125, max_magnitude=8.0),
       c2=st.complex_numbers(min_magnitude=0.125, max_magnitude=8.0),
       width=st.floats(0.25, 4.0))
def test_direct_linear_in_symbol(gaussian, shannon, case, n, c1, c2, width):
    # verify algebra sums one direct matrix per piece of a partition
    atom = gaussian if case == "gabor" else shannon
    if case == "gabor":
        alpha, step = Symbol1D.indicator(-2.0, 0.0), Symbol1D.smooth_step(4.0)
    else:
        alpha = Symbol1D.indicator(0.5, 8.0)
        step = Symbol1D.smooth_step(8.0, log2_axis=True)
    a1 = SymbolSpec.separable(alpha, Symbol1D.gaussian_bump(width))
    a2 = SymbolSpec.first_variable(step)
    both = SymbolSpec.general(
        lambda r, s: (c1 * a1.evaluate_field(r.ravel(), s.ravel())
                      + c2 * a2.evaluate_field(r.ravel(), s.ravel())),
        descriptor="c1*a1+c2*a2")
    grid = _grid_for(atom, n)
    parts = (c1 * build_direct(atom, a1, grid).values
             + c2 * build_direct(atom, a2, grid).values)
    M = build_direct(atom, both, grid)
    assert operator_norm(M.values - parts) <= 1e-12 * operator_norm(parts)


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


def test_direct_factors_a_general_field_by_its_shape(gaussian, shannon):
    # a general symbol's field is broadcast to the grid as its shape
    # shows: a scalar or a column factors as a first-variable symbol, a row
    # as a second-variable one, bit for bit, and the slow filter takes each
    bump, step = Symbol1D.gaussian_bump(1.0, 0.3), Symbol1D.smooth_step(2.0)
    signal = random_bandlimited(LineGrid.centered(8.0, 64), seed=3)
    for atom in (gaussian, shannon):
        grid = _grid_for(atom, 64)
        cases = {
            "scalar": (lambda r, s: 0.5,
                       SymbolSpec.first_variable(Symbol1D.constant(0.5))),
            "column": (lambda r, s: step(r) + 0.0 * r,
                       SymbolSpec.first_variable(step)),
            "row": (lambda r, s: bump(s[0]),
                    SymbolSpec.second_variable(bump)),
        }
        for label, (fn, twin) in cases.items():
            spec = SymbolSpec.general(fn, label)
            got, ref = (build_direct(atom, a, grid) for a in (spec, twin))
            assert _bits(got.values) == _bits(ref.values), (atom.name, label)
            assert got.lowrank_tail == ref.lowrank_tail, (atom.name, label)
            assert np.all(np.isfinite(filter_signal(
                atom, spec, signal, "slow")[0].values))


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
    T_back = _sandwich(xi_grid, back_sign, s_grid)(np.eye(n, dtype=complex))
    forward = _sandwich(s_grid, fwd_sign, xi_grid)
    M = np.empty((n, n), dtype=complex)
    for j in range(n):
        H = a_field * np.outer(L[:, j], T_back[j])
        Y = forward(H)
        M[:, j] = np.einsum("k,ki,ki->i", w, Lc, Y)
    return M


def test_build_direct_peak_memory():
    # M is held as its n diagonal entries, summed from the record's rows
    # with no Gram product, and the symbol is factored from its K x 1
    # column: 0.08-0.11 complex arrays of K x n = n x n entries measured
    # (0.61 with the K x n symbol field and the Gram product, 1.61 with a
    # dense M).  There is no n x n transform, no copy of the lag matrix and
    # no n x n temporary of the Hermitian check.  A fresh atom, so the
    # record is built inside the window.
    n = 512
    atom = make_atom("gabor", "gaussian")
    spec = SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0))
    grid = default_operator_grid("gabor", n)
    tracemalloc.start()
    try:
        M = build_direct(atom, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.lowrank_rank == 1
    K = atom.g1.count
    assert peak <= 0.25 * K * n * 16, f"peak {peak / (K * n * 16):.3f} K*n*16"


def test_build_direct_complex_symbol_peak_memory():
    # a complex symbol on a real fiber record: the Gram product is one real
    # GEMM on the weighted copy's float view and the product with the lag
    # view is taken a block of rows at a time, so the record is never cast
    # to complex and the peak stays near M, the weighted copy (493 of 512
    # rows), the Gram product and the record (3.55 K x n x 16 B here; a
    # complex cast of the record per rank and a separate product array
    # read 4.65).  A fresh atom, so the record is built inside the window
    n = 512
    atom = make_atom("gabor", "gaussian")
    spec = _oracle_specs("gabor")["complex"]
    grid = default_operator_grid("gabor", n)
    tracemalloc.start()
    try:
        M = build_direct(atom, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.lowrank_rank == 13
    assert atom.fibers(grid.samples).dtype == np.float64
    K = atom.g1.count
    assert peak <= 4.0 * K * n * 16, f"peak {peak / (K * n * 16):.3f} K*n*16"


def test_complex_weighted_overlap_kernel_peak_memory():
    # const:1+1j on the gaussian's real record: the kernel is the record's
    # one Gram product, a real GEMM on the weighted copy's float view, so
    # the record is not cast to complex and the peak is the weighted copy
    # and the kernel (2.00 K x n x 16 B measured; the complex cast of the
    # record read 3.00).  The record and its flushed copy are built by a
    # first call, outside the window
    n = 512
    atom = make_atom("gabor", "gaussian")
    alpha = Symbol1D.constant(1 + 1j)
    grid = default_operator_grid("gabor", n)
    weighted_overlap_kernel(atom, alpha, grid)
    tracemalloc.start()
    try:
        W = weighted_overlap_kernel(atom, alpha, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.values.dtype == np.complex128
    assert atom.fibers(grid.samples).dtype == np.float64
    K = atom.g1.count
    assert peak <= 2.2 * K * n * 16, f"peak {peak / (K * n * 16):.3f} K*n*16"


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


def _direct_batched(atom, spec, xi_grid):
    """Reference assembly: the same low-rank sum, with each rank's sandwich
    F_fwd diag(v_r) F_back formed by transforming the backward-transformed
    basis T_back, one n x n batch per rank, as the direct route was
    assembled before it read the sandwich off its lag generator."""
    n = xi_grid.count
    s_grid = induced_grid(xi_grid)
    Q, V, _ = _lowrank_factors(
        spec.evaluate_field(atom.g1.nodes, s_grid.samples))
    L = atom.ell_matrix(xi_grid.samples)
    w = atom.g1.measure_weights
    back_sign = "inverse" if atom.case == "wavelet" else "forward"
    fwd_sign = "forward" if atom.case == "wavelet" else "inverse"
    T_back = _sandwich(xi_grid, back_sign, s_grid)(np.eye(n, dtype=complex))
    forward = _sandwich(s_grid, fwd_sign, xi_grid)
    M = np.zeros((n, n), dtype=complex)
    for q, v in zip(Q.T, V):
        D = forward(T_back * v)
        G = (np.conj(L) * (w * q)[:, None]).T @ L
        M += G * D.T
    return M


def _off_centre_grid(case, n):
    if case == "gabor":
        return LineGrid(-5.0, 16.0 / n, n)
    return LineGrid(0.25, 4.0 / n, n)


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_direct_lag_generator_matches_batched_transform(atom_name, request):
    # a wrong lag, sign or period would be off by O(1).  The bound is the
    # rounding of both routes: against twiddles reduced exactly mod n, the
    # reference is off by up to 8.7e-14 on these atoms, symbols and grids and
    # build_direct by up to 4.9e-14; they differ by up to 1.1e-13 (n = 257,
    # off centre).  The chirp's rank grows with n (129 at n = 257, seconds
    # per build), so it runs at n = 63 only; disk and complex keep several
    # ranks at every n
    atom = request.getfixturevalue(atom_name)
    grids = [_grid_for(atom, n) for n in (63, 256, 257)]
    grids.append(_off_centre_grid(atom.case, 257))
    for grid in grids:
        for kind, spec in _oracle_specs(atom.case).items():
            if kind == "chirp" and grid.count > 64:
                continue
            M = build_direct(atom, spec, grid)
            ref = _direct_batched(atom, spec, grid)
            rel = operator_norm(M.values - ref) / operator_norm(ref)
            assert rel <= 1.5e-13, f"{atom.name}/{kind}, {grid!r}: {rel:.2e}"


def test_build_direct_transforms_once_whatever_the_rank(gaussian, shannon,
                                                        monkeypatch):
    shapes = []
    core = _Sandwich.core

    def counted(self, block):
        shapes.append(block.shape)
        return core(self, block)

    monkeypatch.setattr(_Sandwich, "core", counted)
    for atom in (gaussian, shannon):
        grid = _grid_for(atom, 64)
        for kind, spec in _oracle_specs(atom.case).items():
            shapes.clear()
            M = build_direct(atom, spec, grid)
            # one transform of the r x n generator rows
            assert shapes == [(M.lowrank_rank, 64)], f"{atom.name}/{kind}"


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


# -- diagonal operators held as their diagonal ----------------------------------

def _first_variable_pool(case):
    if case == "gabor":
        return [Symbol1D.indicator(-1.0, 1.0), Symbol1D.smooth_step(4.0),
                Symbol1D.constant(1 + 1j)]
    return [Symbol1D.indicator(1.0, 2.0),
            Symbol1D.smooth_step(8.0, log2_axis=True),
            Symbol1D.constant(1 + 1j)]


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_first_variable_operators_are_held_as_their_diagonal(atom_name,
                                                             request):
    # on the default windows every rank's lag generator is a lag-0 delta:
    # the direct and multiplication routes hold the n diagonal entries, no
    # n x n array, and ``values`` is np.diag of them, within the column
    # loop's bound of it.  Odd n on an off-centre window keeps the dense M
    atom = request.getfixturevalue(atom_name)
    grid = _grid_for(atom, 64)
    for alpha in _first_variable_pool(atom.case):
        spec = SymbolSpec.first_variable(alpha)
        ref = _direct_column_loop(atom, spec, grid)
        for M in (build_direct(atom, spec, grid),
                  build_multiplication(gamma(atom, alpha, grid,
                                             rule="grid"))):
            label = f"{atom.name}/{alpha.descriptor}/{M.builder}"
            assert M.is_diagonal and M._dense is None, label
            assert M.diagonal.shape == (64,), label
            assert M.values.tobytes() == np.diag(M.diagonal).tobytes(), label
            rel = operator_norm(M.values - ref) / operator_norm(ref)
            assert rel <= 1e-13, f"{label}: {rel:.2e}"
        odd = build_direct(atom, spec, _off_centre_grid(atom.case, 63))
        assert not odd.is_diagonal and odd._dense is not None


def _diagonal_specs(case):
    """Symbols whose direct matrix is held as its diagonal: the first-variable
    symbol of ``_oracle_specs``, a complex multiple of it, and its complex
    symbol with the dependence on s dropped, a general symbol that takes the
    diagonal path from its K x n field."""
    band = (-1.0, 1.0) if case == "gabor" else (1.0, 2.0)
    return {
        "first": _oracle_specs(case)["first"],
        "first-complex": SymbolSpec.first_variable(
            Symbol1D.piecewise([[band]], [0.5 + 2j])),
        "complex-in-r": SymbolSpec.general(
            lambda r, s: np.exp(-np.pi * (r - 0.5) ** 2 + 1j * r) + 0.0 * s,
            "complex-in-r"),
    }


# the column loop's and the direct sum's rounding, relative to the largest
# entry: 1.2e-15 measured
DIAGONAL_ORACLE_REL = 2.5e-15


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_direct_diagonal_matches_column_loop(atom_name, request):
    # the diagonal summed from the record against the pipeline run once per
    # basis vector, at rounding (``DIAGONAL_ORACLE_REL``)
    atom = request.getfixturevalue(atom_name)
    for n in (32, 64):
        grid = _grid_for(atom, n)
        for kind, spec in _diagonal_specs(atom.case).items():
            M = build_direct(atom, spec, grid)
            assert M.is_diagonal and M.lowrank_rank == 1, kind
            ref = _direct_column_loop(atom, spec, grid)
            top = np.max(np.abs(ref))
            rel = np.max(np.abs(M.diagonal - ref.diagonal())) / top
            assert rel <= DIAGONAL_ORACLE_REL, \
                f"{atom.name}/{kind}, n={n}: {rel:.2e}"


def _field_ranks(atom, spec, xi_grid):
    """(q_r, c_r) per rank: the factors of the K x n field and the lag
    generators of their sandwiches, as ``build_direct`` forms them."""
    s_grid = induced_grid(xi_grid)
    Q, V, _ = _lowrank_factors(
        spec.evaluate_field(atom.g1.nodes, s_grid.samples))
    lags = _sandwich(s_grid, atom.action.axis2_forward,
                     induced_grid(s_grid)).real_where_even(V) * xi_grid.step
    return zip(Q.T, lags)


def _gram_diagonal(atom, spec, xi_grid):
    """The diagonal of the direct matrix as the n x n Gram products give it:
    factors of the K x n field, G_r = L^H diag(w q_r) L over every row of
    the record, and d = sum_r diag(G_r) c_r[n//2]."""
    n = xi_grid.count
    L = atom.ell_matrix(xi_grid.samples)
    w = atom.g1.measure_weights
    d = np.zeros(n, dtype=complex)
    for q, c in _field_ranks(atom, spec, xi_grid):
        assert np.count_nonzero(c) == 1 and c[n // 2] != 0
        d += ((np.conj(L) * (w * q)[:, None]).T @ L).diagonal() * c[n // 2]
    return d


# the Gram products' and the direct sum's rounding, relative to the largest
# entry: 1.2e-15 measured, the smooth step over all 512 gabor translations
GRAM_DIAGONAL_REL = 2.5e-15


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_direct_diagonal_matches_the_gram_diagonal(atom_name, request):
    atom = request.getfixturevalue(atom_name)
    specs = dict(_diagonal_specs(atom.case))
    specs["step"] = SymbolSpec.first_variable(
        _first_variable_pool(atom.case)[1])
    for n in (128, 256, 512):
        grid = _grid_for(atom, n)
        for kind, spec in specs.items():
            d = build_direct(atom, spec, grid).diagonal
            ref = _gram_diagonal(atom, spec, grid)
            rel = np.max(np.abs(d - ref)) / np.max(np.abs(ref))
            assert rel <= GRAM_DIAGONAL_REL, \
                f"{atom.name}/{kind}, n={n}: {rel:.2e}"


def test_direct_diagonal_reads_no_gamma(gaussian, rect, shannon, haar,
                                        monkeypatch):
    # the direct route is the multiplication route's independent check: its
    # diagonal is summed in operators, never by the grid-rule gamma's power
    # sums or any gamma rule
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route called a gamma route")

    for name in ("tfloc.atoms.Fibers.power_sums", "tfloc.kernels.gamma",
                 "tfloc.kernels._gamma_adaptive", "tfloc.operators.gamma"):
        monkeypatch.setattr(name, refuse)
    for atom in (gaussian, rect, shannon, haar):
        for n in (64, 512):
            for kind, spec in _diagonal_specs(atom.case).items():
                assert build_direct(atom, spec,
                                    _grid_for(atom, n)).is_diagonal, kind


@pytest.mark.parametrize("name", ["gaussian", "shannon", "haar"])
def test_first_variable_direct_peak_memory(name):
    # the diagonal is summed from the record a block of 64 rows at a time,
    # and a first-variable symbol is factored from its K x 1 column: no
    # K x n field, Gram product, weighted copy or copy of the record's rows.
    # Measured 0.30, 0.17 and 0.29 MiB for the cto1 symbols at n = 512,
    # 0.42 for the gaussian as the first call of a process (2.4, 2.4 and
    # 4.3 MiB with the Gram products); the record is built beforehand
    n = 512
    case = "gabor" if name == "gaussian" else "wavelet"
    atom = make_atom(case, name)
    grid = default_operator_grid(case, n)
    atom.fibers(grid.samples)
    tracemalloc.start()
    try:
        M = build_direct(atom, _suite_symbol("cto1", atom), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.is_diagonal
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("name", ["gaussian", "shannon"])
def test_cto1_verify_peak_memory(name):
    # verify cto1 at n = 512 holds both diagonals and blocks of the
    # record's rows: 0.39 and 0.32 MiB measured (1.0 MiB for the gaussian
    # as the first call of a process), below one n x n complex array
    # (4 MiB); the direct route's Gram product read 2.4 MiB, and dense
    # matrices for M, diag(gamma) and their difference 12-14 MiB.  A fresh
    # atom, its fiber record (shared by both routes, 2 MiB for shannon)
    # built before the trace
    n = 512
    case = "gabor" if name == "gaussian" else "wavelet"
    atom = make_atom(case, name)
    grid = default_operator_grid(case, n)
    atom.fibers(grid.samples)
    tracemalloc.start()
    try:
        rep = verify_equivalence(atom, _suite_symbol("cto1", atom), grid,
                                 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["pass"]
    assert peak < n * n * 16, f"peak {peak / 2 ** 20:.2f} MiB"


# -- the rows a Gram product reads ---------------------------------------------

FLUSH_BELOW = 2.0 ** -511
# the rounding of a Gram product over the rows of ``rows_for`` against the
# plain GEMM over every row, in units of K eps max|L|^2 sum_k |v_k| per
# entry, v the weights: 1.04e-3 measured (haar, cto3, n = 63 off centre)
GRAM_ROUNDING_C = 4e-3


def _plain_gram(L, v):
    return (np.conj(L) * v[:, None]).T @ L


def _spy_gram(monkeypatch, record):
    """Patch ``Fibers.gram`` to hand ``record(rows, read)`` the rows of
    each call and the rows of the flushed copy it read."""
    original = Fibers.gram

    def spy(self, weights):
        G, rows = original(self, weights)
        start, stop = (r - self.span.start for r in (rows.start, rows.stop))
        record(rows, self._gemm_span[start:stop])
        return G, rows

    monkeypatch.setattr(Fibers, "gram", spy)


def _flush_bound(L, v):
    """What the flushes of ``Fibers.gram`` move an entry of the Gram product
    of ``L`` and the weights ``v`` by at most: 2^-510 max|L| sum_k |v_k|
    for the record's, 2^-509 max|L| max_k |v_k| per row for the weighted
    operand's."""
    top = np.max(np.abs(L))
    return 2.0 ** -510 * top * (np.sum(np.abs(v)) + 2 * len(L) * np.max(np.abs(v)))


def _plain_direct(atom, spec, xi_grid, L):
    """The dense direct matrix from the plain GEMM on every row of ``L``:
    sum_r G_r * S_r as ``build_direct`` forms it, the sum over the ranks of
    sum_k |w q_r| max|c_r|, what scales a Gram entry's rounding, and the
    sum over the ranks of ``_flush_bound`` times max|c_r|."""
    n = xi_grid.count
    w = atom.g1.measure_weights
    M = np.zeros((n, n), dtype=complex)
    scale = flushed = 0.0
    for q, c in _field_ranks(atom, spec, xi_grid):
        _add_lag_product(M, _plain_gram(L, w * q), c)
        scale += np.sum(np.abs(w * q)) * np.max(np.abs(c))
        flushed += _flush_bound(L, w * q) * np.max(np.abs(c))
    return M, scale, flushed


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_gram_products_are_the_plain_gemm_within_the_flush_bound(
        atom_name, request, monkeypatch):
    # the Gram products read the record's rows, and form the weighted
    # operand, with every part below 2^-511 set to +0, which moves an entry
    # by at most ``_flush_bound``, on top of the rounding
    # (``GRAM_ROUNDING_C``): the direct matrices of the cto2 and cto3
    # symbols, both overlap kernels and a Gram product of weights spanning
    # 1e-320 ... 1 in random order, on the lattice grids (copies of a
    # strided record) and off centre (a K x N record)
    atom = request.getfixturevalue(atom_name)
    K = atom.g1.count
    w = atom.g1.measure_weights
    alpha = Symbol1D.constant(0.5 + 2j)
    v = w * alpha.sample(atom.g1.nodes)
    wide = np.random.default_rng(3).permutation(np.geomspace(1e-320, 1.0, K))
    read = []
    _spy_gram(monkeypatch, lambda rows, C: read.append(C))
    grids = [_grid_for(atom, n) for n in (64, 256, 512)]
    grids.append(_off_centre_grid(atom.case, 63))
    for grid in grids:
        L = atom.ell_matrix(grid.samples)
        top = np.max(np.abs(L))
        built = {"overlap": (overlap_kernel(atom, grid).values,
                             _plain_gram(L, w), np.sum(w),
                             _flush_bound(L, w)),
                 "weighted": (weighted_overlap_kernel(atom, alpha, grid).values,
                              _plain_gram(L, v), np.sum(np.abs(v)),
                              _flush_bound(L, v)),
                 "wide": (atom.fibers(grid.samples).gram(wide)[0],
                          _plain_gram(L, wide), np.sum(wide),
                          _flush_bound(L, wide))}
        for suite in ("cto2", "cto3"):
            spec = _suite_symbol(suite, atom)
            built[suite] = (build_direct(atom, spec, grid).values,
                            *_plain_direct(atom, spec, grid, L))
        for kind, (got, ref, scale, flushed) in built.items():
            bound = flushed + scale * (GRAM_ROUNDING_C * K
                                       * np.finfo(float).eps * top ** 2)
            err = np.max(np.abs(got - ref))
            assert err <= bound, \
                f"{atom.name}/{kind}, n={grid.count}: {err:.2e} > {bound:.2e}"

        fib = atom.fibers(grid.samples)
        assert fib.dense(slice(0, K)).tobytes() == L.tobytes()
        # every part below 2^-511 is +0 in what the products read, every
        # other part keeps its bits; the gaussian's tails have such parts
        parts = L.view(float)
        tiny = np.abs(parts) < FLUSH_BELOW
        flushed = tiny & (parts != 0)
        assert flushed.any() == (atom.name == "gaussian"), atom.name
        span = fib.span
        assert fib.gram(np.ones(K))[1] == span
        C, tiny = read[-1].view(np.int64), tiny[span]
        assert not C[tiny].any()
        assert np.array_equal(C[~tiny], L[span].view(np.int64)[~tiny])
    # one read per kernel, per rank of each direct build, the wide weights'
    # and the check's
    assert len(read) == 6 * len(grids)
    for C in read:
        parts = C.view(float)
        assert not np.any((np.abs(parts) < FLUSH_BELOW) & (parts != 0))


def _spy_flush(monkeypatch):
    """Patch ``atoms._flush`` to record every part it flushes; returns the
    list and ``blocks(A)``, the row counts of the recorded parts that lie in
    the array ``A``, in call order."""
    flushes = []
    flush = atoms._flush
    monkeypatch.setattr(atoms, "_flush",
                        lambda part: flushes.append(part) or flush(part))

    def blocks(A):
        return [len(part) for part in flushes if np.shares_memory(part, A)]

    return flushes, blocks


def test_a_record_is_flushed_once_for_all_its_gram_products(monkeypatch):
    # the rank-20 disk (20 Gram products over the 65 rows |z| <= 2), the
    # overlap kernel and a weighted overlap kernel (all 512 rows) on one
    # gaussian lattice record at n = 256 read slices of one flushed copy of
    # the record's span: its 8 blocks are flushed once, by the first Gram
    # product, and every product reads the memory of that one array (each
    # product flushes its own weighted operand too)
    read = []
    flushes, blocks = _spy_flush(monkeypatch)
    _spy_gram(monkeypatch, lambda rows, C: read.append(C))
    atom = make_atom("gabor", "gaussian")
    grid = default_operator_grid("gabor", 256)
    M = build_direct(atom, _support_specs("gabor")["disk"], grid)
    assert M.lowrank_rank == 20 and M.gram_rows == 65
    overlap_kernel(atom, grid)
    weighted_overlap_kernel(atom, Symbol1D.gaussian_bump(1.0), grid)
    assert len(read) == 22
    whole = read[20]
    assert blocks(whole) == [_BLOCK_ROWS] * 8
    assert all(np.shares_memory(part, whole) for part in flushes[:8])
    assert whole.shape == (atom.g1.count, grid.count)
    assert whole.flags.c_contiguous and not whole.flags.writeable
    assert all(np.shares_memory(C, whole) for C in read)


def _subnormal(part):
    """The number of subnormal real and imaginary parts of ``part``."""
    words = np.abs(part.view(float))
    return int(np.count_nonzero((words > 0) & (words < 2.0 ** -1022)))


@pytest.mark.parametrize("n", [256, 512])
def test_the_weighted_operand_has_no_subnormal_part(monkeypatch, n):
    # the radial gaussian of sigma = 1 weights the gaussian record's rows
    # over many decades, down to 4.6e-322: X = conj(L) diag(w) has subnormal
    # parts (1,103 of 125,696 at n = 256), each a microcode assist in the
    # GEMM, and Fibers.gram sets them to +0 before it, a block of rows at a
    # time.  The record's flushed copy is excluded by its memory
    counts = []
    flush = atoms._flush

    def spy(part):
        before = _subnormal(part)
        flush(part)
        counts.append((part, before, _subnormal(part)))

    monkeypatch.setattr(atoms, "_flush", spy)
    atom = make_atom("gabor", "gaussian")
    grid = default_operator_grid("gabor", n)
    spec = SymbolSpec.general(
        lambda q, p: np.exp(-np.pi * (q * q + p * p)), "radial:1")
    build_direct(atom, spec, grid)
    record = atom.fibers(grid.samples)._gemm_span
    operand = [(before, after) for part, before, after in counts
               if not np.shares_memory(part, record)]
    assert operand and sum(before for before, _ in operand) > 0
    assert all(after == 0 for _, after in operand)


@pytest.mark.parametrize("n", [256, 512])
def test_the_rank_20_disk_has_no_block_to_flush(monkeypatch, n):
    # the disk of radius 2 reads the 65 rows |z| <= 2 of the gaussian's
    # lattice record, where every fiber value is at least exp(-100 pi), far
    # above 2^-511: its 20 Gram products read those rows bit for bit, with
    # no part flushed.  The record's copy is flushed once, by the first of
    # them, and the overlap kernel, which reads all 512 rows, flushes no
    # block again but reads the tail rows with their tiny parts at +0
    read = []
    _, blocks = _spy_flush(monkeypatch)
    _spy_gram(monkeypatch, lambda rows, C: read.append((rows, C)))
    atom = make_atom("gabor", "gaussian")
    grid = default_operator_grid("gabor", n)
    M = build_direct(atom, _support_specs("gabor")["disk"], grid)
    assert M.lowrank_rank == 20 and M.gram_rows == 65
    fib = atom.fibers(grid.samples)
    L = fib.dense(slice(0, atom.g1.count))
    assert len(read) == 20
    for rows, C in read:
        assert C.tobytes() == np.ascontiguousarray(L[rows]).tobytes()
    assert blocks(fib._gemm_span) == [_BLOCK_ROWS] * 8
    overlap_kernel(atom, grid)
    assert blocks(fib._gemm_span) == [_BLOCK_ROWS] * 8
    rows, C = read[-1]
    assert (C.shape[0], rows) == (atom.g1.count, slice(0, atom.g1.count))
    parts = L.view(float)
    flushed = (np.abs(parts) < FLUSH_BELOW) & (parts != 0)
    assert flushed.any()
    assert not C.view(float)[flushed].any()


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_zero_weights_give_the_zero_gram_and_build_no_copy(atom_name,
                                                           request):
    # weights with no nonzero entry in the span -- +0, -0, complex zeros,
    # and for rect and shannon weights on the rows outside the span alone
    # -- read no row: the n x n matrix of +0, of the product's dtype, with
    # the record's flushed copy left unbuilt
    atom = request.getfixturevalue(atom_name)
    fib = Fibers.of(atom, _grid_for(atom, 64).samples)
    K = atom.g1.count
    outside = np.ones(K)
    outside[fib.span] = 0.0
    cases = [np.zeros(K), np.full(K, -0.0), np.zeros(K, dtype=complex)]
    if atom_name in ("rect", "shannon"):
        cases += [outside, outside * (1 + 2j)]
    for w in cases:
        G, rows = fib.gram(w)
        assert rows.start == rows.stop
        assert G.shape == (64, 64)
        assert G.dtype == np.result_type(fib.dtype, w)
        assert not G.view(np.int64).any()
    assert "_gemm_span" not in vars(fib)


def test_the_flush_has_one_call_site(scopes_where):
    # the flush runs a block of rows at a time, on the record's flushed copy
    # and on each Gram product's weighted operand alone
    def calls(name):
        return lambda node: (isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Name)
                             and node.func.id == name)

    assert scopes_where(calls("_flush")) == ["atoms.py:_flush_rows"]
    assert scopes_where(calls("_flush_rows")) == [
        "atoms.py:Fibers.gram", "atoms.py:Fibers._gemm_span"]


def test_the_flushed_copy_is_read_only_by_the_gram_product(scopes_where):
    # the overlap kernels and build_direct's dense ranks read the record's
    # flushed copy through Fibers.gram alone: one Gram product
    def reads_copy(node):
        return isinstance(node, ast.Attribute) and node.attr == "_gemm_span"

    assert scopes_where(reads_copy) == ["atoms.py:Fibers.gram"]


@pytest.mark.parametrize("name", ["gaussian", "shannon", "haar"])
def test_second_variable_direct_peak_memory(name):
    # the cto2 path at n = 512, its record built beforehand: M, the rows
    # the Gram product reads (a flushed copy for the gaussian's lattice
    # record, the record's own rows for the wavelets), the weighted copy X
    # and the Gram product.  Measured 2.54, 1.73 and 3.01 K x n x 16 B
    # (10.2, 6.9 and 12.0 MiB), as before the flush
    n = 512
    case = "gabor" if name == "gaussian" else "wavelet"
    atom = make_atom(case, name)
    grid = default_operator_grid(case, n)
    atom.fibers(grid.samples)
    tracemalloc.start()
    try:
        M = build_direct(atom, _suite_symbol("cto2", atom), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not M.is_diagonal and M.lowrank_rank == 1
    K = atom.g1.count
    bound = {"gaussian": 2.6, "shannon": 1.8, "haar": 3.1}[name]
    assert peak <= bound * K * n * 16, f"peak {peak / (K * n * 16):.3f} K*n*16"


# -- assembly over the support -------------------------------------------------

def _support_specs(case):
    """The first-variable indicator of the case, the disk of radius 2 and an
    indicator times a bump."""
    band = (-1.0, 1.0) if case == "gabor" else (1.0, 2.0)
    return {
        "first": SymbolSpec.first_variable(Symbol1D.indicator(*band)),
        "disk": SymbolSpec.general(
            lambda r, s: (r ** 2 + s ** 2 <= 4.0).astype(float), "disk:2"),
        "separable": SymbolSpec.separable(Symbol1D.indicator(*band),
                                          Symbol1D.gaussian_bump(1.0)),
    }


def _untrimmed_overlap(atom, w, xi_grid):
    L = atom.ell_matrix(xi_grid.samples)
    return (L.conj() * w[:, None]).T @ L


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_fiber_record_span_is_its_nonzero_row_hull(atom_name, request):
    # rect and shannon have empty rows at both ends of the first coordinate,
    # the gaussian and haar (a complex record) none
    atom = request.getfixturevalue(atom_name)
    for grid in (_grid_for(atom, 64), _grid_for(atom, 512),
                 _off_centre_grid(atom.case, 257)):
        fib = Fibers.of(atom, grid.samples)
        full = np.flatnonzero(
            atom.ell_matrix(grid.samples).view(np.int64).any(axis=1))
        assert fib.span == slice(full[0], full[-1] + 1)
        K = atom.g1.count
        assert (fib.span != slice(0, K)) == (atom_name in ("rect", "shannon"))
        assert fib.rows_for(np.ones(K)) == fib.span
        # no weight outside the span counts, and -0 weighs nothing
        w = np.zeros(K, dtype=complex)
        w[:fib.span.start] = w[fib.span.stop:] = 5.0
        assert fib.rows_for(w) == slice(0, 0)
        lo, hi = fib.span.start + 2, fib.span.stop - 3
        w[[lo, (lo + hi) // 2, hi]] = [1.0, -0.0, 2.0j]
        assert fib.rows_for(w) == slice(lo, hi + 1)
        w[[lo, hi]] = -0.0
        assert fib.rows_for(w) == slice(0, 0)


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_direct_over_the_support_matches_column_loop(atom_name, request):
    # the Gram products run over rows where both the symbol field and the
    # record are nonzero: the indicator's 33 of 512, the disk's 65 (gabor)
    # or 288 (wavelet), fewer where the record has empty rows
    atom = request.getfixturevalue(atom_name)
    grid = _grid_for(atom, 64)
    record = np.flatnonzero(atom.ell_matrix(grid.samples).any(axis=1))
    for kind, spec in _support_specs(atom.case).items():
        M = build_direct(atom, spec, grid)
        ref = _direct_column_loop(atom, spec, grid)
        rel = operator_norm(M.values - ref) / operator_norm(ref)
        assert rel <= 1e-13, f"{atom.name}/{kind}: {rel:.2e}"
        field = np.flatnonzero(spec.evaluate_field(
            atom.g1.nodes, induced_grid(grid).samples).any(axis=1))
        carried = (min(field[-1], record[-1]) + 1
                   - max(field[0], record[0]))
        assert 0 < M.gram_rows <= carried < atom.g1.count, \
            f"{atom.name}/{kind}: {M.gram_rows} of {carried}"


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_overlap_kernels_over_the_support_match_all_rows(atom_name, request):
    atom = request.getfixturevalue(atom_name)
    w = atom.g1.measure_weights
    for n in (64, 256):
        grid = _grid_for(atom, n)
        kernels = {"const:1": (overlap_kernel(atom, grid), w)}
        for kind, spec in _support_specs(atom.case).items():
            if spec.alpha is not None:
                alpha = spec.alpha
                kernels[alpha.descriptor] = (
                    weighted_overlap_kernel(atom, alpha, grid),
                    w * alpha.sample(atom.g1.nodes))
        for name, (km, weights) in kernels.items():
            ref = _untrimmed_overlap(atom, weights, grid)
            rel = np.max(np.abs(km.values - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-15, f"{atom.name}/{name}, n={n}: {rel:.2e}"


@pytest.mark.parametrize("atom_name,band", [("rect", (10.0, 12.0)),
                                            ("shannon", (64.0, 128.0))])
def test_symbol_off_the_record_gives_zero(atom_name, band, request):
    # the symbol is nonzero only on empty rows of the record: every Gram
    # product runs over an empty slice of rows
    atom = request.getfixturevalue(atom_name)
    grid = _grid_for(atom, 64)
    alpha = Symbol1D.indicator(*band)
    assert np.any(alpha.sample(atom.g1.nodes))
    for spec in (SymbolSpec.first_variable(alpha),
                 SymbolSpec.separable(alpha, Symbol1D.gaussian_bump(1.0))):
        M = build_direct(atom, spec, grid)
        assert M.lowrank_rank == 1 and M.gram_rows == 0
        assert not M.values.view(np.int64).any()
    km = weighted_overlap_kernel(atom, alpha, grid)
    assert not km.values.view(np.int64).any()


def test_diagonal_spectrum_is_read_without_forming_h(gaussian, shannon):
    # a diagonal M: the bits of the sorted diagonal of H = M/2 + (M/2)^H
    # as the n x n H holds it, complex, near-overflow and subnormal entries
    # included (halving rounds an odd subnormal)
    rng = np.random.default_rng(4)
    diags = [build_direct(atom, _suite_symbol("cto1", atom),
                          _grid_for(atom, 256)).diagonal
             for atom in (gaussian, shannon)]
    diags.append(rng.uniform(-1.7, 1.7, 64) * 1e308 + 0j)
    diags.append(rng.standard_normal(64) + 1e-9j * rng.standard_normal(64))
    diags.append(np.arange(1.0, 65.0) * 5e-324 + 0j)
    for d in diags:
        n = d.size
        M = OperatorMatrix(LineGrid.centered(8.0, n), d, "test", "none",
                           "none")
        assert M.is_diagonal
        H = 0.5 * M.values
        H += H.conj().T
        ref = np.sort(H.diagonal().real)
        assert _hermitian_eigvals(M).tobytes() == ref.tobytes()
        if M.is_hermitian:
            assert spectrum(M).values.tobytes() == \
                ref.astype(complex).tobytes()


def test_diagonal_operator_checks_read_the_diagonal():
    # the finiteness and Hermitian checks of an operator given by its
    # diagonal entries read them alone, with the verdicts of the whole
    # matrix
    grid = LineGrid.centered(8.0, 4)
    assert OperatorMatrix(grid, [1.0, 2.0, 3.0, 4.0], "t", "a", "s",
                          symbol_is_real=True).is_hermitian
    N = OperatorMatrix(grid, [1.0, 2.0j, 3.0, 4.0], "t", "a", "s")
    assert N.is_diagonal and not N.is_hermitian
    # the flag set here is what operator_norm reads: max |d_i|
    assert operator_norm(N) == 4.0
    with pytest.raises(ValueError, match="non-Hermitian"):
        OperatorMatrix(grid, [1.0, 2.0j, 3.0, 4.0], "t", "a", "s",
                       symbol_is_real=True)
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(grid, [1.0, np.inf, 3.0, 4.0], "t", "a", "s")


@pytest.mark.parametrize("n", [64, 512])
def test_a_diagonal_matrix_given_dense_is_held_dense(gaussian, shannon, n):
    # only an operator given by its entries d is diagonal: np.diag(d) is
    # held as the n x n matrix it is, and its spectrum and norm come from
    # the solvers.  They agree with those read off d to c n eps, c = 1,
    # relative to max |d|; measured, they are equal but for a complex d's
    # Lanczos norm, 0.011 n eps off at n = 64
    eps = np.finfo(float).eps
    diags = [build_direct(atom, _suite_symbol("cto1", atom),
                          _grid_for(atom, n)).diagonal
             for atom in (gaussian, shannon)]
    rng = np.random.default_rng(4)
    diags.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    grid = LineGrid.centered(8.0, n)
    for d in diags:
        held = OperatorMatrix(grid, d, "t", "a", "s")
        dense = OperatorMatrix(grid, np.diag(d), "t", "a", "s")
        assert held.is_diagonal and held._dense is None
        assert not dense.is_diagonal and dense.diagonal is None
        assert dense.is_hermitian == held.is_hermitian
        bound = n * eps * float(np.max(np.abs(d)))
        a, b = spectrum(dense), spectrum(held)
        assert np.max(np.abs(np.sort_complex(a.values)
                             - np.sort_complex(b.values))) <= bound
        assert abs(a.norm_estimate - b.norm_estimate) <= bound
        assert abs(operator_norm(dense) - operator_norm(held)) <= bound


def test_build_direct_disk_peak_memory():
    # the rank-20 disk: each Gram product runs over the disk's 65 of 512
    # rows, and the products with the lag tables and the Hermitian check
    # take a block of rows at a time.  The peak is M, the record, one
    # real Gram product and a weighted copy of 65 rows: 2.28-2.31 K x n x
    # 16 B measured.  A weighted copy of all 512 rows reads 2.58, and the
    # K x n symbol field held through the assembly 2.8.  A fresh atom, so
    # the record is built inside the window
    n = 512
    atom = make_atom("gabor", "gaussian")
    spec = _support_specs("gabor")["disk"]
    grid = default_operator_grid("gabor", n)
    tracemalloc.start()
    try:
        M = build_direct(atom, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.lowrank_rank == 20 and M.gram_rows == 65
    K = atom.g1.count
    assert peak <= 2.35 * K * n * 16, f"peak {peak / (K * n * 16):.3f} K*n*16"


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


def _rotated_gaussian(s1, s2, theta, c):
    """The symbol a(z) = exp(-pi (u^2 / s1^2 + v^2 / s2^2)), (u, v) =
    R_theta (z - c): a rotated, shifted, anisotropic Gaussian."""
    ct, st = math.cos(theta), math.sin(theta)

    def fn(q, p):
        x, y = q - c[0], p - c[1]
        u, v = ct * x + st * y, ct * y - st * x
        return np.exp(-np.pi * (u * u / s1 ** 2 + v * v / s2 ** 2))

    return SymbolSpec.general(fn, f"gauss:{s1:g},{s2:g},{theta:g}@{c}")


def _rotated_gaussian_eigs(s1, s2, k):
    """The k leading eigenvalues of the gaussian window's operator of
    ``_rotated_gaussian``, whatever theta and c: a metaplectic rotation
    and squeeze make it a function of the harmonic oscillator (Folland
    1989, ch. 4).  With A = s1^2 + 1/2, B = s2^2 + 1/2 and tau = sqrt(AB),
    lambda_j = sqrt(s1^2 s2^2 / (AB)) 2 tau / (2 tau + 1)
    ((2 tau - 1) / (2 tau + 1))^j; (sigma^2 / (1 + sigma^2))^(j + 1) when
    s1 = s2 = sigma."""
    A, B = s1 ** 2 + 0.5, s2 ** 2 + 0.5
    tau = math.sqrt(A * B)
    return (math.sqrt(s1 ** 2 * s2 ** 2 / (A * B)) * 2 * tau / (2 * tau + 1)
            * ((2 * tau - 1) / (2 * tau + 1)) ** np.arange(k))


# (s1, s2, theta, c) and the rank of the field build_direct factors
ROTATED_GAUSSIANS = [((2.0, 0.7, math.pi / 6, (0.0, 0.0)), 37),
                     ((2.0, 0.7, 1.0, (0.5, -0.7)), 39),
                     ((3.0, 0.5, math.pi / 3, (0.3, 0.2)), 80),
                     ((1.5, 1.5, 0.0, (1.1, -0.4)), 1)]
# the 20 leading eigenvalues read at most 0.0098 n eps from the closed form
# at n = 256 and 0.0034 n eps at n = 512 (one BLAS thread), rotated against
# unrotated at most 0.0078 n eps: c = 0.02 is twice the largest
CLOSED_FORM_C = 0.02
EPS = np.finfo(float).eps


def _leading_eigs(atom, spec, n, k=20):
    """The k leading eigenvalues of the direct route at n, and its rank."""
    M = build_direct(atom, spec, default_operator_grid("gabor", n))
    return np.linalg.eigvalsh(M.values)[::-1][:k], M.lowrank_rank


@pytest.mark.parametrize("n, params, rank", [
    *((256, p, r) for p, r in ROTATED_GAUSSIANS),
    (512, *ROTATED_GAUSSIANS[2])],
    ids=[f"rank{r}-n256" for _, r in ROTATED_GAUSSIANS] + ["rank80-n512"])
def test_direct_rotated_gaussian_closed_form(gaussian, n, params, rank):
    # the direct route at ranks 1 to 80 against the closed form, to
    # rounding: a deflation that drops a rank, a Gram product or a lag
    # gather read wrong moves the spectrum far past c n eps
    lead, got = _leading_eigs(gaussian, _rotated_gaussian(*params), n)
    ref = _rotated_gaussian_eigs(params[0], params[1], lead.size)
    assert np.max(np.abs(lead - ref)) <= CLOSED_FORM_C * n * EPS
    assert got == rank


@pytest.mark.parametrize("params, rank", ROTATED_GAUSSIANS[:3],
                         ids=[f"rank{r}" for _, r in ROTATED_GAUSSIANS[:3]])
def test_direct_rotated_gaussian_rotation_covariance(gaussian, params, rank):
    # a rotation of the symbol is a metaplectic conjugation of the operator:
    # the field of rank 37-80 gives the spectrum of the rank-1 field at
    # theta = 0
    s1, s2, _, c = params
    rotated, got = _leading_eigs(gaussian, _rotated_gaussian(*params), 256)
    axis, one = _leading_eigs(gaussian, _rotated_gaussian(s1, s2, 0.0, c), 256)
    assert np.max(np.abs(rotated - axis)) <= CLOSED_FORM_C * 256 * EPS
    assert (got, one) == (rank, 1)


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


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, TOP, OVER,
                                   1e300, 1e307])
def test_direct_exact_at_extreme_symbol_scales(gaussian, scale):
    # the factorization scales the field by a power of two first, so its
    # squared entries do not underflow; a general symbol above 2^256 is out
    # of the supported range in build_direct and the slow filter
    grid = _grid_for(gaussian, 64)
    ref = build_direct(gaussian, SymbolSpec.first_variable(
        Symbol1D.indicator(-1.0, 1.0)), grid)
    spec = SymbolSpec.general(
        lambda r, s: scale * ((r >= -1.0) & (r <= 1.0)) + 0.0 * s,
        f"{scale:g}*indicator")
    if scale > TOP:
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            build_direct(gaussian, spec, grid)
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            filter_signal(gaussian, spec, random_bandlimited(
                LineGrid.centered(8.0, 64), seed=3), method="slow")
        return
    M = build_direct(gaussian, spec, grid)
    assert M.lowrank_rank == 1 and math.isfinite(M.lowrank_tail)
    rel = operator_norm(M.values / scale - ref.values) / operator_norm(ref)
    assert rel <= 1e-13, f"{rel:.2e}"


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
    # the identity that makes the two builders one assembly: bit for bit,
    # both for the kernels and for the assembled operators, which keep
    # their own labels
    one = Symbol1D.constant(1.0)
    beta = Symbol1D.gaussian_bump(1.0)
    for atom in (gaussian, shannon):
        grid = _grid_for(atom)
        assert np.array_equal(overlap_kernel(atom, grid).values,
                              weighted_overlap_kernel(atom, one, grid).values)
        integral = build_integral(atom, beta, grid)
        pseudodiff = build_pseudodiff(atom, one, beta, grid)
        assert np.array_equal(integral.values, pseudodiff.values)
        assert (integral.builder, integral.symbol_descriptor) == (
            "integral", "a(s)=bump:1@0")
        assert (pseudodiff.builder, pseudodiff.symbol_descriptor) == (
            "pseudodiff", "a(r,s)=[const:1]x[bump:1@0]")


def _real_smooth_factor(draw, case, variable):
    """A real smooth factor: a gaussian bump, a smooth step (in log2 of the
    scale for the wavelet first variable) or a C^1 cosine window."""
    scales = (case, variable) == ("wavelet", "r")
    kind = draw(st.sampled_from(["bump", "step", "coswin"]))
    if kind == "bump":
        lo, hi = (0.25, 4.0) if scales else (-2.0, 2.0)
        return Symbol1D.gaussian_bump(draw(st.floats(0.25, 8.0)),
                                      draw(st.floats(lo, hi)))
    if kind == "step":
        return Symbol1D.smooth_step(draw(st.floats(0.5, 8.0)),
                                    log2_axis=scales)
    return Symbol1D.cosine_window(draw(st.floats(0.5, 4.0)))


# max |M - M^H| / max |M| reached 4.2e-16 over 760 random draws of such
# symbols on these atoms at n = 32 and 64
HERMITIAN_REL_DEV = 2e-15


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["gabor", "wavelet"]), n=st.sampled_from([32, 64]),
       data=st.data())
def test_real_smooth_symbols_give_hermitian_matrices(gaussian, shannon, case,
                                                     n, data):
    atom = gaussian if case == "gabor" else shannon
    alpha = _real_smooth_factor(data.draw, case, "r")
    beta = _real_smooth_factor(data.draw, case, "s")
    grid = _grid_for(atom, n)
    for M in (build_direct(atom, SymbolSpec.second_variable(beta), grid),
              build_direct(atom, SymbolSpec.separable(alpha, beta), grid),
              build_integral(atom, beta, grid),
              build_pseudodiff(atom, alpha, beta, grid)):
        dev = np.max(np.abs(M.values - M.values.conj().T))
        assert M.is_hermitian
        assert dev <= HERMITIAN_REL_DEV * np.max(np.abs(M.values)), (
            M.builder, M.symbol_descriptor)


def _beta_hat_interp(sign, beta, xi_grid):
    """The difference table read off the transform by linear interpolation
    at sign*step*(i - j), the formula the gather replaced."""
    s_grid = induced_grid(xi_grid)
    count, step = s_grid.count * 4, s_grid.step / 4
    bg = LineGrid(-(count // 2) * step, step, count)
    bhat = fourier(SampledFunction(bg, beta(bg.samples).astype(complex)))
    idx = np.arange(xi_grid.count)
    delta = sign * xi_grid.step * (idx[:, None] - idx[None, :])
    nodes = bhat.grid.samples
    return (np.interp(delta, nodes, bhat.values.real)
            + 1j * np.interp(delta, nodes, bhat.values.imag))


def test_beta_hat_table_is_a_gather_of_the_transform(gaussian, shannon):
    # every lattice difference is a node of the 4n-point transform grid, so
    # on the default grids interpolation returns the node values exactly;
    # elsewhere the node positions differ from the differences by ulps
    betas = (Symbol1D.gaussian_bump(1.0), Symbol1D.cosine_window(2.0),
             Symbol1D.gaussian_bump(1.0, 0.3))
    for atom, sign in ((gaussian, -1.0), (shannon, 1.0)):
        for n in (64, 256):
            grid = _grid_for(atom, n)
            for beta in betas:
                table = _beta_hat_on_lattice(atom, beta, grid)
                ref = _beta_hat_interp(sign, beta, grid)
                assert np.array_equal(table.real, ref.real)
                # an even beta's transform is taken as real: every
                # imaginary part is +0; the others keep the reference's
                if beta is betas[-1]:
                    assert np.array_equal(table.imag, ref.imag)
                else:
                    assert _all_plus_zero(table.imag)
        grid = LineGrid(-7.3, 0.07, 100)
        for beta in betas:
            ref = _beta_hat_interp(sign, beta, grid)
            dev = np.max(np.abs(_beta_hat_on_lattice(atom, beta, grid) - ref))
            assert dev <= 1e-13 * np.max(np.abs(ref))


def test_lag_table_is_the_index_formula():
    # T[i, j] = gen[zero + sign*(i - j)] for both signs at even and odd n,
    # as a read-only view of gen; the two routes' generators: the direct
    # route's tiled three times around zero = n + n//2, the compound
    # route's 4n-point transform around zero = 2n
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 64, 65):
        idx = np.arange(n)
        lag = idx[:, None] - idx[None, :]
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tiled = np.tile(c, 3)
        T = _lag_table(tiled, n + n // 2, 1, n)
        assert T.shape == (n, n) and not T.flags.writeable
        assert np.shares_memory(T, tiled)
        assert np.array_equal(T, tiled[n + n // 2 + lag])
        assert np.array_equal(T, c[(lag + n // 2) % n])
        gen = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
        for sign in (1, -1):
            T = _lag_table(gen, 2 * n, sign, n)
            assert not T.flags.writeable
            assert np.array_equal(T, gen[2 * n + sign * lag])


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
    rep = verify_equivalence(
        gaussian, SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)),
        default_operator_grid("gabor", 256), 1e-3, seed=7)
    assert rep["pass"] and rep["norm_discrepancy"] <= 1e-3


def test_verify_equivalence_cto2(shannon):
    rep = verify_equivalence(
        shannon, SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0)),
        default_operator_grid("wavelet", 128), 5e-3, seed=11)
    assert rep["pass"] and rep["norm_discrepancy"] <= 5e-3
    assert rep["N"] == 128


def test_verify_equivalence_cto3(gaussian):
    rep = verify_equivalence(
        gaussian, SymbolSpec.separable(Symbol1D.indicator(0.0, math.inf),
                                       Symbol1D.cosine_window(2.0)),
        G128, 5e-3, seed=3)
    assert rep["pass"] and rep["norm_discrepancy"] <= 5e-3


def test_verify_reports_failure_without_raising(gaussian):
    spec = SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0))
    rep = verify_equivalence(gaussian, spec, G128, 1e-16, seed=0)
    assert rep["pass"] is False  # rounding exceeds an absurd tolerance


@pytest.mark.parametrize("c", [1e160, 1e300, 2.0 ** 1000])
def test_verify_action_error_at_large_symbols(gaussian, c):
    # c is out of the supported range; at 2^256 the action check scales
    # each product by a power of two before its norm, so 2^256 x bump
    # reads the action error of 1 x bump
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        Symbol1D.constant(c)
    grid = _grid_for(gaussian, 64)
    bump = Symbol1D.gaussian_bump(1.0)
    ref = verify_equivalence(gaussian, SymbolSpec.separable(
        Symbol1D.constant(1.0), bump), grid, 5e-3)
    rep = verify_equivalence(gaussian, SymbolSpec.separable(
        Symbol1D.constant(TOP), bump), grid, 5e-3)
    assert rep["pass"] and ref["action_error_max"] > 0.0
    assert rep["action_error_max"] == pytest.approx(
        ref["action_error_max"], rel=1e-6)


@pytest.mark.parametrize("c", [1e307, 1e308])
def test_compound_routes_near_the_largest_float(gaussian, rect, shannon, haar,
                                                c):
    # c is out of the supported range; at 2^256 the integral and
    # compound-symbol routes and the weighted kernel are 2^256 times their
    # const:1 result, with no warning
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        Symbol1D.constant(c)
    one, top, bump = (Symbol1D.constant(1.0), Symbol1D.constant(TOP),
                      Symbol1D.gaussian_bump(1.0))
    routes = {"integral": lambda a, g, s: build_integral(a, s, g),
              "pseudodiff-alpha": lambda a, g, s: build_pseudodiff(a, s, bump,
                                                                   g),
              "pseudodiff-beta": lambda a, g, s: build_pseudodiff(a, bump, s,
                                                                  g),
              "weighted": lambda a, g, s: weighted_overlap_kernel(a, s, g)}
    for atom in (gaussian, rect, shannon, haar):
        grid = _grid_for(atom, 64)
        for name, route in routes.items():
            ref = route(atom, grid, one).values
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = route(atom, grid, top).values
            rel = np.max(np.abs(got / TOP - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-13, (atom.name, name, rel)


@pytest.mark.parametrize("kind,builder", [("first", "multiplication"),
                                          ("second", "integral"),
                                          ("separable", "pseudodiff")])
def test_verify_equivalence_route_follows_symbol_kind(gaussian, shannon,
                                                      kind, builder):
    for atom in (gaussian, shannon):
        alpha = (Symbol1D.indicator(-1.0, 1.0) if atom.case == "gabor"
                 else Symbol1D.indicator(1.0, 2.0))
        beta = Symbol1D.gaussian_bump(1.0)
        spec = {"first": SymbolSpec.first_variable(alpha),
                "second": SymbolSpec.second_variable(beta),
                "separable": SymbolSpec.separable(alpha, beta)}[kind]
        rep = verify_equivalence(atom, spec, _grid_for(atom, 64), 5e-3)
        assert rep["builder"] == builder, atom.name
        assert rep["symbol"] == spec.descriptor
        assert rep["pass"], (atom.name, rep)


def test_verify_equivalence_rejects_general_symbol(gaussian):
    spec = SymbolSpec.general(lambda r, s: np.cos(r * s), descriptor="cos(rs)")
    with pytest.raises(ValueError, match=r"cos\(rs\)"):
        verify_equivalence(gaussian, spec, _grid_for(gaussian, 64), 5e-3)


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


def _svd_norm(A):
    return float(np.linalg.svd(A, compute_uv=False)[0])


def test_operator_norm_hermitian_uses_eigenvalues(gaussian, shannon):
    # a Hermitian OperatorMatrix takes max |eigvalsh|, the value spectrum
    # reports; it agrees with the SVD to rounding.  A raw diagonal array
    # (these first-variable matrices are exactly diagonal) is read off its
    # diagonal, and a non-Hermitian matrix takes the certified Lanczos
    # estimate, within 1e-13 of the SVD
    for atom in (gaussian, shannon):
        M = build_direct(atom, SymbolSpec.first_variable(
            Symbol1D.indicator(-1.0, 1.5)), _grid_for(atom))
        assert M.is_hermitian
        nm = operator_norm(M)
        assert nm == spectrum(M).norm_estimate
        svd = _svd_norm(M.values)
        assert abs(nm - svd) <= 1e-13 * svd
        assert abs(operator_norm(M.values) - svd) <= 1e-13 * svd
    rng = np.random.default_rng(4)
    A = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    N = OperatorMatrix(LineGrid.centered(8.0, 32), A, "test", "none", "none")
    assert not N.is_hermitian
    svd = _svd_norm(A)
    assert abs(operator_norm(N) - svd) <= 1e-13 * svd


def _rotated(d):
    """Q diag(d) Q^T for a seeded orthogonal Q: the singular values |d|,
    with nonzero off-diagonal entries, so the norm is not read off."""
    n = len(d)
    Q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    return (Q * d) @ Q.T


def _spread(top, n):
    """Matrix with singular values spread over [0.1, 0.9] and the given
    top values."""
    d = np.linspace(0.1, 0.9, n)
    d[-len(top):] = top
    return _rotated(d)


def _verify_differences(gaussian, shannon):
    """direct - specialized of each verify-dense comparison, at n = 64 for
    the six suite/case pairs and n = 128 for cto1, the suite that the
    workload also runs at a second size."""
    out = {}
    for atom in (gaussian, shannon):
        for suite, n in (("cto1", 64), ("cto2", 64), ("cto3", 64),
                         ("cto1", 128)):
            spec = _suite_symbol(suite, atom)
            grid = _grid_for(atom, n)
            if spec.kind == "first":
                other = build_multiplication(gamma(atom, spec.alpha, grid,
                                                   rule="grid"))
            elif spec.kind == "second":
                other = build_integral(atom, spec.beta, grid)
            else:
                other = build_pseudodiff(atom, spec.alpha, spec.beta, grid)
            D = build_direct(atom, spec, grid).values - other.values
            out[f"{suite}/{atom.case}/{n}"] = D
    return out


def test_operator_norm_matches_svd_on_adversarial_inputs(gaussian, shannon):
    # the Lanczos estimate is within 1e-13 of the SVD's sigma_1 and never
    # above it by more than that: single entries, a rank-1 product, a top
    # pair equal or 1e-12 apart (a certificate of 1e-12 on the Ritz value
    # reads 3.5e-13 low on the n = 16 pair), a top right singular vector
    # that is a DFT mode, and the verify-dense differences
    rng = np.random.default_rng(8)
    F = np.fft.fft(np.eye(64)) / 8.0
    Q = np.linalg.qr(rng.standard_normal((64, 64))
                     + 1j * rng.standard_normal((64, 64)))[0]
    dft = np.linspace(0.1, 0.9, 64)
    dft[5] = 1.0
    cases = {
        "1x1": np.array([[3.0 - 4.0j]]),
        "2x2": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "2x2 complex": rng.standard_normal((2, 2))
        + 1j * rng.standard_normal((2, 2)),
        "rank 1": np.outer(rng.standard_normal(64),
                           rng.standard_normal(64) + 1j),
        "dft mode": (Q * dft) @ F.conj().T,
    }
    for n in (16, 64):
        cases[f"equal top pair, n = {n}"] = _spread([1.0, 1.0], n)
        cases[f"top pair 1e-12 apart, n = {n}"] = _spread(
            [1.0 - 1e-12, 1.0], n)
    cases.update(_verify_differences(gaussian, shannon))
    for name, A in cases.items():
        svd = _svd_norm(A)
        # the Lanczos estimate is certified on every case, the 1x1 case and
        # the diagonal cto1 differences included
        est = _lanczos_norm(A)
        assert est is not None, name
        for nm in (operator_norm(A), est):
            assert abs(nm - svd) <= 1e-13 * svd, \
                f"{name}: {(nm - svd) / svd:.2e}"
            assert nm <= svd * (1 + 1e-13), name


def test_operator_norm_of_zero_is_zero_without_warnings():
    # the Lanczos iteration on the zero matrix breaks down at A v_0 = 0 and
    # hands over to the SVD without a warning
    for dtype in (float, complex):
        with np.errstate(all="raise"):
            assert operator_norm(np.zeros((16, 16), dtype)) == 0.0
            assert _lanczos_norm(np.zeros((16, 16), dtype)) is None


def test_operator_norm_falls_back_to_the_svd_at_a_zero_ritz_value(monkeypatch):
    # the top Ritz value is at least ||A v_0||^2 4^-e >= 1/16 for A v_0 != 0,
    # so only a solver that returns no positive one reaches the breakdown
    A = np.arange(16.0).reshape(4, 4)
    svd = float(np.linalg.svd(A, compute_uv=False)[0])
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda T: (np.zeros(len(T)), np.eye(len(T))))
    assert _lanczos_norm(A) is None
    assert operator_norm(A) == svd


def test_spectrum_of_non_finite_eigenvalues_raises(monkeypatch):
    # LAPACK returns finite eigenvalues of a finite matrix or raises, so a
    # solver that returns NaN stands for one that did not converge
    M = OperatorMatrix(LineGrid(0.0, 1.0, 2), [[0.0, 1.0], [0.0, 0.0]],
                       "test", "atom", "symbol")
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda values: np.full(len(values), np.nan + 0j))
    with pytest.raises(ArithmeticError,
                       match="^eigenvalue computation did not converge$"):
        spectrum(M)


def test_operator_norm_reads_a_diagonal_off(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver was called")

    # a 1-D array is a diagonal operator's entries: max |d_i|, no solver
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr("tfloc.operators._lanczos_norm", refuse)
    assert operator_norm(np.array([0.5, -3.0 + 4.0j, 1e-300, 2.0j])) == 5.0
    assert operator_norm(np.array([-7.25])) == 7.25
    assert operator_norm(np.zeros(3)) == 0.0


def test_operator_norm_rejects_an_array_out_of_range():
    # a bare array above 2^512, past any built operator, where the Lanczos
    # products would overflow, raises with no warning; at 2^512 it runs.
    # A 1-D array of a diagonal operator's entries (C's diagonal) is
    # checked as the n x n matrix is
    A = np.random.default_rng(4).standard_normal((32, 32))
    C = (A + 1j * A[::-1]) / (2 * np.max(np.abs(A)))
    C[0, 0] = 1.0
    top = 2.0 ** (2 * RANGE_EXPONENT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (C, C.diagonal().copy()):
            for bad in (M * 1.7e308, M * np.nextafter(top, math.inf),
                        np.where(M == 1.0, np.inf, M)):
                with pytest.raises(ValueError, match=r"^matrix (exceeds the "
                                   r"supported range: a value above "
                                   r"2\^512 |is not finite)"):
                    operator_norm(bad)
        got = operator_norm(C * top)
        assert operator_norm(C.diagonal() * top) == \
            float(np.max(np.abs(C.diagonal()))) * top
    ref = math.ldexp(_svd_norm(C), 2 * RANGE_EXPONENT)
    assert abs(got - ref) <= 1e-13 * ref


def test_operator_norm_of_a_subnormal_matrix():
    # the Lanczos vectors are scaled by 2^-e in place, so a matrix below
    # 2^-1022 runs (math.ldexp(1, -e) overflowed there) and its certified
    # norm is that of the matrix scaled exactly into the normal range,
    # scaled back: to one subnormal ulp at 1e-320
    A = np.random.default_rng(4).standard_normal((32, 32))
    for tiny in (1e-310, 1e-320):
        for B in (A * tiny, (A + 1j * A[::-1]) * tiny):
            up = np.array(B)
            _ldexp(up, 1074)
            ref = math.ldexp(_svd_norm(up), -1074)
            assert _lanczos_norm(B) is not None
            got = operator_norm(B)
            assert abs(got - ref) <= 1e-13 * ref + math.ulp(0.0), (tiny, got)


def test_verify_equivalence_of_a_tiny_separable_symbol(gaussian, shannon):
    # const:1e-300 x bump:1 leaves a direct-minus-compound difference below
    # 2^-1022: its norm runs, and the report passes with the discrepancies
    # of const:1 scaled by 1e-300
    def report(atom, c):
        spec = SymbolSpec.separable(Symbol1D.constant(c),
                                    Symbol1D.gaussian_bump(1.0))
        return verify_equivalence(atom, spec, _grid_for(atom, 64), 5e-3)

    for atom in (gaussian, shannon):
        one, tiny = report(atom, 1.0), report(atom, 1e-300)
        assert tiny["pass"]
        for key in ("norm_discrepancy", "action_error_max"):
            assert tiny[key] == pytest.approx(one[key], rel=1e-6), key
        assert tiny["hausdorff"] == pytest.approx(1e-300 * one["hausdorff"],
                                                  rel=1e-6)


def test_operator_norm_falls_back_to_the_svd_bit_for_bit():
    # 256 evenly spread singular values, the top one without a gap: no
    # certificate within the step cap
    A = _rotated(np.linspace(0.1, 1.0, 256))
    assert np.any(A - np.diag(A.diagonal()))
    assert _lanczos_norm(A) is None
    assert operator_norm(A) == _svd_norm(A)


def test_operator_norm_repeats_and_leaves_the_global_rng_alone():
    A = np.random.default_rng(5).standard_normal((96, 96)) + 0.5j
    state = np.random.get_state()
    first = operator_norm(A)
    assert operator_norm(A) == first
    assert operator_norm(A.copy()) == first
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1])


@pytest.fixture()
def no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
def test_verify_runs_without_the_svd(gaussian, shannon, case, no_svd):
    atom = gaussian if case == "gabor" else shannon
    for suite in ("cto1", "cto2", "cto3"):
        rep = verify_equivalence(atom, _suite_symbol(suite, atom),
                                 _grid_for(atom, 256), 5e-3)
        assert rep["pass"], (suite, rep)


# the symbol pools of the ``verify algebra`` suite
ALGEBRA_POOLS = {
    "gabor": [Symbol1D.indicator(-1.0, 1.0),
              Symbol1D.indicator(float("-inf"), 0.0),
              Symbol1D.smooth_step(4.0), Symbol1D.gaussian_bump(8.0)],
    "wavelet": [Symbol1D.indicator(1.0, 2.0),
                Symbol1D.indicator(0.5, 8.0),
                Symbol1D.smooth_step(8.0, log2_axis=True),
                Symbol1D.constant(0.5)],
}


def test_commutators_run_without_the_svd(gaussian, shannon, no_svd):
    for atom in (gaussian, shannon):
        rel = commutator_diagnostics(atom, ALGEBRA_POOLS[atom.case],
                                     _grid_for(atom, 128))
        assert len(rel) == 6 and max(rel.values()) <= 1e-12, atom.name


def _dense_commutators(atom, pool, grid):
    """||AB - BA|| / (||A|| ||B||) of every pair, from dense products and
    SVDs."""
    mats = [build_direct(atom, SymbolSpec.first_variable(a), grid).values
            for a in pool]
    norms = [np.linalg.norm(A, 2) for A in mats]
    return {(i, j): np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i], 2)
            / (norms[i] * norms[j])
            for i in range(len(pool)) for j in range(i + 1, len(pool))}


@pytest.mark.parametrize("n", [64, 128])
def test_diagonal_commutators_are_read_off_as_zero(gaussian, rect, shannon,
                                                   haar, n, monkeypatch):
    # on the default windows every pool matrix is diagonal: the pairs'
    # commutators are exactly 0, read off with no product and no norm
    for atom in (gaussian, rect, shannon, haar):
        grid = _grid_for(atom, n)
        dense = _dense_commutators(atom, ALGEBRA_POOLS[atom.case], grid)
        assert set(dense.values()) == {0.0}, atom.name
        calls = []
        monkeypatch.setattr("tfloc.algebra.operator_norm",
                            lambda M: calls.append(M) or operator_norm(M))
        rel = commutator_diagnostics(atom, ALGEBRA_POOLS[atom.case], grid)
        monkeypatch.undo()
        assert rel == dict.fromkeys(dense, 0.0), atom.name
        assert len(calls) == 4  # the pool's own norms


@pytest.mark.parametrize("case, lo, hi, n", [("wavelet", 0.3, 3.7, 63),
                                             ("gabor", -3.0, 5.0, 65)])
def test_commutators_off_the_lattice_take_the_dense_products(
        gaussian, rect, shannon, haar, case, lo, hi, n):
    # odd n on an off-centre window: the pool matrices are not diagonal,
    # and each commutator is the dense formula, at rounding level
    grid = LineGrid(lo, (hi - lo) / n, n)
    atoms = (gaussian, rect) if case == "gabor" else (shannon, haar)
    for atom in atoms:
        pool = ALGEBRA_POOLS[case]
        assert not any(build_direct(atom, SymbolSpec.first_variable(a),
                                    grid).is_diagonal for a in pool)
        rel = commutator_diagnostics(atom, pool, grid)
        dense = _dense_commutators(atom, pool, grid)
        assert rel.keys() == dense.keys()
        for key, value in rel.items():
            assert 0.0 < value <= 1e-13, (atom.name, key, value)
            assert value == pytest.approx(dense[key], rel=1e-12, abs=0.0)


def _dense_action_error(direct, other, seed):
    """The seeded action check of ``verify_equivalence`` with dense
    matvecs."""
    rng = np.random.default_rng(seed)
    n = direct.values.shape[0]
    errs = []
    for _ in range(10):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dv = direct.values @ v
        errs.append(np.linalg.norm(dv - other.values @ v)
                    / np.linalg.norm(dv))
    return max(errs)


@pytest.mark.parametrize("n", [64, 256, 512])
def test_cto1_action_check_matches_the_dense_matvecs(gaussian, rect, shannon,
                                                     haar, n):
    # both cto1 matrices are diagonal, so the check multiplies entry by
    # entry.  Real diagonals give the dense matvecs' bits: their other
    # terms are +-0.  haar's direct diagonal carries imaginary parts of
    # about 2e-17, which the elementwise and the BLAS complex products
    # round differently, so its value agrees to a few eps
    eps = np.finfo(float).eps
    for atom in (gaussian, rect, shannon, haar):
        spec = _suite_symbol("cto1", atom)
        grid = _grid_for(atom, n)
        direct = build_direct(atom, spec, grid)
        other = build_multiplication(gamma(atom, spec.alpha, grid,
                                           rule="grid"))
        assert direct.is_diagonal and other.is_diagonal
        rep = verify_equivalence(atom, spec, grid, 1e-3, seed=n)
        dense = _dense_action_error(direct, other, n)
        if atom is haar:
            assert abs(rep["action_error_max"] - dense) <= 2 * eps
        else:
            assert rep["action_error_max"] == dense, atom.name


@pytest.mark.parametrize("case", ["gabor", "wavelet"])
@pytest.mark.parametrize("n", [64, 256, 512])
def test_diagonal_spectrum_is_the_sorted_diagonal(gaussian, shannon, case, n,
                                                  monkeypatch):
    # the cto1 multiplication operator is diagonal: its eigenvalues are read
    # off, equal to what eigvalsh returns, and no solver runs
    atom = gaussian if case == "gabor" else shannon
    spec = _suite_symbol("cto1", atom)
    M = build_multiplication(gamma(atom, spec.alpha, _grid_for(atom, n),
                                   rule="grid"))
    ref = np.linalg.eigvalsh(0.5 * (M.values + M.values.conj().T))

    def no_solver(H):
        raise AssertionError("eigvalsh ran on a diagonal matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
    assert np.array_equal(_hermitian_eigvals(M), ref)


def test_nondiagonal_hermitian_spectrum_uses_the_solver(monkeypatch):
    # a matrix given n x n goes to eigvalsh: here with one off-diagonal pair
    A = np.diag(np.arange(8.0)).astype(complex)
    A[6, 1], A[1, 6] = 1e-300j, -1e-300j
    M = OperatorMatrix(LineGrid.centered(8.0, 8), A, "test", "none", "none")
    calls = []
    solver = np.linalg.eigvalsh

    def counted(H):
        calls.append(H.shape)
        return solver(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert not M.is_diagonal
    assert np.array_equal(_hermitian_eigvals(M), solver(A))
    assert calls == [(8, 8)]
    # an anti-Hermitian off-diagonal pair leaves H diagonal; M is not, so
    # the solver runs, and returns the sorted diagonal
    A[6, 1], A[1, 6] = 1e-300, -1e-300
    M = OperatorMatrix(LineGrid.centered(8.0, 8), A, "test", "none", "none")
    assert M.is_hermitian and not M.is_diagonal
    assert np.array_equal(_hermitian_eigvals(M), np.arange(8.0))
    assert calls == [(8, 8)] * 2


@pytest.mark.parametrize("n", [64, 512])
def test_nonhermitian_diagonal_spectrum_is_the_diagonal(gaussian, rect,
                                                        shannon, haar, n):
    # a complex first-variable symbol gives a diagonal operator that is not
    # Hermitian: its spectrum is its diagonal in order, the bits eigvals
    # returns for np.diag of it (n = 64), read with no n x n array (n = 512)
    for atom in (gaussian, rect, shannon, haar):
        specs = {"const:1+1j": SymbolSpec.first_variable(
            Symbol1D.constant(1 + 1j)), **_diagonal_specs(atom.case)}
        del specs["first"]
        for kind, spec in specs.items():
            M = build_direct(atom, spec, _grid_for(atom, n))
            assert M.is_diagonal and not M.is_hermitian, (atom.name, kind)
            if n == 64:
                ref = np.linalg.eigvals(np.diag(M.diagonal))
                assert spectrum(M).values.tobytes() == ref.tobytes(), kind
                continue
            tracemalloc.start()
            try:
                values = spectrum(M).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values.tobytes() == M.diagonal.tobytes(), kind
            assert peak <= 4 * n * 16, (atom.name, kind, peak)


def test_hausdorff_distance_basics():
    assert hausdorff_distance([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert abs(hausdorff_distance([0.0], [0.5, 3.0]) - 3.0) <= 1e-15
    assert abs(hausdorff_distance([0.0, 1.0], [0.25]) - 0.75) <= 1e-15


def _table_hausdorff(a, b):
    """The Hausdorff distance from the full table of |a_i - b_j|."""
    d = np.abs(np.asarray(a, dtype=complex)[:, None]
               - np.asarray(b, dtype=complex)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e300]),
    st.floats(-1e300, 1e300),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 10.0),
              st.integers(-300, 299), st.sampled_from([1.0, -1.0])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), a=st.lists(_POINTS, min_size=1, max_size=12))
def test_hausdorff_of_real_sets_equals_the_table(data, a):
    # the sorted neighbours give the table's value bit for bit: ties,
    # duplicates, signed zeros, unequal lengths and length 1 included
    b = data.draw(st.lists(st.one_of(_POINTS, st.sampled_from(a)),
                           min_size=1, max_size=12))
    ref = _table_hausdorff(a, b)
    assert hausdorff_distance(a, b) == ref
    assert hausdorff_distance(b, a) == ref
    # an imaginary part equal to zero, of either sign, is a real set
    assert hausdorff_distance(np.array(a) - 0j, b) == ref


def test_hausdorff_distance_with_nan_is_nan():
    for a, b in [([0.0, np.nan], [1.0]), ([1.0], [np.nan, 0.0, 2.0]),
                 ([np.nan], [np.nan]), ([1j, np.nan], [0.0])]:
        assert math.isnan(hausdorff_distance(a, b)), (a, b)
        assert math.isnan(hausdorff_distance(b, a)), (a, b)


def test_hausdorff_of_complex_sets_uses_the_table():
    a, b = [0.0, 1 + 1j, -2j], [1.0, 1e-3j]
    assert hausdorff_distance(a, b) == _table_hausdorff(a, b) == abs(-2j - 1e-3j)


def test_hausdorff_of_complex_sets_over_blocks_is_the_table():
    # sets of 1 to 3 blocks of 64 points and a last block of 1 or 7: the
    # row and column minima taken a block at a time have the bits of the
    # whole table's, and a NaN in any block gives NaN
    rng = np.random.default_rng(17)
    for n, m in ((1, 200), (64, 65), (129, 7), (135, 300)):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert hausdorff_distance(a, b) == _table_hausdorff(a, b), (n, m)
        assert hausdorff_distance(b, a) == _table_hausdorff(b, a), (n, m)
        for i in {0, n // 2, n - 1}:
            bad = a.copy()
            bad[i] = complex(np.nan, 1.0)
            assert math.isnan(hausdorff_distance(bad, b)), (n, i)
            assert math.isnan(hausdorff_distance(b, bad)), (n, i)


# -- real operators in real arithmetic ----------------------------------------------------

# Rounding allowance c of c*n*eps*||A||, shared by two pins: the real and
# the complex symmetric solver on one matrix, and the Weyl bound between
# two matrices.  Measured at most 0.12 (real against complex solver, radial
# sigma = 2 at n = 64) and 0.068 (Weyl, rect cto2 at n = 256).
EIG_ROUNDING_C = 0.5


def _radial_and_disk():
    """The radial Gaussians e^{-pi (r^2 + s^2) / sigma^2}, sigma = 1 and 2,
    and the disk of radius 2 (Daubechies 1988): even in s."""
    return [SymbolSpec.general(
        lambda r, s, s2=s2: np.exp(-np.pi * (r * r + s * s) / s2),
        f"radial:{s2:g}") for s2 in (1.0, 4.0)] + [SymbolSpec.general(
            lambda r, s: (r * r + s * s <= 4.0).astype(float), "disk:2")]


def _specialized(atom, spec, grid):
    """The route ``verify_equivalence`` compares the direct matrix with."""
    if spec.kind == "first":
        return build_multiplication(gamma(atom, spec.alpha, grid, rule="grid"))
    if spec.kind == "second":
        return build_integral(atom, spec.beta, grid)
    return build_pseudodiff(atom, spec.alpha, spec.beta, grid)


def _real_operators(gaussian, rect, shannon, n):
    """Every matrix the real path covers: both routes of the cto2/cto3
    symbols on the real catalog atoms, and the direct matrices of the
    radial Gaussians and the disk on the gaussian window."""
    for atom in (gaussian, rect, shannon):
        grid = _grid_for(atom, n)
        for suite in ("cto2", "cto3"):
            spec = _suite_symbol(suite, atom)
            yield f"{atom.name}/{suite}/direct", build_direct(atom, spec, grid)
            yield f"{atom.name}/{suite}/compound", _specialized(atom, spec,
                                                                grid)
    for spec in _radial_and_disk():
        yield spec.descriptor, build_direct(gaussian, spec,
                                            _grid_for(gaussian, n))


@pytest.mark.parametrize("n", [64, 256])
def test_even_real_symbols_give_exactly_real_matrices(gaussian, rect,
                                                      shannon, n):
    # every route hands a real matrix over as float64 (the dtype contract
    # of OperatorMatrix): both routes of the cto2/cto3 symbols, the radial
    # Gaussians and the disk, and both overlap kernels
    mats = list(_real_operators(gaussian, rect, shannon, n))
    for atom in (gaussian, rect, shannon):
        grid = _grid_for(atom, n)
        alpha = _suite_symbol("cto3", atom).alpha
        mats += [(f"{atom.name}/overlap", overlap_kernel(atom, grid)),
                 (f"{atom.name}/weighted",
                  weighted_overlap_kernel(atom, alpha, grid))]
    for label, M in mats:
        assert M.is_real and M.values.dtype == np.float64, label


def test_complex_paths_stay_complex(gaussian, shannon, haar):
    # haar's complex record, a beta that is not even, and the odd,
    # off-centre grids of CI, whose phases are not +-1
    cases = [(haar, _suite_symbol(suite, haar), _grid_for(haar, 64))
             for suite in ("cto2", "cto3")]
    odd = SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0, 0.3))
    cases += [(atom, odd, _grid_for(atom, 64)) for atom in (gaussian, shannon)]
    for atom, grid in ((shannon, LineGrid(0.3, 3.4 / 63, 63)),
                       (gaussian, LineGrid(-3.0, 8.0 / 65, 65))):
        cases += [(atom, _suite_symbol(suite, atom), grid)
                  for suite in ("cto1", "cto2", "cto3")]
    # and a complex symbol, on a real record and on haar's
    one_one = Symbol1D.constant(1 + 1j)
    cases += [(atom, SymbolSpec.first_variable(one_one), _grid_for(atom, 64))
              for atom in (gaussian, haar)]
    for atom, spec, grid in cases:
        routes = [build_direct(atom, spec, grid)]
        if spec.kind != "first" and atom is not haar:
            routes.append(_specialized(atom, spec, grid))
        for M in routes:
            assert not M.is_real and M.values.dtype == np.complex128, \
                (atom.name, spec.descriptor, grid.count, M.builder)
            assert M.values.imag.any()
    for atom in (gaussian, haar):
        grid = _grid_for(atom, 64)
        kernels = [weighted_overlap_kernel(atom, one_one, grid)]
        if atom is haar:
            kernels.append(overlap_kernel(atom, grid))
        for K in kernels:
            assert K.values.dtype == np.complex128 and K.values.imag.any(), \
                (atom.name, K.builder)


def test_operator_matrix_holds_float64_exactly_when_real():
    # a complex array with no nonzero imaginary part is stored as a float64
    # copy of its real parts, and the caller's array is left as it is; one
    # nonzero imaginary part (or a NaN there) keeps complex128
    grid = LineGrid(0.0, 1.0, 3)
    given = np.array([[1, -0.0j, 0], [0, 2, 0], [0, 0, 3]], dtype=complex)
    for values in (given, given.real, given.real.astype(int), np.diag(given)):
        M = OperatorMatrix(grid, values, "test", "atom", "symbol")
        held = M.diagonal if M.is_diagonal else M.values
        assert M.is_real and held.dtype == np.float64
        assert held.flags.c_contiguous
        assert np.array_equal(held, values.real)
    assert given.dtype == np.complex128 and given[0, 1].imag == 0
    given[0, 0] += 1e-300j
    M = OperatorMatrix(grid, given, "test", "atom", "symbol")
    assert not M.is_real and M.values is given
    given[0, 0] += complex(0, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(grid, given, "test", "atom", "symbol")


def test_a_tiny_constant_weights_the_kernel_exactly(gaussian):
    # the Gram weights are scaled by the exact power of two of their largest
    # part, and the product back, so a tiny symbol forms no subnormal
    # product: the const:2^-960 kernel is 2^-960 times the const:1 kernel
    # wherever that product is normal
    grid = default_operator_grid("gabor", 256)
    one, tiny = (weighted_overlap_kernel(gaussian, Symbol1D.constant(c),
                                         grid).values
                 for c in (1.0, 2.0 ** -960))
    ref = one * 2.0 ** -960
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert normal.sum() > one.size // 2
    assert np.array_equal(tiny[normal], ref[normal])


def test_even_real_transforms_keep_the_real_parts(gaussian, rect, shannon,
                                                   monkeypatch):
    # the lag generators of an even real symbol get +0 imaginary parts and
    # keep the real parts of the complex transform bit for bit; a beta that
    # is not even keeps both.  The matrices of both routes, from a real
    # record and a real kernel, keep their real values (a product that is
    # zero may change the sign of its zero)
    odd = SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0, 0.3))
    for atom in (gaussian, shannon):
        for n in (64, 256):
            s_grid = induced_grid(_grid_for(atom, n))
            sw = _sandwich(s_grid, atom.action.axis2_forward,
                           induced_grid(s_grid))
            for spec in [_suite_symbol(suite, atom)
                         for suite in ("cto2", "cto3")] + [odd]:
                _, V, _ = _lowrank_factors(
                    spec.evaluate_field(atom.g1.nodes, s_grid.samples))
                got, ref = sw.real_where_even(V), sw(V)
                assert _bits(got.real) == _bits(ref.real)
                if spec is odd:
                    assert _bits(got.imag) == _bits(ref.imag)
                else:
                    assert ref.imag.any() and _all_plus_zero(got.imag)
    real = {label: M.values for label, M in
            _real_operators(gaussian, rect, shannon, 64)}
    monkeypatch.setattr(_Sandwich, "real_where_even", _Sandwich.__call__)
    for label, M in _real_operators(gaussian, rect, shannon, 64):
        assert np.array_equal(real[label].real, M.values.real), label
        assert _all_plus_zero(real[label].imag), label


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _all_plus_zero(a):
    return not (a.any() or np.signbit(a).any())


def test_real_solver_matches_the_complex_solver(gaussian, rect, shannon,
                                                monkeypatch):
    # an exactly real Hermitian matrix goes to the real symmetric solver;
    # its eigenvalues are those of the complex solver on the complex H up
    # to rounding
    solver, args = np.linalg.eigvalsh, []

    def spied(H):
        args.append(H.dtype)
        return solver(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", spied)
    eps = np.finfo(float).eps
    for n in (64, 256):
        for label, M in _real_operators(gaussian, rect, shannon, n):
            args.clear()
            got = _hermitian_eigvals(M)
            assert args == [np.float64], label
            H = 0.5 * (M.values + M.values.conj().T)
            ref = solver(H)
            bound = EIG_ROUNDING_C * n * eps * np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= bound, label


def test_real_operator_norm_runs_on_the_real_part(gaussian, rect, shannon,
                                                  monkeypatch):
    # the difference of two exactly real matrices has a certified Lanczos
    # norm taken in real arithmetic
    lanczos, args = _lanczos_norm, []

    def spied(A):
        args.append(A.dtype)
        return lanczos(A)

    monkeypatch.setattr("tfloc.operators._lanczos_norm", spied)
    mats = dict(_real_operators(gaussian, rect, shannon, 256))
    for atom in (gaussian, rect, shannon):
        for suite in ("cto2", "cto3"):
            A, B = (mats[f"{atom.name}/{suite}/{route}"].values
                    for route in ("direct", "compound"))
            args.clear()
            got = operator_norm(A - B)
            assert args == [np.float64]
            assert got == lanczos(np.ascontiguousarray((A - B).real))
            assert abs(got - _svd_norm(A - B)) <= 1e-13 * got


def test_real_operators_repeat_byte_for_byte(gaussian, rect, shannon):
    first = [(M.values, spectrum(M).values)
             for _, M in _real_operators(gaussian, rect, shannon, 64)]
    again = [(M.values, spectrum(M).values)
             for _, M in _real_operators(gaussian, rect, shannon, 64)]
    assert [tuple(map(_bits, x)) for x in first] == \
        [tuple(map(_bits, x)) for x in again]
    for atom in (gaussian, rect, shannon):
        spec = _suite_symbol("cto3", atom)
        grid = _grid_for(atom, 256)
        assert verify_equivalence(atom, spec, grid, 1e-3) == \
            verify_equivalence(atom, spec, grid, 1e-3)


@pytest.mark.parametrize("n", [64, 128, 256])
def test_hausdorff_within_the_weyl_bound(gaussian, rect, shannon, haar, n):
    # Weyl: sorted eigenvalues of the Hermitian parts differ by at most
    # ||H_A - H_B|| <= ||A - B||, which bounds the Hausdorff distance of the
    # two spectra; each solver adds its rounding, c*n*eps*||A||.  Haar's
    # pairs run the complex solver, the others the real one
    eps = np.finfo(float).eps
    for atom in (gaussian, rect, shannon, haar):
        grid = _grid_for(atom, n)
        for suite in ("cto1", "cto2", "cto3"):
            spec = _suite_symbol(suite, atom)
            hd = verify_equivalence(atom, spec, grid, 1.0)["hausdorff"]
            A = build_direct(atom, spec, grid).values
            B = _specialized(atom, spec, grid).values
            bound = (_svd_norm(A - B)
                     + EIG_ROUNDING_C * n * eps * _svd_norm(A))
            assert hd <= bound, f"{atom.name}/{suite}: {hd:.3e} > {bound:.3e}"


# -- signal filtering --------------------------------------------------------------------

SIGNAL_GRID = LineGrid.centered(8.0, 1024)


def test_filter_constant_symbol_reproduces_signal(gaussian, shannon):
    for atom in (gaussian, shannon):
        f = random_bandlimited(SIGNAL_GRID, seed=19)
        out, _ = filter_signal(
            atom, SymbolSpec.first_variable(Symbol1D.constant(1.0)), f,
            method="slow")
        err = np.linalg.norm(out.values - f.values) / np.linalg.norm(f.values)
        assert err <= 2e-3, f"{atom.name}: {err:.2e}"


def test_filter_halfline_contracts_energy(gaussian):
    spec = SymbolSpec.first_variable(Symbol1D.indicator(-math.inf, 0.0))
    for k in range(5):
        f = random_bandlimited(SIGNAL_GRID, seed=200 + k)
        out, _ = filter_signal(gaussian, spec, f, method="slow")
        assert out.norm() <= f.norm() * (1 + 1e-12)


def test_filter_fast_slow_agree(gaussian, shannon):
    for atom, sym in [(gaussian, Symbol1D.indicator(-1.0, 1.0)),
                      (shannon, Symbol1D.indicator(1.0, 2.0))]:
        f = random_bandlimited(SIGNAL_GRID, seed=33)
        fast, slow, dev, _ = filter_signal(
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
        _, _, dev, _ = filter_signal(
            atom, SymbolSpec.first_variable(sym), f, method="compare")
        assert dev <= 1e-9, f"{atom.name}, {grid!r}: {dev:.2e}"


def test_filter_scale_band_attenuates_as_fast_path_predicts(shannon):
    # scale band [1, 2]: the diagonal symbol is the log-overlap tent peaking
    # at |xi| = 1 and vanishing outside [1/2, 2]; the slow output spectrum
    # must match gamma * f_hat, the fast-path prediction
    sym = Symbol1D.indicator(1.0, 2.0)
    spec = SymbolSpec.first_variable(sym)
    f = random_bandlimited(SIGNAL_GRID, seed=44)
    out, _ = filter_signal(shannon, spec, f, method="slow")
    fh, oh = fourier(f), fourier(out)
    gf = gamma(shannon, sym, fh.grid, rule="grid")
    assert np.max(np.abs(oh.values - gf.values * fh.values)) <= 5e-3
    xs = np.abs(fh.grid.samples)
    kill = (xs < 0.5 - 1e-9) | (xs > 2.0 + 1e-9)
    assert np.max(np.abs(oh.values[kill])) <= 5e-3


@pytest.mark.parametrize("kind", ["first", "second", "separable"])
def test_filter_slow_scales_near_overflow_symbols(gaussian, shannon, kind):
    # no factor is scaled: at 2^256, the top of the supported range, the
    # output is 2^256 times the const:1 output, bit for bit, with no
    # warning; one float above it is out of range
    def spec(c):
        one = Symbol1D.gaussian_bump(1.0)
        return {"first": SymbolSpec.first_variable(Symbol1D.constant(c)),
                "second": SymbolSpec.second_variable(Symbol1D.constant(c)),
                "separable": SymbolSpec.separable(Symbol1D.constant(c),
                                                  one)}[kind]

    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        spec(OVER)
    f = random_bandlimited(LineGrid.centered(8.0, 256), seed=3)
    for atom in (gaussian, shannon):
        one, _ = filter_signal(atom, spec(1.0), f, method="slow")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top, _ = filter_signal(atom, spec(TOP), f, method="slow")
        assert np.array_equal(top.values,
                              _ldexp_copy(one.values, RANGE_EXPONENT))


def test_filter_fast_scales_near_overflow_symbols(gaussian, shannon):
    # no factor is scaled: h times the gamma of const:2^256 is 2^256 times
    # the const:1 output, bit for bit, with no warning
    def spec(c):
        return SymbolSpec.first_variable(Symbol1D.constant(c))

    f = random_bandlimited(LineGrid.centered(8.0, 256), seed=3)
    for atom in (gaussian, shannon):
        one, _ = filter_signal(atom, spec(1.0), f, method="fast")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top, _ = filter_signal(atom, spec(TOP), f, method="fast")
        assert np.array_equal(top.values,
                              _ldexp_copy(one.values, RANGE_EXPONENT))


@pytest.mark.parametrize("case, top", [("gabor", 1022), ("wavelet", 1020)])
def test_slow_filter_of_a_scaled_signal_keeps_the_bits(case, top):
    # no signal is scaled: with f's largest part in (1/2, 1), slow(2^256 f) is
    # 2^256 slow(f) bit for bit, with no warning, and --compare agrees; 2^257 f
    # and 2^top f (whose transforms would overflow) raise the range error
    atom = make_atom(case, {"gabor": "gaussian", "wavelet": "shannon"}[case])
    spec = SymbolSpec.first_variable(
        {"gabor": Symbol1D.indicator(-1.0, 1.0),
         "wavelet": Symbol1D.indicator(1.0, 2.0)}[case])
    f = random_bandlimited(LineGrid.centered(8.0, 256), seed=3)
    f = SampledFunction(f.grid, _ldexp_copy(f.values, -_exponent(f.values)))
    one, _ = filter_signal(atom, spec, f, method="slow")
    big = SampledFunction(f.grid, _ldexp_copy(f.values, RANGE_EXPONENT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = filter_signal(atom, spec, big, method="slow")
        _, slow, dev, _ = filter_signal(atom, spec, big, method="compare")
        for k in (RANGE_EXPONENT + 1, top):
            with pytest.raises(ValueError, match=OUT_OF_RANGE):
                filter_signal(atom, spec, SampledFunction(
                    f.grid, _ldexp_copy(f.values, k)), method="compare")
    ref = _ldexp_copy(one.values, RANGE_EXPONENT)
    assert np.array_equal(got.values.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(slow.values, got.values)
    assert dev <= 1e-12


def _ldexp_copy(values, e):
    out = np.array(values)
    _ldexp(out, e)
    return out


def test_filter_fast_rejects_non_first_variable(gaussian):
    f = random_bandlimited(SIGNAL_GRID, seed=1)
    spec = SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0))
    with pytest.raises(ValueError, match="first-variable"):
        filter_signal(gaussian, spec, f, method="fast")


def test_filter_builds_one_fiber_matrix(fiber_builds):
    # a fresh atom per call: the session fixtures carry records left by
    # other tests, which would make the count depend on test order
    f = random_bandlimited(SIGNAL_GRID, seed=13)
    for case, name, sym in [("gabor", "gaussian", Symbol1D.indicator(-1.0, 2.0)),
                            ("wavelet", "shannon", Symbol1D.indicator(1.0, 2.0))]:
        for method in ("fast", "slow", "compare"):
            atom = make_atom(case, name)
            fiber_builds.clear()
            filter_signal(atom, SymbolSpec.first_variable(sym), f, method)
            assert len(fiber_builds) == 1, \
                f"{atom.name} {method}: {fiber_builds}"


def _filter_peaks(method, case="gabor", name="gaussian",
                  band=(-1.0, 2.0)) -> list[float]:
    """tracemalloc peaks, in K x N complex arrays, of a cold and a warm
    ``filter_signal`` call on a fresh atom, which has no fiber record."""
    n = 4096
    f = random_bandlimited(LineGrid.centered(16.0, n), seed=3)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(*band))
    atom = make_atom(case, name)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            filter_signal(atom, spec, f, method)
            peaks.append(tracemalloc.get_traced_memory()[1]
                         / (atom.g1.count * n * 16))
        finally:
            tracemalloc.stop()
    return peaks


def test_filter_slow_peak_memory():
    # the slow path streams blocks of 64 of the K = 512 rows, a block of
    # the field and of the mask: about 0.16 K x N complex arrays (1.57 when
    # it held the whole field and mask).  The cold call also builds the
    # fiber record, on this lattice grid one window vector: about 0.16
    # (0.69 when it was ell_matrix's real array, 2.07 when that went
    # through complex temporaries)
    cold, warm = _filter_peaks("slow")
    assert cold <= 0.2, f"cold peak {cold:.3f} K*N*16"
    assert warm <= 0.3, f"warm peak {warm:.3f} K*N*16"


def test_filter_compare_peak_memory():
    # the fast path's grid-rule gamma sums the record in blocks too, so
    # --compare holds no more than the slow path: about 0.16
    warm = _filter_peaks("compare")[1]
    assert warm <= 0.3, f"warm peak {warm:.3f} K*N*16"


@pytest.mark.parametrize("method,bound", [("fast", 0.23), ("slow", 0.3),
                                          ("compare", 0.3)])
def test_filter_wavelet_cold_peak_memory(method, bound):
    # a cold shannon filter builds its record off the lattice, which holds
    # the blocks' windows alone: 0.208 K x N complex arrays (6.7 MiB) for
    # the fast path, 0.268 and 0.270 for slow and compare, bounded at
    # 110 %.  ell_matrix's 16 MiB array read 0.646-0.663 (20.7-21.2 MiB)
    cold = _filter_peaks(method, "wavelet", "shannon", (0.5, 2.0))[0]
    assert cold <= bound, f"cold peak {cold:.3f} K*N*16"


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
        h = atom.action.omega_side(f)
        assert Fibers.of(atom, h.grid.samples).coverage(h) >= 0.999


@pytest.mark.parametrize("name", ["gaussian", "shannon", "haar"])
def test_fiber_coverage_is_scale_invariant(name):
    # h is scaled by the power of two of its largest part before squaring:
    # at 2^930 the squares would overflow (NaN coverage), at 2^-700
    # underflow (coverage 1)
    atom = make_atom("gabor" if name == "gaussian" else "wavelet", name)
    h = atom.action.omega_side(random_bandlimited(SIGNAL_GRID, seed=15))
    fib = atom.fibers(h.grid.samples)
    ref = fib.coverage(h)
    assert 0.999 <= ref <= 1.0 + 1e-9
    for k in (-700, -300, 300, 600, 930):
        scaled = SampledFunction(h.grid, h.values * 2.0 ** k)
        assert fib.coverage(scaled) == ref, k
