import ast
import collections
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfloc
from tfloc import fields
from tfloc.atoms import (_BLOCK_ROWS, Atom, Fibers, _row_blocks, make_atom,
                         make_wavelet, make_window)
from tfloc.cli import VERIFY_SUITES, main
from tfloc.fields import (PhasePlaneField, _stream, analyze, bargmann,
                          bargmann_adjoint, random_bandlimited, round_trip,
                          round_trips)
from tfloc.fourier import _cis, _Sandwich, _sandwich, fourier
from tfloc.grids import (DILATION, LineGrid, SampledFunction, ScaleGrid,
                         action_of, induced_grid)
from tfloc.io import export_atom, import_atom
from tfloc.operators import default_operator_grid, filter_signal
from tfloc.symbols import Symbol1D, SymbolSpec

SIGNAL_GRID = LineGrid.centered(8.0, 1024)


def _random_field(atom, seed, n2=256):
    rng = np.random.default_rng(seed)
    g2 = LineGrid.centered(8.0, n2)
    vals = rng.standard_normal((atom.g1.count, n2)) \
        + 1j * rng.standard_normal((atom.g1.count, n2))
    return PhasePlaneField(atom.case, atom.g1, g2, vals)


# -- analyze -----------------------------------------------------------------------

def test_analyze_zero_signal(gaussian):
    f = SampledFunction(SIGNAL_GRID, np.zeros(1024))
    W = analyze(gaussian, f)
    assert np.all(W.values == 0)


def test_analyze_isometry_bandlimited(shannon, haar, gaussian, rect):
    for atom in (shannon, haar, gaussian, rect):
        for k in range(5):
            f = random_bandlimited(SIGNAL_GRID, seed=20 + k)
            W = analyze(atom, f)
            assert abs(W.weighted_norm() - f.norm()) / f.norm() <= 2e-3


def test_analyze_gabor_gaussian_closed_form_and_bruteforce(gaussian):
    # oracle 1: |W phi(q, p)| = exp(-pi (q^2 + p^2)/2) for f = phi
    # oracle 2: direct Riemann-sum inner products at the same points
    f = SampledFunction(SIGNAL_GRID,
                        gaussian.eval_time(SIGNAL_GRID.samples))
    W = analyze(gaussian, f)
    q_axis = gaussian.g1.samples
    p_axis = W.g2.samples
    rng = np.random.default_rng(1)
    qi = rng.integers(180, len(q_axis) - 180, size=32)
    pi_ = rng.integers(400, len(p_axis) - 400, size=32)
    xs = SIGNAL_GRID.samples
    for k in range(32):
        q, p = q_axis[qi[k]], p_axis[pi_[k]]
        got = W.values[qi[k], pi_[k]]
        closed = math.exp(-math.pi * (q * q + p * p) / 2.0)
        assert abs(abs(got) - closed) <= 1e-6
        atom_qp = np.exp(2j * np.pi * p * xs) * gaussian.eval_time(xs - q)
        brute = np.sum(f.values * np.conj(atom_qp)) * SIGNAL_GRID.step
        assert abs(got - brute) <= 1e-9


def test_analyze_wavelet_against_bruteforce_inner_products(haar):
    # compactly supported atom, scales in [1/2, 2], translations well inside
    # the window: the only disagreement with the time-domain Riemann sum is
    # aliasing of the discontinuous atom's samples, at the 1e-2 level
    f = random_bandlimited(SIGNAL_GRID, seed=5)
    W = analyze(haar, f)
    xs = SIGNAL_GRID.samples
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(224, 288))
        i = int(rng.integers(300, 700))
        u, v = haar.g1.nodes[k], W.g2.samples[i]
        atom_uv = haar.eval_time((xs - v) / u) / math.sqrt(u)
        brute = np.sum(f.values * np.conj(atom_uv)) * SIGNAL_GRID.step
        assert abs(W.values[k, i] - brute) <= 2e-2


# -- axis-2 transform ---------------------------------------------------------------

def _axis2(field, direction, out_grid):
    """Rows of ``field`` carried by the axis-2 transform onto ``out_grid``:
    the DFT sandwich ``fields._stream`` applies, with its sign."""
    sign = getattr(action_of(field.case), f"axis2_{direction}")
    return field.copy_with(_sandwich(field.g2, sign, out_grid)(field.values),
                           g2=out_grid)


def test_axis2_roundtrip(gaussian, shannon):
    for atom in (gaussian, shannon):
        F = _random_field(atom, seed=11)
        D = _axis2(F, "forward", induced_grid(F.g2))
        back = _axis2(D, "backward", F.g2)
        assert np.max(np.abs(back.values - F.values)) <= 1e-10


def test_axis2_pure_modulation_concentrates(shannon):
    g2 = LineGrid.centered(8.0, 256)
    c = 2.0  # on the induced frequency lattice
    rng = np.random.default_rng(0)
    g = rng.standard_normal(shannon.g1.count)
    vals = g[:, None] * np.exp(2j * np.pi * g2.samples[None, :] * c)
    F = PhasePlaneField("wavelet", shannon.g1, g2, vals)
    out = _axis2(F, "forward", induced_grid(g2))
    col = int(np.argmin(np.abs(out.g2.samples - c)))
    energy = np.abs(out.values) ** 2
    assert energy[:, col].sum() / energy.sum() >= 1.0 - 1e-20


def test_axis2_preserves_weighted_norm(gaussian, shannon):
    # oracle: direct quadrature of both fields
    for atom in (gaussian, shannon):
        F = _random_field(atom, seed=13)
        out = _axis2(F, "forward", induced_grid(F.g2))
        a = F.weighted_norm()
        b = out.weighted_norm()
        assert abs(a - b) / a <= 1e-10


# -- embedding and projection ---------------------------------------------------------

def _healthy_vector(atom, grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
    if atom.case == "wavelet":
        lo, hi = atom.healthy_range
        vals = vals * ((np.abs(grid.samples) >= lo) & (np.abs(grid.samples) <= hi))
    return SampledFunction(grid, vals)


def test_embed_isometry_and_projection_identity(shannon, gaussian):
    g2 = LineGrid.centered(8.0, 256)
    for atom in (shannon, gaussian):
        f = _healthy_vector(atom, g2, seed=21)
        F = bargmann_adjoint(atom, f)
        assert abs(F.weighted_norm() - f.norm()) <= 1e-6 * f.norm()
        back = bargmann(atom, F, out_grid=g2)
        assert np.max(np.abs(back.values - f.values)) <= 1e-6


def _diagonal_plane_field(atom, g2, vals):
    """The field whose forward axis-2 transform onto ``g2`` is ``vals``:
    the oracle's backward transform of the diagonal-plane rows."""
    z_grid = induced_grid(g2)
    back = _fourier_rows_reference(vals, g2, atom.action.axis2_backward,
                                   z_grid)
    return PhasePlaneField(atom.case, atom.g1, z_grid, back)


def test_project_kills_fiber_orthogonal_profiles(shannon, gaussian):
    # explicit profiles orthogonal to the fiber: an odd +/- pattern across
    # the 32 in-band nodes (wavelet), an odd function about the window
    # center (gabor); bargmann carries them back onto the diagonal plane
    # and projects them out
    g2 = LineGrid.centered(8.0, 64)
    L = shannon.ell_matrix(g2.samples)
    vals = np.zeros_like(L)
    for i, om in enumerate(g2.samples):
        idx = np.nonzero(np.abs(L[:, i]) > 0)[0]
        if idx.size == 0:
            continue
        h = np.zeros(L.shape[0])
        half = idx.size // 2
        h[idx[:half]] = 1.0
        h[idx[half:2 * half]] = -1.0
        vals[:, i] = h * L[:, i]
    F = _diagonal_plane_field(shannon, g2, vals)
    out = bargmann(shannon, F, out_grid=g2)
    assert np.max(np.abs(out.values)) <= 1e-6

    # gabor: profile odd about the window center omega (zero at the center
    # node itself); pairs cancel exactly on the symmetric lattice
    q = gaussian.g1.samples
    g2g = LineGrid(0.0, 0.0625, 2)
    Lg = gaussian.ell_matrix(g2g.samples)
    cols = []
    for i, om in enumerate(g2g.samples):
        odd = np.sign(om - q)
        cols.append(odd * Lg[:, i])
    Fg = _diagonal_plane_field(gaussian, g2g, np.stack(cols, axis=1))
    assert np.max(np.abs(bargmann(gaussian, Fg, out_grid=g2g).values)) <= 1e-6


def test_project_checks_first_axis_by_value(gaussian, shannon):
    W = bargmann_adjoint(gaussian, SampledFunction(LineGrid.centered(8.0, 64),
                                                   np.ones(64)))
    g2, vals = W.g2, W.values
    # an equal grid built apart is accepted, bit for bit
    copy = LineGrid(gaussian.g1.start, gaussian.g1.step, gaussian.g1.count)
    same = bargmann(gaussian, PhasePlaneField("gabor", copy, g2, vals))
    ref = bargmann(gaussian, W)
    assert np.array_equal(same.values, ref.values)
    shifted = LineGrid(copy.start + copy.step / 2, copy.step, copy.count)
    coarse = LineGrid(copy.start, 2 * copy.step, copy.count // 2)
    for g1 in (shifted, coarse):
        F = PhasePlaneField("gabor", g1, g2, np.ones((g1.count, 64)))
        with pytest.raises(ValueError, match="first axis"):
            bargmann(gaussian, F)
    narrow = ScaleGrid(2.0 ** -4, 2.0 ** 4, shannon.g1.count)
    F = PhasePlaneField("wavelet", narrow, g2, np.ones((narrow.count, 64)))
    with pytest.raises(ValueError, match="first axis"):
        bargmann(shannon, F)
    # a gabor field on a line grid is never on a wavelet atom's scale grid
    F = PhasePlaneField("gabor", copy, g2, vals)
    with pytest.raises(ValueError, match="first axis"):
        bargmann(shannon, F)


def test_projection_operator_self_adjoint(gaussian):
    # <R*R X, Y> == <X, R*R Y> under the plane measure
    rng = np.random.default_rng(17)
    g1w = gaussian.g1.measure_weights
    g2 = LineGrid.centered(8.0, 64)

    def plane_inner(A, B):
        return np.einsum("k,ki,ki->", g1w, A.values, np.conj(B.values)) * g2.step

    def reproduce(F):
        return bargmann_adjoint(gaussian, bargmann(gaussian, F), out_grid=g2)

    for _ in range(5):
        shape = (gaussian.g1.count, 64)
        X = PhasePlaneField("gabor", gaussian.g1, g2,
                            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        Y = PhasePlaneField("gabor", gaussian.g1, g2,
                            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        LX, LY = reproduce(X), reproduce(Y)
        assert abs(plane_inner(LX, Y) - plane_inner(X, LY)) <= 1e-8


# -- diagonalizing transform -----------------------------------------------------------

def test_factorization_wavelet_reproduces_fourier(shannon, haar):
    for atom in (shannon, haar):
        for k in range(10):
            f = random_bandlimited(SIGNAL_GRID, seed=40 + k)
            out = bargmann(atom, analyze(atom, f))
            ref = fourier(f)
            err = np.linalg.norm(out.values - ref.values) / np.linalg.norm(ref.values)
            assert err <= 2e-3, f"{atom.name}: {err:.2e}"


def test_factorization_gabor_reproduces_signal(gaussian, rect):
    for atom in (gaussian, rect):
        for k in range(10):
            f = random_bandlimited(SIGNAL_GRID, seed=60 + k)
            out = bargmann(atom, analyze(atom, f))
            err = np.linalg.norm(out.values - f.values) / np.linalg.norm(f.values)
            assert err <= 2e-3, f"{atom.name}: {err:.2e}"


def test_case_tag_validation_prevents_mixed_fields(shannon):
    # the case tag pins the axis-2 transform direction; fields cannot be
    # relabeled across cases because the first-axis grid kind differs
    f = random_bandlimited(SIGNAL_GRID, seed=77)
    W = analyze(shannon, f)
    with pytest.raises(ValueError):
        PhasePlaneField("gabor", W.g1, W.g2, W.values)


def test_wrong_sign_breaks_factorization(shannon):
    # simulate the opposite convention by conjugation: conj swaps the
    # transform direction for real signals' spectra
    f = random_bandlimited(SIGNAL_GRID, seed=78)
    W = analyze(shannon, f)
    flipped = W.copy_with(np.conj(W.values))
    out = bargmann(shannon, flipped)
    ref = fourier(f)
    err = np.linalg.norm(out.values - ref.values) / np.linalg.norm(ref.values)
    assert err > 0.5


def test_isometry_chain(gaussian, shannon):
    for atom in (gaussian, shannon):
        for k in range(20):
            f = random_bandlimited(SIGNAL_GRID, seed=100 + k)
            W = analyze(atom, f)
            g = bargmann(atom, W)
            n0, n1, n2 = f.norm(), W.weighted_norm(), g.norm()
            assert abs(n1 - n0) / n0 <= 2e-3
            assert abs(n2 - n0) / n0 <= 2e-3
            assert abs(n2 - n1) / n1 <= 2e-3


def test_bargmann_roundtrip_identity(gaussian, shannon):
    from tfloc.operators import default_operator_grid
    for atom in (gaussian, shannon):
        grid = default_operator_grid(atom.case, 256)
        f = _healthy_vector(atom, grid, seed=91)
        rr = bargmann(atom, bargmann_adjoint(atom, f), out_grid=grid)
        assert np.max(np.abs(rr.values - f.values)) <= 1e-6


def test_bargmann_adjoint_zero(gaussian):
    g2 = LineGrid.centered(8.0, 64)
    F = bargmann_adjoint(gaussian, SampledFunction(g2, np.zeros(64)))
    assert np.all(F.values == 0)


def test_bargmann_adjoint_projection_idempotent(gaussian):
    # R* R is the reproducing projection: applying it twice equals once
    F = _random_field(gaussian, seed=55)
    once = bargmann_adjoint(gaussian, bargmann(gaussian, F), out_grid=F.g2)
    twice = bargmann_adjoint(gaussian, bargmann(gaussian, once), out_grid=F.g2)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-8


# -- in-place transforms ------------------------------------------------------------

def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _matrix(fib) -> np.ndarray:
    """The record's K x N fiber matrix, made from what it stores."""
    return fib.dense(slice(0, len(fib.weights)))


def _read_only(fib) -> bool:
    """Whether every array the record stores, and its dense matrix, is
    read-only."""
    stored = [] if fib.stored is None else [fib.stored]
    return not any(a.flags.writeable
                   for a in [*fib.values, *stored, _matrix(fib)])


@pytest.mark.parametrize("name,band", [("gaussian", (-1.0, 1.0)),
                                       ("shannon", (1.0, 2.0)),
                                       ("haar", (1.0, 2.0))])
def test_in_place_transforms_equal_the_out_of_place_composition(request, name,
                                                                band):
    # analyze, bargmann_adjoint and the slow filter transform arrays they
    # own in place; the bits are those of the whole-array chain, and the
    # slow filter's those of bargmann of its masked field
    atom = request.getfixturevalue(name)
    f = random_bandlimited(SIGNAL_GRID, seed=8)
    h = atom.action.omega_side(f)
    full_axis = f.grid if atom.case == "wavelet" else induced_grid(f.grid)
    W = _whole_array_chain(atom, full_axis, h=h)
    assert _bits(analyze(atom, f).values) == _bits(W)
    assert _bits(bargmann_adjoint(atom, h, out_grid=full_axis).values) \
        == _bits(W)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(*band))
    masked = PhasePlaneField(
        atom.case, atom.g1, full_axis,
        W * spec.evaluate_field(atom.g1.nodes, full_axis.samples))
    ref = atom.action.omega_side(bargmann(atom, masked, out_grid=h.grid),
                                 back_to=f.grid)
    out, _ = filter_signal(atom, spec, f, "slow")
    assert _bits(out.values) == _bits(ref.values)


def test_public_transforms_leave_their_inputs_unchanged(gaussian, shannon):
    for atom in (gaussian, shannon):
        F = _random_field(atom, seed=3)
        field_before = F.values.copy()
        bargmann(atom, F)
        assert _bits(F.values) == _bits(field_before)
        h = SampledFunction(F.g2, field_before[0].copy())
        bargmann_adjoint(atom, h)
        assert _bits(h.values) == _bits(field_before[0])


def test_unpaired_grids_raise_before_any_field_is_made(gaussian):
    # a second-axis grid the DFT cannot pair with the signal's (a doubled
    # step, a missing sample) raises fourier's error before the chain makes
    # a field, a block buffer or a fiber record: a few n-vectors at most
    f = random_bandlimited(SIGNAL_GRID, seed=4)
    axis = induced_grid(f.grid)
    W = analyze(gaussian, f)
    calls = {"bargmann_adjoint": lambda g: bargmann_adjoint(gaussian, f, g),
             "round_trip": lambda g: round_trip(gaussian, f, field_grid=g),
             "bargmann": lambda g: bargmann(gaussian, W, out_grid=g)}
    unpaired = {"step": LineGrid(axis.start, 2 * axis.step, axis.count),
                "count": LineGrid(axis.start, axis.step, axis.count - 1)}
    for name, call in calls.items():
        for wrong, grid in unpaired.items():
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"output grid .*{wrong}"):
                    call(grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * axis.count * 16, (name, wrong, peak)


def test_analyze_peak_memory(gaussian, shannon):
    # with the fiber record built, analyze holds the field's array, embedded,
    # transformed and checked finite in place a block at a time, and little
    # else: about 1.024 K x N complex arrays (1.065 with a whole-field
    # finiteness check, 2.06 when the transform copied it).  weighted_norm
    # sums each row's squares in place: about 0.0003 (0.5 through |W|^2)
    n = 4096
    f = random_bandlimited(LineGrid.centered(16.0, n), seed=3)
    for atom in (gaussian, shannon):
        analyze(atom, f)  # builds the fiber record the atom keeps
        tracemalloc.start()
        try:
            W = analyze(atom, f)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            W.weighted_norm()
            norm_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        unit = atom.g1.count * n * 16
        assert peak / unit <= 1.03, f"{atom.name}: peak {peak / unit:.3f} K*N*16"
        assert norm_peak / unit <= 0.05, \
            f"{atom.name}: weighted_norm adds {norm_peak / unit:.3f} K*N*16"


def test_fibers_of_peak_memory():
    # ell_matrix allocates the record once, in the dtype of a one-sample
    # probe, and evaluates the profile a block of 64 of the 512 nodes at a
    # time into it: a real one (0.5 K x N complex arrays) peaks at
    # 0.63-0.69, the complex haar record (1.0) near 1.51 (1.64 when the
    # record was conjugated a second time, 2.0 and 4.07 when the whole
    # matrix went through complex temporaries).  The gaussian takes that
    # route on a grid off the lattice; on the lattice a window's record is
    # one window vector, about 0.008 (0.63-0.69 when it was ell_matrix's).
    # Shannon's and rect's records off the lattice hold their windows'
    # values alone: 0.204 and 0.094 measured, bounded at 110 % (0.67 when
    # they were ell_matrix's array)
    n = 4096
    grid = LineGrid.centered(16.0, n)
    off = LineGrid(grid.start + 0.3, grid.step, n)
    for case, name, on_grid, off_grid in (("gabor", "gaussian", 0.01, 0.72),
                                          ("gabor", "rect", 0.01, 0.104),
                                          ("wavelet", "shannon", 0.225, 0.225),
                                          ("wavelet", "haar", 1.56, 1.56)):
        atom = make_atom(case, name)
        for g, bound in ((grid, on_grid), (off, off_grid)):
            tracemalloc.start()
            try:
                Fibers.of(atom, g.samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            units = peak / (atom.g1.count * n * 16)
            assert units <= bound, f"{name} {g}: peak {units:.3f} K*N*16"


# -- fiber records -------------------------------------------------------------------

def test_fibers_record_is_the_fiber_matrix(shannon, gaussian):
    grid = LineGrid.centered(8.0, 64)
    for atom in (shannon, gaussian):
        fib = Fibers.of(atom, grid.samples)
        assert _bits(_matrix(fib)) == _bits(atom.ell_matrix(grid.samples))
        assert np.array_equal(fib.norms, atom.fibers(grid.samples).norms)
        assert _read_only(fib)
        assert not fib.omegas.flags.writeable


def test_fibers_record_dtype_follows_the_values(shannon, haar, gaussian, rect,
                                               tmp_path):
    # the record is ell_matrix's array, bit for bit and of its dtype: real
    # profiles and an imported window with real samples give float64; haar
    # and an imported wavelet, whose transformed samples are complex, give
    # complex128
    imported = {}
    for atom in (gaussian, shannon):
        export_atom(str(tmp_path / f"{atom.name}.csv"), atom)
        imported[atom.name] = import_atom(str(tmp_path / f"{atom.name}.csv"))
    for atom, dtype in ((gaussian, np.float64), (rect, np.float64),
                        (shannon, np.float64), (haar, np.complex128),
                        (imported["gaussian"], np.float64),
                        (imported["shannon"], np.complex128)):
        grid = LineGrid.centered(8.0, 64) if atom.case == "gabor" else \
            LineGrid(2.0 ** -4, 1 / 16, 64)
        fib = Fibers.of(atom, grid.samples)
        L = _matrix(fib)
        assert fib.dtype == L.dtype == dtype, atom
        K, N = L.shape
        assert L.nbytes == K * N * np.dtype(dtype).itemsize
        assert _bits(L) == _bits(atom.ell_matrix(grid.samples))
        assert _read_only(fib)


def _footprint(a) -> int:
    """Bytes from the lowest to the highest address an array reads."""
    low, high = np.lib.array_utils.byte_bounds(a)
    return high - low


def _materialized(atom, omegas):
    """ell_matrix's array with the live flags and span found from it."""
    L = atom.ell_matrix(omegas)
    nonempty = L.view(np.int64).reshape(len(L), -1).any(axis=1)
    live = tuple(bool(nonempty[rows].any()) for rows in _row_blocks(len(L)))
    at = np.flatnonzero(nonempty)
    span = slice(int(at[0]), int(at[-1]) + 1) if at.size else slice(0, 0)
    return L, live, span


def _windows(tmp_path):
    """gaussian, rect, an imported gaussian and a complex window (a chirp
    on [0, 1), -0j outside so that its conjugate holds empty rows; its
    samples and frequency profile are rect's, which no window record
    reads)."""
    gaussian, rect = make_window("gaussian"), make_window("rect")
    export_atom(str(tmp_path / "gaussian.csv"), gaussian)

    def chirp(x):
        return np.where((x >= 0) & (x < 1), np.exp(2j * np.pi * x * x),
                        complex(0.0, -0.0))

    return [gaussian, rect, import_atom(str(tmp_path / "gaussian.csv")),
            Atom("gabor", "chirp", rect.time_samples, rect.g1, chirp,
                 rect.freq_profile, rect.support)]


LATTICE_GRIDS = ([default_operator_grid("gabor", n)
                  for n in (64, 128, 256, 512)]
                 + [LineGrid(-16.0, 32 / n, n) for n in (1024, 4096)]
                 + [LineGrid.centered(8.0, 1024)])


@pytest.mark.parametrize("grid", LATTICE_GRIDS, ids=repr)
def test_lattice_record_keeps_the_bits_of_ell_matrix(grid, tmp_path):
    # the grid steps and starts are multiples of one power of two, so the
    # record is a read-only strided view of p(N - 1) + q(K - 1) + 1 window
    # values: the bits, dtype, live flags and span of ell_matrix's array
    for atom in _windows(tmp_path):
        fib = Fibers.of(atom, grid.samples)
        L, live, span = _materialized(atom, grid.samples)
        K, N = L.shape
        u = min(grid.step, atom.g1.step)
        p, q = grid.step / u, atom.g1.step / u
        assert fib.stored.base is not None
        assert _footprint(fib.stored) == (p * (N - 1) + q * (K - 1) + 1) \
            * L.itemsize, atom
        assert fib.stored.dtype == L.dtype and fib.stored.shape == L.shape
        assert np.array_equal(np.ascontiguousarray(fib.stored).view(np.int64),
                              L.view(np.int64)), atom
        assert (fib.live, fib.span) == (live, span), atom
        assert not fib.stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fib.stored[0, 0] = 1.0


def test_lattice_record_at_4096_holds_one_window_vector(gaussian):
    # N + 8K floats, 64 KiB, where ell_matrix's array is 16 MiB
    n, K = 4096, gaussian.g1.count
    fib = Fibers.of(gaussian, LineGrid(-16.0, 32 / n, n).samples)
    assert fib.stored.shape == (K, n)
    assert _footprint(fib.stored) <= (n + 8 * K) * 8 == 64 * 2 ** 10


@pytest.mark.parametrize("grid,g1", [
    # the CI's 1001-sample off-centre grid: its start is off the unit
    (LineGrid(0.3 - 500 / 64, 1 / 64, 1001), None),
    # steps that are not powers of two
    (LineGrid(-8.0, 0.016, 1000), None),
    (LineGrid(-8.0, 0.01, 1000), None),
    # translation nodes off the unit of a lattice signal grid
    (LineGrid.centered(8.0, 1024), LineGrid(-16.0 + 1 / 3, 1 / 16, 512)),
], ids=["off-centre-1001", "step-0.016", "step-0.01", "nodes-off-the-unit"])
def test_record_off_the_lattice_is_ell_matrix(grid, g1, tmp_path):
    for atom in _windows(tmp_path):
        if g1 is not None:
            atom.g1 = g1
        fib = Fibers.of(atom, grid.samples)
        L, live, span = _materialized(atom, grid.samples)
        # ell_matrix's own array, or (rect) the windows' values alone
        if not atom.support_is_exact:
            assert fib.stored.flags.owndata and fib.stored.flags.c_contiguous
        else:
            assert fib.stored is None
        D = _matrix(fib)
        assert D.flags.c_contiguous
        assert np.array_equal(D.view(np.int64), L.view(np.int64)), atom
        assert (fib.live, fib.span) == (live, span), atom
        assert _read_only(fib)


@pytest.mark.parametrize("omegas", [
    [0.0], [0.5, 0.25, 0.0], [-0.0, 0.25, 0.5],
    [0.0, 2.0 ** -1074, 1.0], [0.0, 0.25, 2.0 ** 60]],
    ids=["one", "decreasing", "minus-zero", "subnormal-step", "huge"])
def test_lattice_check_falls_back_without_a_warning(omegas, gaussian):
    # omegas that are no lattice, or whose quotients by the unit leave the
    # float range, take ell_matrix's array, and the check warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fib = Fibers.of(gaussian, omegas)
    assert fib.stored.flags.owndata
    assert _bits(fib.stored) == _bits(gaussian.ell_matrix(omegas))


def test_atom_keeps_its_last_fiber_record():
    # fresh atoms: the session fixtures carry records left by other tests
    grid = LineGrid.centered(8.0, 64)
    shifted = LineGrid(grid.start + grid.step / 2, grid.step, grid.count)
    longer = LineGrid(grid.start, grid.step, grid.count + 1)
    ones = SampledFunction(grid, np.ones(grid.count))
    for case, name in (("gabor", "gaussian"), ("wavelet", "shannon")):
        atom = make_atom(case, name)
        fib = atom.fibers(grid.samples)
        # equal omegas by value, from another array, return the same record
        assert atom.fibers(grid.samples) is fib
        assert atom.fibers(LineGrid.centered(8.0, 64).samples) is fib
        for other in (shifted, longer):
            new = atom.fibers(other.samples)
            assert new is not fib
            assert np.array_equal(new.omegas, other.samples)
            assert _bits(_matrix(new)) == _bits(atom.ell_matrix(other.samples))
            assert _read_only(new)
            assert not new.omegas.flags.writeable
            # the coverage of a signal on another grid is refused
            with pytest.raises(ValueError, match="fiber record"):
                new.coverage(ones)
        # a record built on another first-coordinate grid is not returned
        g1 = atom.g1
        fib = atom.fibers(grid.samples)
        atom.g1 = (ScaleGrid(g1.u_min, g1.u_max, g1.count // 2)
                   if case == "wavelet" else LineGrid.centered(8.0, 256))
        rebuilt = atom.fibers(grid.samples)
        assert rebuilt is not fib
        assert _bits(_matrix(rebuilt)) == _bits(atom.ell_matrix(grid.samples))
        assert _matrix(rebuilt).shape == (atom.g1.count, grid.count)
        assert rebuilt.weights is atom.g1.measure_weights


def test_ell_matrix_has_one_caller(scopes_where):
    # every consumer reads the fiber matrix through Atom.fibers, whose
    # record constructor Fibers.of is the one place that builds it
    def calls_ell_matrix(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "ell_matrix")

    assert scopes_where(calls_ell_matrix) == ["atoms.py:Fibers.of"]


def test_one_dft_sandwich(scopes_where):
    # the continuous Fourier transform of rows has one implementation, the
    # DFT sandwich, and it is the package's only DFT
    def uses_fft(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names]
            modules.append(getattr(node, "module", None) or "")
            return any("fft" in m for m in modules)
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))

    assert sorted(set(scopes_where(uses_fft))) == ["fourier.py:_Sandwich.core"]
    # and every pairing of two grids is checked once, where it is made
    def checks_grids(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_check_compatible")

    assert scopes_where(checks_grids) == ["fourier.py:_sandwich"]


def test_one_scale_rule_near_the_float_range(scopes_where):
    # values are checked against the supported range, not scaled: the
    # frexp exponent of an array, its exact scale by a power of two and the
    # range check have one definition each, in symbols, and the names of
    # the old scale rule are gone
    def attribute(name, modules):
        return lambda node: (isinstance(node, ast.Attribute)
                             and node.attr == name
                             and isinstance(node.value, ast.Name)
                             and node.value.id in modules)

    assert scopes_where(attribute("frexp", ("math", "np", "numpy"))) == [
        "symbols.py:_exponent"]
    assert scopes_where(attribute("ldexp", ("np", "numpy"))) == [
        "symbols.py:_ldexp"]
    helpers = ("_exponent", "_ldexp", "_in_range")
    assert scopes_where(lambda node: isinstance(node, ast.FunctionDef)
                         and node.name in helpers) == ["symbols.py:"] * 3
    gone = ("OVERFLOW_MARGIN", "unit_scaled", "_products_bounded",
            "scaled_back")
    assert not [path.name for path in Path(tfloc.__file__).parent.glob("*.py")
                if any(name in path.read_text() for name in gone)]


def test_verify_transforms_builds_one_record_per_grid(tmp_path, fiber_builds):
    for case in ("gabor", "wavelet"):
        fiber_builds.clear()
        out = str(tmp_path / f"t-{case}.json")
        assert main(["verify", "transforms", "--case", case, "--n", "1024",
                     "--out", out]) == 0
        # the signals' omega grid and the round-trip window (50 calls when
        # every transform built its own)
        assert fiber_builds == [1024, 256], f"{case}: {fiber_builds}"


def test_verify_transforms_hands_off_once_per_grid(tmp_path, monkeypatch):
    # the 20 signals' round trips share one _run_parts call, and the 5
    # operator-grid vectors' another: 25 calls when each round trip had its
    # own hand-off
    calls = []
    run = fields._run_parts

    def counted(k, passes, parts):
        calls.append(len(parts))
        return run(k, passes, parts)

    monkeypatch.setattr(fields, "_run_parts", counted)
    for case in ("gabor", "wavelet"):
        calls.clear()
        assert main(["verify", "transforms", "--case", case, "--n", "1024",
                     "--out", str(tmp_path / f"t-{case}.json")]) == 0
        assert len(calls) == 2, f"{case}: {calls}"
        # every live block of every function of a batch is a part
        assert calls[0] % 20 == 0 and calls[1] % 5 == 0, f"{case}: {calls}"


def test_verify_transforms_holds_one_field(tmp_path):
    # each signal's field is formed, measured and carried back a block of
    # rows at a time (fields.round_trips), so the suite holds no K x n
    # field: beside the fiber record it peaks at a block per CPU, the
    # embedding's temporaries and the batch's 20 signals and round trips,
    # 0.39-0.40 fields measured (0.32-0.33 with one signal at a time,
    # 1.17-1.30 when it held one field, 2.07-2.19 when it held two)
    n = 1024
    for case, name in (("gabor", "gaussian"), ("wavelet", "shannon")):
        atom = make_atom(case, name)
        record = _footprint(
            _matrix(Fibers.of(atom, LineGrid.centered(8.0, n).samples)))
        tracemalloc.start()
        try:
            assert main(["verify", "transforms", "--case", case, "--n", str(n),
                         "--out", str(tmp_path / f"t-{case}.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = (peak - record) / (atom.g1.count * n * 16)
        assert fields <= 0.42, f"{case}: {fields:.3f} fields beside the record"


def _unfused_transforms_report(case, name, n, seed) -> dict:
    """The ``verify transforms`` report made from whole fields, as the suite
    made it before its round trips were fused: ``analyze``, then
    ``weighted_norm``, then ``bargmann`` for each signal, and ``bargmann``
    of ``bargmann_adjoint`` for the round trips."""
    atom = make_atom(case, name)
    grid = LineGrid.centered(8.0, max(n, 64))
    opg = default_operator_grid(case, min(n, 256))
    iso = fact = rnd = 0.0
    for k in range(20):
        f = random_bandlimited(grid, seed=seed + k)
        W = analyze(atom, f)
        iso = max(iso, abs(W.weighted_norm() - f.norm()))
        h = atom.action.omega_side(f)
        out = bargmann(atom, W, out_grid=h.grid)
        fact = max(fact, float(np.linalg.norm(out.values - h.values)
                               / np.linalg.norm(h.values)))
    rng = np.random.default_rng(seed)
    for _ in range(5):
        v = (rng.standard_normal(opg.count)
             + 1j * rng.standard_normal(opg.count))
        rr = bargmann(atom, bargmann_adjoint(atom, SampledFunction(opg, v)),
                      out_grid=opg)
        rnd = max(rnd, float(np.max(np.abs(rr.values - v))))
    tol = VERIFY_SUITES["transforms"].tol
    return {"case": case, "atom": name, "N": grid.count,
            "roundtrip_N": opg.count, "isometry_error_max": iso,
            "factorization_error_max": fact, "roundtrip_error_max": rnd,
            "tolerances": tol,
            "pass": (iso <= tol["isometry"] and fact <= tol["factorization"]
                     and rnd <= tol["roundtrip"]),
            "suite": "transforms", "seed": seed}


@pytest.mark.parametrize("n", [64, 100, 1024])
@pytest.mark.parametrize("case,name", [
    ("gabor", "gaussian"), ("gabor", "rect"), ("wavelet", "shannon"),
    ("wavelet", "haar")])
def test_verify_transforms_reports_the_unfused_bytes(tmp_path, case, name, n):
    # the fused round trips keep every byte of the report made from whole
    # fields; n = 100 gives phases that are not +-1, and haar fails the
    # suite's fixed tolerances (exit 1) with the same bytes
    out = tmp_path / "t.json"
    code = main(["verify", "transforms", "--case", case, "--atom", name,
                 "--n", str(n), "--seed", "3", "--out", str(out)])
    ref = _unfused_transforms_report(case, name, n, seed=3)
    assert code == (0 if ref["pass"] else 1)
    assert out.read_text() == json.dumps(ref, sort_keys=True, indent=2) + "\n"


def test_verify_transforms_gabor_shares_the_round_trip_record(tmp_path,
                                                              fiber_builds):
    # at n <= 256 the gabor round-trip window is the signals' omega grid,
    # so one fiber matrix serves both
    assert main(["verify", "transforms", "--case", "gabor", "--n", "128",
                 "--out", str(tmp_path / "t.json")]) == 0
    assert fiber_builds == [128]


def _phases(in_grid, sign, out_grid):
    """The sandwich's pre-phase and its post-phase times the input step,
    arguments in turns through ``_cis`` (pinned on its own)."""
    sgn = -1.0 if sign == "forward" else 1.0
    pre = _cis(sgn * (in_grid.step * out_grid.start * np.arange(in_grid.count)))
    post = in_grid.step * _cis(sgn * (in_grid.start * out_grid.samples))
    return pre, post


def _dft(values, sign):
    """The unscaled DFT of the rows of ``values``: the inverse one times n."""
    if sign == "forward":
        return np.fft.fft(values, axis=1)
    return np.fft.ifft(values, axis=1, norm="forward")


def _fourier_rows_reference(values, in_grid, sign, out_grid):
    """The out-of-place formula of ``fourier._sandwich``, kept as its
    oracle: post * DFT(pre * values)."""
    pre, post = _phases(in_grid, sign, out_grid)
    return post[None, :] * _dft(values * pre[None, :], sign)


@pytest.mark.parametrize("n", [64, 96, 256, 1000, 4096])
def test_fourier_rows_in_place_matches_out_of_place(n):
    rng = np.random.default_rng(n)
    centred = LineGrid.centered(8.0, n)
    off = LineGrid(0.3, 16.0 / n, n)
    pairs = [(centred, induced_grid(centred)),
             (off, LineGrid(-0.7, 1.0 / 16.0, n))]
    for in_grid, out_grid in pairs:
        values = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        before = values.copy()
        for sign in ("forward", "inverse"):
            apply = _sandwich(in_grid, sign, out_grid)
            ref = _fourier_rows_reference(values, in_grid, sign, out_grid)
            out = apply(values)
            assert np.array_equal(values, before)
            assert np.array_equal(out, ref)


# -- the streamed chain ---------------------------------------------------------------

def _whole_array_chain(atom, g2, h=None, field=None, spec=None,
                       out_grid=None):
    """The transform chain on whole K x N arrays, the oracle of the streamed
    core ``fields._stream``: embed, backward transform onto g2 (from h) or
    the field's values, the symbol mask, then with ``out_grid`` the forward
    transform and one fiber projection of the whole field.  The phases
    associate as in the chain: the backward pre-phase rides on h, and the
    forward post-phase (with its step) multiplies the projection."""
    if h is not None:
        back = atom.action.axis2_backward
        pre, post = _phases(h.grid, back, g2)
        L = atom.ell_matrix(h.grid.samples)
        W = post[None, :] * _dft(L * (h.values * pre), back)
    else:
        W = field.values
    if spec is not None:
        W = W * spec.evaluate_field(atom.g1.nodes, g2.samples)
    if out_grid is None:
        return W
    fwd = atom.action.axis2_forward
    pre, post = _phases(g2, fwd, out_grid)
    D = _dft(W * pre[None, :], fwd)
    L = atom.ell_matrix(out_grid.samples)
    return post * np.einsum("k,ki,ki->i", atom.g1.measure_weights,
                            np.conj(L), D)


def _rel(out, ref) -> float:
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(out - ref) / (scale if scale else 1.0))


@st.composite
def _streamed_setups(draw, min_rows=2):
    """An atom on a first axis of K nodes (K rarely a multiple of the block
    size), real records (gaussian, rect, shannon) and a complex one (haar),
    and a signal grid of odd or even N, centred or not."""
    name = draw(st.sampled_from(["gaussian", "rect", "shannon", "haar"]))
    count = draw(st.integers(min_rows, 3 * _BLOCK_ROWS + 7))
    if name in ("gaussian", "rect"):
        atom = make_window(name, LineGrid(-16.0, 32.0 / count, count))
    else:
        atom = make_wavelet(name, ScaleGrid(2.0 ** -8, 2.0 ** 8, count))
    n = draw(st.integers(33, 160))
    start = draw(st.one_of(st.just(-n / 32), st.floats(-4.0, 1.0)))
    return atom, LineGrid(start, 1.0 / 16.0, n)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(setup=_streamed_setups(), seed=st.integers(0, 2 ** 16))
@example(setup=(make_window("gaussian"), LineGrid(0.3, 1.0 / 16.0, 63)),
         seed=1)
def test_streamed_transforms_match_the_whole_array_chain(setup, seed):
    # the adjoint's rows are transformed alone, so its bits are those of the
    # whole-array chain; bargmann sums its blocks' projections in turn
    atom, grid = setup
    h = random_bandlimited(grid, seed)
    g2 = LineGrid(-grid.start / 2, 1.0 / (grid.count * grid.step), grid.count)
    W = bargmann_adjoint(atom, h, out_grid=g2)
    assert _bits(W.values) == _bits(_whole_array_chain(atom, g2, h=h))
    out = bargmann(atom, W, out_grid=grid)
    ref = _whole_array_chain(atom, g2, field=W, out_grid=grid)
    assert _rel(out.values, ref) <= 1e-15
    # the fused round trip has the bits of the two calls and of the norm,
    # off the lattice grids too
    back, norm = round_trip(atom, h, field_grid=g2)
    assert _bits(back.values) == _bits(out.values)
    assert norm == W.weighted_norm()
    # the round trip multiplies by the fiber norms, so it is an isometry
    # where they are 1 (the atom's healthy range); off the lattice grids
    # the two transforms' phases carry up to about n*eps each
    norms = Fibers.of(atom, grid.samples).norms
    assert _rel(out.values, norms * h.values) <= 1e-13


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(setup=_streamed_setups(min_rows=_BLOCK_ROWS + 1),
       seed=st.integers(0, 2 ** 16))
def test_slow_filter_matches_the_whole_array_chain(setup, seed):
    atom, grid = setup
    f = random_bandlimited(grid, seed)
    h = atom.action.omega_side(f)
    band = (-1.0, 1.0) if atom.case == "gabor" else (1.0, 2.0)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(*band))
    g2 = f.grid if atom.case == "wavelet" else induced_grid(f.grid)
    ref = atom.action.omega_side(SampledFunction(
        h.grid, _whole_array_chain(atom, g2, h=h, spec=spec,
                                   out_grid=h.grid)), back_to=f.grid)
    out, _ = filter_signal(atom, spec, f, "slow")
    assert _rel(out.values, ref.values) <= 1e-15


@pytest.mark.parametrize("block", ["first", "last"])
def test_streamed_chain_rejects_a_non_finite_block(gaussian, block):
    # translations [-16, 16) in 512 rows: 8 blocks; the signal covers them
    K = gaussian.g1.count
    rows = slice(0, _BLOCK_ROWS) if block == "first" else \
        slice(K - _BLOCK_ROWS, K)
    lo, hi = gaussian.g1.nodes[rows][[0, -1]]
    f = random_bandlimited(LineGrid.centered(16.0, 1024), seed=4)

    def spike(value):
        return SymbolSpec.first_variable(Symbol1D(
            lambda x: np.where((x >= lo) & (x <= hi), value, 1.0),
            f"spike:{value:g}"))

    with pytest.raises(ValueError, match=r"symbol a\(r\)=spike:inf is not "
                                         "finite on the grid"):
        filter_signal(gaussian, spike(np.inf), f, "slow")
    # finite symbol values above the supported range
    with pytest.raises(ValueError, match=r"spike:1e\+308 exceeds the "
                                         "supported range on the grid"):
        filter_signal(gaussian, spike(1e308), f, "slow")
    # a finite field above the range raises in bargmann; the chain raises
    # where the forward transform of that block overflows
    g2 = LineGrid.centered(8.0, 64)
    vals = np.zeros((K, 64), dtype=complex)
    vals[rows] = 1e308
    F = PhasePlaneField("gabor", gaussian.g1, g2, vals)
    with pytest.raises(ValueError, match="field exceeds the supported range"):
        bargmann(gaussian, F)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="field contains non-finite values"):
        _stream(gaussian, g2, field=F, out_grid=induced_grid(g2))


def _unfused_sandwich(in_grid, sign, out_grid):
    """The DFT sandwich with every diagonal applied to the rows: pre-phase,
    DFT, the inverse DFT's 1/n undone by a multiply, post-phase with the
    step."""
    pre, post = _phases(in_grid, sign, out_grid)
    n = in_grid.count

    def apply(block):
        block *= pre
        if sign == "forward":
            np.fft.fft(block, axis=1, out=block)
        else:
            np.fft.ifft(block, axis=1, out=block)
            block *= n
        return np.multiply(post, block, out=block)

    return apply


def _unfused_stream(atom, g2, h=None, field=None, spec=None, out_grid=None):
    """The streamed chain with the sandwich's diagonals and scales on every
    block, the form the folded ``fields._stream`` must reproduce bit for bit
    on centred power-of-two grids: blocks of ``_BLOCK_ROWS`` rows, each
    projection summed onto the last as a product with the weights."""
    count = atom.g1.count
    if h is not None:
        L_in = atom.ell_matrix(h.grid.samples)
        backward = _unfused_sandwich(h.grid, atom.action.axis2_backward, g2)
    out = np.empty((count, g2.count), dtype=complex)
    if out_grid is not None:
        forward = _unfused_sandwich(g2, atom.action.axis2_forward, out_grid)
        L_out = atom.ell_matrix(out_grid.samples)
        acc = np.zeros(out_grid.count, dtype=complex)
    for rows in range(0, count, _BLOCK_ROWS):
        rows = slice(rows, min(rows + _BLOCK_ROWS, count))
        block = out[rows]
        if h is None:
            block[...] = field.values[rows]
        else:
            np.multiply(L_in[rows], h.values, out=block)
            backward(block)
        if out_grid is None:
            continue
        if spec is not None:
            block *= spec.evaluate_field(atom.g1.nodes[rows], g2.samples)
        forward(block)
        block *= np.conj(L_out[rows])
        acc += atom.g1.measure_weights[rows] @ block
    return out if out_grid is None else acc


@pytest.mark.parametrize("name", ["gaussian", "rect", "shannon", "haar"])
def test_folded_phases_keep_the_bits_on_power_of_two_grids(name):
    # on centred power-of-two grids every phase is +-1 and every step a
    # power of two, so folding the diagonals into column vectors moves no
    # bit of the adjoint; a projection scaled after its sum instead of
    # before moves only where the gaussian's products are subnormal
    atom = make_atom("gabor" if name in ("gaussian", "rect") else "wavelet",
                     name)
    f = random_bandlimited(LineGrid.centered(16.0, 1024), seed=12)
    h = atom.action.omega_side(f)
    g2 = atom.action.analysis_axis(f.grid)
    band = (-1.0, 1.0) if atom.case == "gabor" else (1.0, 2.0)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(*band))
    W = bargmann_adjoint(atom, h, out_grid=g2)
    assert _bits(W.values) == _bits(_unfused_stream(atom, g2, h=h))
    pairs = [(bargmann(atom, W, out_grid=h.grid).values,
              _unfused_stream(atom, g2, field=W, out_grid=h.grid)),
             (_stream(atom, g2, h=h, spec=spec, out_grid=h.grid),
              _unfused_stream(atom, g2, h=h, spec=spec, out_grid=h.grid))]
    for out, ref in pairs:
        if name == "gaussian":
            assert np.max(np.abs(out - ref)) <= 1e-320
        else:
            assert _bits(out) == _bits(ref)


@pytest.mark.parametrize("block", ["first", "last"])
def test_adjoint_rejects_a_non_finite_block(gaussian, block):
    # translations [-16, 16) in 512 rows: 8 blocks of 4 units.  A signal of
    # 1e308 on half a unit at the outer edge of the first or last block
    # overflows the backward transform of rows in that block only: the
    # chain raises there, and the adjoint and analyze raise the range error
    K = gaussian.g1.count
    first = block == "first"
    rows = slice(0, _BLOCK_ROWS) if first else slice(K - _BLOCK_ROWS, K)
    edge = gaussian.g1.nodes[0 if first else -1]
    grid = LineGrid.centered(16.0, 1024)
    f = SampledFunction(grid, np.where(np.abs(grid.samples - edge) <= 0.5,
                                       1e308, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        W = _whole_array_chain(gaussian, induced_grid(grid), h=f)
    bad = np.flatnonzero(~np.isfinite(W).all(axis=1))
    assert bad.size and rows.start <= bad[0] and bad[-1] < rows.stop
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="field contains non-finite values"):
        _stream(gaussian, induced_grid(grid), h=f)
    with pytest.raises(ValueError, match="function exceeds the supported "
                                         r"range: a value above 2\^512"):
        bargmann_adjoint(gaussian, f)
    with pytest.raises(ValueError, match="signal exceeds the supported "
                                         r"range: a value above 2\^256"):
        analyze(gaussian, f)


def test_power_sums_have_the_bits_of_the_one_shot_einsum(gaussian, shannon,
                                                        haar):
    # summed block by block in order, the fiber norms and the grid-rule
    # gamma keep the bits of one einsum over |C|^2
    rng = np.random.default_rng(9)
    for atom in (gaussian, shannon, haar):
        for n in (63, 256):
            fib = Fibers.of(atom, LineGrid(0.3, 3.4 / n, n).samples)
            P = np.abs(_matrix(fib)) ** 2
            w = atom.g1.measure_weights
            a = rng.standard_normal(w.size)
            for factors in ((w,), (a, w), (a + 1j * a[::-1], w)):
                subs = ",".join(["ki"] + ["k"] * len(factors)) + "->i"
                ref = np.einsum(subs, P, *factors)
                assert _bits(fib.power_sums(*factors)) == _bits(ref)


# -- empty blocks -------------------------------------------------------------------

# a centred power-of-two signal grid and an off-centre one of odd length;
# on both, rect and shannon records have empty blocks, gaussian and haar none
_EMPTY_BLOCK_GRIDS = {"centred": LineGrid.centered(8.0, 1024),
                      "off-centre": LineGrid(0.3, 1.0 / 32.0, 251)}


def _all_live(fibers):
    """The record with every block flagged live: its consumers run every
    block, as they did before empty blocks were skipped."""
    return dataclasses.replace(fibers, live=(True,) * len(fibers.live))


@pytest.mark.parametrize("where", sorted(_EMPTY_BLOCK_GRIDS))
@pytest.mark.parametrize("name", ["gaussian", "rect", "shannon", "haar"])
def test_skipped_empty_blocks_keep_every_bit(monkeypatch, name, where):
    atom = make_atom("gabor" if name in ("gaussian", "rect") else "wavelet",
                     name)
    f = random_bandlimited(_EMPTY_BLOCK_GRIDS[where], seed=5)
    h = atom.action.omega_side(f)
    g2 = atom.action.analysis_axis(f.grid)
    band = (-1.0, 1.0) if atom.case == "gabor" else (1.0, 2.0)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(*band))
    fib = atom.fibers(h.grid.samples)
    assert (False in fib.live) == (name in ("rect", "shannon"))
    assert fib.live == Fibers.of(atom, h.grid.samples).live

    W = bargmann_adjoint(atom, h, out_grid=g2)
    back = bargmann(atom, W, out_grid=h.grid).values
    slow = _stream(atom, g2, h=h, spec=spec, out_grid=h.grid)
    filtered, _ = filter_signal(atom, spec, f, "slow")
    w = atom.g1.measure_weights
    a = np.random.default_rng(2).standard_normal(w.size)
    factor_sets = ((w,), (a, w), (a + 1j * a[::-1], w))
    sums = [fib.power_sums(*fs) for fs in factor_sets]

    # the oracles
    assert _bits(W.values) == _bits(_whole_array_chain(atom, g2, h=h))
    P = np.abs(_matrix(fib)) ** 2
    for fs, s in zip(factor_sets, sums):
        subs = ",".join(["ki"] + ["k"] * len(fs)) + "->i"
        assert _bits(s) == _bits(np.einsum(subs, P, *fs))
    if where == "centred" and name != "gaussian":
        # the gaussian's projection moves against the oracle where its
        # products are subnormal (test_folded_phases_keep_the_bits_...)
        assert _bits(back) == _bits(
            _unfused_stream(atom, g2, field=W, out_grid=h.grid))
        assert _bits(slow) == _bits(
            _unfused_stream(atom, g2, h=h, spec=spec, out_grid=h.grid))

    # the same consumers running every block
    fibers = atom.fibers
    monkeypatch.setattr(atom, "fibers", lambda omegas: _all_live(fibers(omegas)))
    assert _bits(bargmann_adjoint(atom, h, out_grid=g2).values) == _bits(W.values)
    assert _bits(bargmann(atom, W, out_grid=h.grid).values) == _bits(back)
    assert _bits(_stream(atom, g2, h=h, spec=spec, out_grid=h.grid)) == \
        _bits(slow)
    assert _bits(filter_signal(atom, spec, f, "slow")[0].values) == \
        _bits(filtered.values)
    for fs, s in zip(factor_sets, sums):
        assert _bits(_all_live(fib).power_sums(*fs)) == _bits(s)


def test_a_block_of_negative_zeros_is_live(rect):
    # a rect window that is -0 off [0, 1): its record has the zeros of
    # rect's, with the other sign, and no empty block
    def time(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1.0), 1.0, -0.0)

    atom = Atom("gabor", "rect-0", rect.time_samples, rect.g1, time,
                rect.freq_profile, rect.support,
                healthy_range=rect.healthy_range)
    grid = _EMPTY_BLOCK_GRIDS["centred"]
    plus, minus = Fibers.of(rect, grid.samples), Fibers.of(atom, grid.samples)
    assert np.array_equal(_matrix(plus), _matrix(minus))
    assert False in plus.live and all(minus.live)
    h = random_bandlimited(grid, seed=5)
    g2 = induced_grid(grid)
    assert _bits(bargmann_adjoint(atom, h).values) == \
        _bits(_whole_array_chain(atom, g2, h=h))
    assert _bits(minus.power_sums(minus.weights)) == \
        _bits(plus.power_sums(plus.weights))


def test_a_symbol_not_finite_on_a_skipped_block_raises(shannon):
    # shannon's first block (scales below 2^-6) is empty on this signal's
    # omega side; the symbol is infinite there alone
    f = random_bandlimited(_EMPTY_BLOCK_GRIDS["centred"], seed=6)
    assert not shannon.fibers(DILATION.omega_side(f).grid.samples).live[0]
    top = shannon.g1.nodes[_BLOCK_ROWS - 1]
    spec = SymbolSpec.first_variable(Symbol1D(
        lambda x: np.where(x <= top, np.inf, 1.0), "spike:inf"))
    with pytest.raises(ValueError, match=r"symbol a\(r\)=spike:inf is not "
                                         "finite on the grid"):
        filter_signal(shannon, spec, f, "slow")


def test_a_field_overflowing_a_skipped_block_raises(shannon):
    # the first block projects onto empty fibers and is skipped: a field up
    # to 2^512 there moves no bit, and above it bargmann raises the range
    # error
    g2 = LineGrid.centered(8.0, 1024)
    rows = slice(0, _BLOCK_ROWS)
    assert not shannon.fibers(induced_grid(g2).samples).live[0]
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((shannon.g1.count, g2.count)) + 0j
    ref = bargmann(shannon, PhasePlaneField("wavelet", shannon.g1, g2, vals))
    for big in (1e150, 2.0 ** 512):
        vals[rows] = big
        out = bargmann(shannon, PhasePlaneField("wavelet", shannon.g1, g2, vals))
        assert _bits(out.values) == _bits(ref.values)
    vals[rows] = 1e308
    F = PhasePlaneField("wavelet", shannon.g1, g2, vals)
    with pytest.raises(ValueError, match="field exceeds the supported range"):
        bargmann(shannon, F)


# -- zero-mask blocks ---------------------------------------------------------------

def _box_minus_zero(a, b):
    """1 on [a, b] and -0 elsewhere: a mask of -0 on whole blocks."""
    return Symbol1D(lambda x: np.where((x >= a) & (x <= b), 1.0, -0.0),
                    f"box-0:{a:g},{b:g}")


# translations [-16, 16) and scales 2^-8..2^8 in 512 rows: 8 blocks of 4
# units or 2 octaves.  (atom, symbol, blocks with a nonzero mask)
_ZERO_MASK_CASES = {
    "inside one block": ("gaussian", Symbol1D.indicator(0.5, 3.5), 1),
    "across a block boundary": ("gaussian", Symbol1D.indicator(-1.0, 1.0), 2),
    "zero on every block": ("gaussian", Symbol1D.indicator(40.0, 50.0), 0),
    "-0 on whole blocks": ("rect", _box_minus_zero(-1.0, 1.0), 2),
    "complex record": ("haar", Symbol1D.indicator(1.0, 2.0), 1),
}


def _zero_mask_setup(case):
    name, alpha, touched = _ZERO_MASK_CASES[case]
    atom = make_atom("gabor" if name in ("gaussian", "rect") else "wavelet",
                     name)
    f = random_bandlimited(SIGNAL_GRID, seed=8)
    h = atom.action.omega_side(f)
    g2 = atom.action.analysis_axis(f.grid)
    spec = SymbolSpec.first_variable(alpha)
    masked = [spec._compact_field(atom.g1.nodes[rows], g2.samples).any()
              for rows in _row_blocks(atom.g1.count)]
    assert sum(masked) == touched
    return atom, alpha, spec, f, h, g2


@pytest.mark.parametrize("case", sorted(_ZERO_MASK_CASES))
def test_skipped_zero_mask_blocks_keep_every_bit(monkeypatch, case):
    atom, alpha, spec, f, h, g2 = _zero_mask_setup(case)
    fib = atom.fibers(h.grid.samples)
    factors = (alpha.sample(atom.g1.nodes), fib.weights)
    slow = _stream(atom, g2, h=h, spec=spec, out_grid=h.grid)
    filtered, _ = filter_signal(atom, spec, f, "slow")
    sums = fib.power_sums(*factors)

    # the oracles
    assert _bits(sums) == _bits(
        np.einsum("ki,k,k->i", np.abs(_matrix(fib)) ** 2, *factors))
    if atom.name != "gaussian":
        # (the gaussian's subnormal products: test_folded_phases_keep_...)
        assert _bits(slow) == _bits(
            _unfused_stream(atom, g2, h=h, spec=spec, out_grid=h.grid))
    if case == "zero on every block":
        assert _bits(filtered.values) == _bits(np.zeros(f.grid.count, complex))

    # the same consumers running every block: every record live and every
    # mask reporting a nonzero entry
    class NeverZero(np.ndarray):
        def any(self, *args, **kwargs):
            return True

    fibers, compact = atom.fibers, SymbolSpec._compact_field
    monkeypatch.setattr(atom, "fibers", lambda omegas: _all_live(fibers(omegas)))
    monkeypatch.setattr(SymbolSpec, "_compact_field",
                        lambda *args: compact(*args).view(NeverZero))
    assert _bits(_stream(atom, g2, h=h, spec=spec, out_grid=h.grid)) == \
        _bits(slow)
    assert _bits(filter_signal(atom, spec, f, "slow")[0].values) == \
        _bits(filtered.values)
    assert _bits(atom.fibers(h.grid.samples).power_sums(*factors)) == \
        _bits(sums)


def test_only_blocks_with_a_nonzero_mask_are_transformed(monkeypatch):
    # every block of these records is live on the signal's omega side, so
    # the chain transforms all 64 rows of each block its symbol touches in
    # both directions, in one or more parts, and no row of the others.  The
    # symbol is evaluated on each block before its rows are transformed, so
    # a core call belongs to the block of the last evaluation
    starts, block, rows = {}, [None], collections.Counter()
    core, compact = _Sandwich.core, SymbolSpec._compact_field

    def counted(self, part):
        rows[block[0], self.forward] += len(part)
        return core(self, part)

    def evaluated(self, r_nodes, s_nodes):
        block[0] = starts.get(r_nodes[0])
        return compact(self, r_nodes, s_nodes)

    monkeypatch.setattr(_Sandwich, "core", counted)
    monkeypatch.setattr(SymbolSpec, "_compact_field", evaluated)
    for case, (_, _, touched) in sorted(_ZERO_MASK_CASES.items()):
        atom, _, spec, _, h, g2 = _zero_mask_setup(case)
        starts.clear()
        starts.update((atom.g1.nodes[r.start], b) for b, r in
                      enumerate(_row_blocks(atom.g1.count)))
        masked = [b for b, r in enumerate(_row_blocks(atom.g1.count))
                  if compact(spec, atom.g1.nodes[r], g2.samples).any()]
        assert len(masked) == touched
        assert all(atom.fibers(h.grid.samples).live[b] for b in masked)
        rows.clear()
        _stream(atom, g2, h=h, spec=spec, out_grid=h.grid)
        assert rows == {(b, d): _BLOCK_ROWS for b in masked
                        for d in (False, True)}, case


# -- the chain on two CPUs -----------------------------------------------------------

def _short_last_block(name, rows):
    """The catalog atom ``name`` on a first axis of two blocks and ``rows``
    more rows, so its last block is shorter than the others."""
    count = 2 * _BLOCK_ROWS + rows
    if name in ("gaussian", "rect"):
        return make_window(name, LineGrid(-16.0, 32.0 / count, count))
    return make_wavelet(name, ScaleGrid(2.0 ** -8, 2.0 ** 8, count))


# the catalog's real records (rect and shannon with empty blocks on
# SIGNAL_GRID), haar's complex one, and last blocks of 1, 7 and 33 rows
_SPLIT_ATOMS = {
    "gaussian": lambda: make_atom("gabor", "gaussian"),
    "rect": lambda: make_atom("gabor", "rect"),
    "shannon": lambda: make_atom("wavelet", "shannon"),
    "haar": lambda: make_atom("wavelet", "haar"),
    "gaussian, last block of 1 row": lambda: _short_last_block("gaussian", 1),
    "shannon, last block of 7 rows": lambda: _short_last_block("shannon", 7),
    "haar, last block of 33 rows": lambda: _short_last_block("haar", 33),
}


def _chain_outputs(atom, f, lengths: list) -> tuple[dict, dict]:
    """The bytes of every output of the streamed chain on ``f``, and the
    rows of every block that its DFT cores transformed, read from
    ``lengths`` (cleared per output): analysis, the diagonalizing transform,
    the fused round trip (its norm too), and slow filters with a
    first-variable symbol that zeroes some blocks, one that zeroes every
    block, and a second-variable symbol (a one-row mask)."""
    h = atom.action.omega_side(f)
    W = analyze(atom, f)
    axis = atom.action.analysis_axis(f.grid)
    band, far = (((-1.0, 1.0), (40.0, 50.0)) if atom.case == "gabor"
                 else ((1.0, 2.0), (600.0, 700.0)))
    specs = {"first": SymbolSpec.first_variable(Symbol1D.indicator(*band)),
             "zero": SymbolSpec.first_variable(Symbol1D.indicator(*far)),
             "second": SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0))}

    def fused():
        back, norm = round_trip(atom, h, field_grid=axis)
        return np.append(back.values, norm)

    calls = {"analyze": lambda: analyze(atom, f).values,
             "bargmann": lambda: bargmann(atom, W, out_grid=h.grid).values,
             "round trip": fused}
    for kind, spec in specs.items():
        calls[kind] = lambda spec=spec: filter_signal(atom, spec, f,
                                                      "slow")[0].values
    out, rows = {}, {}
    for output, call in calls.items():
        lengths.clear()
        out[output] = _bits(call())
        rows[output] = list(lengths)
    return out, rows


@pytest.mark.parametrize("name", sorted(_SPLIT_ATOMS))
def test_the_split_chain_gives_the_serial_bytes(monkeypatch, name):
    atom = _SPLIT_ATOMS[name]()
    f = random_bandlimited(SIGNAL_GRID, seed=21)
    lengths = []
    core = _Sandwich.core

    def counted(self, block):
        lengths.append(len(block))
        return core(self, block)

    monkeypatch.setattr(_Sandwich, "core", counted)
    runs = {}
    for parts in (1, 2):
        monkeypatch.setattr(fields, "_PARTS", parts)
        runs[parts], rows = _chain_outputs(atom, f, lengths)
        del rows["zero"]  # every block skipped: the signal's own DFTs
        for output, seen in rows.items():
            # one CPU transforms whole blocks; two transform whole blocks
            # of a projection without a symbol mask, and halves of the
            # others (a returned field, the slow filters)
            whole = parts == 1 or output in ("bargmann", "round trip")
            assert (max(seen) == _BLOCK_ROWS) == whole, f"{name}: {output}"
    for output, serial in runs[1].items():
        assert runs[2][output] == serial, f"{name}: {output}"


@pytest.mark.parametrize("bad", [(1, 3), (0, 1)])
def test_a_non_finite_block_of_the_worker_raises_the_serial_error(
        gaussian, monkeypatch, bad):
    # bargmann's chain on a field of 8 blocks, two of them not finite: the
    # lower in one row, the upper in two.  The caller's first transform
    # waits (at most 20 s) until the worker has started one, so with bad
    # blocks 0 and 1 each thread takes a bad block, whichever takes block
    # 0; with 1 and 3, block 1 empties the queue, so block 3 runs only if
    # it was taken before.  The finiteness check names the rows it found,
    # and the split chain raises the serial run's error, the lower block's
    g2 = SIGNAL_GRID
    vals = np.ones((gaussian.g1.count, g2.count), dtype=complex)
    for i, b in enumerate(bad):
        vals[b * _BLOCK_ROWS:b * _BLOCK_ROWS + i + 1, 5] = np.nan
    F = PhasePlaneField._of_finite("gabor", gaussian.g1, g2, vals)
    check, core = fields._require_finite, _Sandwich.core
    raised_in, worker_ran, waited = [], threading.Event(), []

    def named(a):
        try:
            check(a)
        except ValueError as exc:
            raised_in.append(threading.current_thread().name)
            rows = np.count_nonzero(~np.isfinite(a).all(axis=1))
            raise ValueError(f"{exc} in {rows} rows") from None

    def gated(self, block):
        if threading.current_thread() is not threading.main_thread():
            worker_ran.set()
        elif not waited:
            waited.append(worker_ran.wait(20))
        return core(self, block)

    monkeypatch.setattr(fields, "_require_finite", named)
    errors = {}
    for parts in (1, 2):
        monkeypatch.setattr(fields, "_PARTS", parts)
        monkeypatch.setattr(_Sandwich, "core", gated if parts == 2 else core)
        raised_in.clear()
        with pytest.raises(ValueError) as info:
            _stream(gaussian, g2, field=F, out_grid=induced_grid(g2))
        errors[parts] = str(info.value)
    assert waited == [True]
    assert errors[1] == errors[2] == \
        "field contains non-finite values in 1 rows"
    assert raised_in
    if bad == (0, 1):
        assert len(raised_in) == 2 and "MainThread" in raised_in


@pytest.mark.parametrize("parts", [1, 2], ids=["whole", "split"])
@pytest.mark.parametrize("n", [63, 64, 1001, 1024])
@pytest.mark.parametrize("name", ["gaussian", "rect", "shannon", "haar"])
def test_a_batch_of_round_trips_has_the_bits_of_one_at_a_time(
        request, monkeypatch, name, n, parts):
    # a batch hands out every (function, block) part at once, and sums each
    # function's projections in block order as they come: values (signed
    # zeros included, as the zero function and rect's and shannon's empty
    # blocks give them) and field norms keep the bits of round_trip, and of
    # bargmann of bargmann_adjoint and weighted_norm
    monkeypatch.setattr(fields, "_PARTS", parts)
    monkeypatch.setattr(fields, "_SPLIT_COLUMNS", 1)
    atom = request.getfixturevalue(name)
    grid = LineGrid.centered(8.0, n)
    axis = atom.action.analysis_axis(grid)
    hs = [atom.action.omega_side(random_bandlimited(grid, seed=s))
          for s in range(3)]
    hs.insert(1, SampledFunction(hs[0].grid, -0.0 * hs[0].values))
    for h, (back, norm) in zip(hs, round_trips(atom, hs, field_grid=axis)):
        one, one_norm = round_trip(atom, h, field_grid=axis)
        W = bargmann_adjoint(atom, h, out_grid=axis)
        unfused = bargmann(atom, W, out_grid=h.grid)
        assert _bits(back.values) == _bits(one.values) == \
            _bits(unfused.values), (name, n)
        assert _bits(norm) == _bits(one_norm) == _bits(W.weighted_norm())
    assert round_trips(atom, []) == []


def test_a_batch_keeps_its_bits_under_fast_thread_switches(
        gaussian, monkeypatch):
    # both threads sum projections into a batch's outputs: with the
    # interpreter switching threads every microsecond, 20 batches of 8
    # round trips (64 parts each, of 64 x 64 blocks) keep the serial bits.
    # A lost, doubled or reordered sum would change them
    monkeypatch.setattr(fields, "_SPLIT_COLUMNS", 1)
    grid = LineGrid.centered(8.0, 64)
    hs = [random_bandlimited(grid, seed=s) for s in range(8)]
    monkeypatch.setattr(fields, "_PARTS", 1)
    serial = [_bits(b.values) for b, _ in round_trips(gaussian, hs)]
    monkeypatch.setattr(fields, "_PARTS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert [_bits(b.values)
                    for b, _ in round_trips(gaussian, hs)] == serial
    finally:
        sys.setswitchinterval(interval)


def test_a_batch_on_two_grids_raises(gaussian):
    grid = LineGrid.centered(8.0, 64)
    other = LineGrid.centered(4.0, 64)
    hs = [SampledFunction(g, np.ones(64)) for g in (grid, grid, other)]
    with pytest.raises(ValueError, match="one grid per call"):
        round_trips(gaussian, hs)


def test_a_non_finite_function_of_a_batch_raises_the_serial_error(
        gaussian, monkeypatch):
    # round trips of 6 functions on 1024 samples, with the split on:
    # function 3 overflows the backward transform of some rows of its last
    # block, function 5 of more rows of its first (1e308 near the outer
    # edge of each, as in test_adjoint_rejects_a_non_finite_block).  The
    # caller's first transform waits (at most 20 s) until the worker has
    # started one.  The batch raises the error that one call after another
    # raises, function 3's and not the lower block's, once both threads
    # have stopped taking parts.  The failing part empties the queue, so
    # after its thread's `_take` returns at most one part, the other
    # thread's in flight, finishes its chain: function 5 is not reached
    grid = LineGrid.centered(16.0, 1024)
    g2 = induced_grid(grid)
    K = gaussian.g1.count
    hs = [random_bandlimited(grid, seed=s) for s in range(6)]
    for i, edge, width in ((3, -1, 0.5), (5, 0, 1.0)):
        near = np.abs(grid.samples - gaussian.g1.nodes[edge]) <= width
        hs[i] = SampledFunction(grid, np.where(near, 1e308, 0.0))
    check, core, take = fields._require_finite, _Sandwich.core, fields._take
    raised_in, stopped, checks, drained = [], [], [], []
    worker_ran, waited = threading.Event(), []

    def named(a):
        checks.append(threading.current_thread().name)
        try:
            check(a)
        except ValueError as exc:
            raised_in.append(threading.current_thread().name)
            rows = np.count_nonzero(~np.isfinite(a).all(axis=1))
            raise ValueError(f"{exc} in {rows} rows") from None

    def gated(self, block):
        if threading.current_thread() is not threading.main_thread():
            worker_ran.set()
        elif not waited:
            waited.append(worker_ran.wait(20))
        return core(self, block)

    def counted(todo):
        try:
            failed = take(todo)
            if failed is not None and not drained:
                drained.append(len(checks))
            return failed
        finally:
            stopped.append(threading.current_thread().name)

    def batch(functions):
        return _stream(gaussian, g2, h=functions, out_grid=grid,
                       energy=np.empty((len(functions), K)))

    monkeypatch.setattr(fields, "_require_finite", named)
    monkeypatch.setattr(fields, "_take", counted)
    monkeypatch.setattr(fields, "_PARTS", 1)
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (3, 5):
            with pytest.raises(ValueError) as info:
                batch([hs[i]])
            errors.append(str(info.value))
        serial = None
        for h in hs:
            try:
                batch([h])
            except ValueError as exc:
                serial = str(exc)
                break
        assert serial == errors[0] != errors[1]
        monkeypatch.setattr(fields, "_PARTS", 2)
        monkeypatch.setattr(_Sandwich, "core", gated)
        raised_in.clear(), checks.clear()
        with pytest.raises(ValueError) as info:
            batch(hs)
        assert len(stopped) == 2, stopped
    assert waited == [True]
    assert str(info.value) == serial
    assert raised_in and len(checks) - drained[0] <= 1, checks


def _one_part_each(ran: list, worker_step=lambda i: None,
                   caller_step=lambda i: None):
    """``fields._run_parts`` on two parts with the split on: the part the
    pooled worker takes runs ``worker_step(i)``, and the caller's runs
    ``caller_step(i)`` once the worker's is done (waiting at most 30 s), so
    each thread runs one part.  ``ran`` receives who ran each step."""
    done = threading.Event()

    def passes(i):
        if threading.current_thread() is threading.main_thread():
            done.wait(30)
            ran.append("caller")
            caller_step(i)
            return
        ran.append("worker")
        try:
            worker_step(i)
        finally:
            done.set()

    fields._run_parts(2, passes, [(0,), (1,)])


def _overflow(i):
    return np.float64(1e308) * 10.0


def test_the_worker_runs_in_the_callers_float_state():
    for state in ("ignore", "raise"):
        ran = []
        with np.errstate(over=state):
            if state == "ignore":
                _one_part_each(ran, _overflow)
            else:
                with pytest.raises(FloatingPointError, match="overflow"):
                    _one_part_each(ran, _overflow)
        assert sorted(ran) == ["caller", "worker"], state


def test_a_warning_raised_in_the_worker_reaches_the_caller():
    ran = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            _one_part_each(ran, _overflow)
    assert sorted(ran) == ["caller", "worker"]


def test_an_error_in_either_half_reaches_the_caller(gaussian, monkeypatch):
    def fail(i):
        raise ValueError(f"part {i} failed")

    for side in ("worker", "caller"):
        ran = []
        with pytest.raises(ValueError, match=r"part \d failed"):
            _one_part_each(ran, **{f"{side}_step": fail})
        assert sorted(ran) == ["caller", "worker"], side
    # when both halves raise, the first part's error is raised, as a serial
    # run raises it
    ran = []
    with pytest.raises(ValueError, match="part 0 failed"):
        _one_part_each(ran, fail, fail)
    # and the next split call runs, with the bits of one CPU
    f = random_bandlimited(SIGNAL_GRID, seed=22)
    monkeypatch.setattr(fields, "_PARTS", 2)
    split = _bits(analyze(gaussian, f).values)
    monkeypatch.setattr(fields, "_PARTS", 1)
    assert _bits(analyze(gaussian, f).values) == split


def test_cpus_without_an_affinity_mask(monkeypatch):
    # a platform with no sched_getaffinity (macOS, Windows) counts the
    # machine's CPUs, and one when even that count is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, cpus in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert fields._cpus() == cpus


def _analyze_in_child(atom, f, send):
    """In a forked child: the bytes of ``analyze(atom, f)`` and whether the
    pooled worker ran one of its parts; the caller's first transform waits
    for the worker's first one (at most 20 s), so a pool without a thread
    shows."""
    try:
        worker_ran, waited = threading.Event(), []
        core = _Sandwich.core

        def ordered(self, block):
            if threading.current_thread() is not threading.main_thread():
                worker_ran.set()
            elif not waited:
                waited.append(worker_ran.wait(20))
            return core(self, block)

        _Sandwich.core = ordered
        send.send((_bits(analyze(atom, f).values), worker_ran.is_set()))
    except BaseException as exc:
        send.send(repr(exc))


def test_a_forked_child_runs_the_split_chain(gaussian, monkeypatch):
    # the parent's worker thread is running when the child forks; the child
    # has none of its threads and must start its own
    monkeypatch.setattr(fields, "_PARTS", 2)
    f = random_bandlimited(SIGNAL_GRID, seed=23)
    ref = _bits(analyze(gaussian, f).values)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_analyze_in_child, args=(gaussian, f, send))
    child.start()
    try:
        assert recv.poll(60), "the forked child's analyze did not return"
        result = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert not isinstance(result, str), result
    values, worker_ran = result
    assert values == ref
    assert worker_ran


def test_concurrent_callers_share_the_worker(monkeypatch):
    # four threads on two CPUs run the split chain at once through the one
    # pooled worker, the interpreter switching threads every microsecond:
    # every part runs once, into its own rows or block buffer, so every
    # result has the serial bytes.  Each thread has its own atoms
    f = random_bandlimited(SIGNAL_GRID, seed=24)

    def chain(atom):
        W = analyze(atom, f)
        h = atom.action.omega_side(f)
        back, norm = round_trip(atom, h, atom.action.analysis_axis(f.grid))
        out = bargmann(atom, W, out_grid=h.grid)
        return _bits(W.values), _bits(out.values), _bits(back.values), norm

    names = [("gabor", "gaussian"), ("wavelet", "shannon")] * 2
    monkeypatch.setattr(fields, "_PARTS", 1)
    refs = {name: chain(make_atom(case, name)) for case, name in names[:2]}
    monkeypatch.setattr(fields, "_PARTS", 2)
    results, errors = [], []

    def run(case, name):
        try:
            atom = make_atom(case, name)
            for _ in range(5):
                results.append((name, chain(atom)))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=pair) for pair in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == 20
    assert all(out == refs[name] for name, out in results)


_AT_EXIT = """
import atexit, hashlib
from tfloc import fields
from tfloc.atoms import make_atom
from tfloc.fields import analyze, random_bandlimited
from tfloc.grids import LineGrid

fields._PARTS = 2
f = random_bandlimited(LineGrid.centered(8.0, 1024), seed=25)
analyze(make_atom("gabor", "gaussian"), f)  # the worker thread is running


def at_exit():
    W = analyze(make_atom("gabor", "gaussian"), f)
    print(hashlib.sha256(W.values.tobytes()).hexdigest())


atexit.register(at_exit)
"""


def test_the_split_chain_runs_in_an_atexit_handler(gaussian, monkeypatch):
    # at interpreter exit the pool takes no new task: the caller runs every
    # part, with the serial bytes
    monkeypatch.setattr(fields, "_PARTS", 1)
    f = random_bandlimited(SIGNAL_GRID, seed=25)
    ref = hashlib.sha256(analyze(gaussian, f).values.tobytes()).hexdigest()
    src = str(Path(tfloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep +
           os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", _AT_EXIT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [ref], done.stderr
