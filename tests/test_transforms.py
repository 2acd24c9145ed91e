import math

import numpy as np
import pytest

from tfloc.fields import (PhasePlaneField, analyze, apply_axis2_fourier,
                          bargmann, bargmann_adjoint, embed, project,
                          random_bandlimited)
from tfloc.fourier import fourier
from tfloc.grids import LineGrid, SampledFunction, ScaleGrid

SIGNAL_GRID = LineGrid.centered(8.0, 1024)


def _random_field(atom, seed, n2=256):
    rng = np.random.default_rng(seed)
    g2 = LineGrid.centered(8.0, n2)
    vals = rng.standard_normal((atom.g1.count, n2)) \
        + 1j * rng.standard_normal((atom.g1.count, n2))
    return PhasePlaneField(atom.case, atom.g1, g2, vals, "zeta2")


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


def test_analyze_rejects_incompatible_grid(gaussian):
    f = SampledFunction(SIGNAL_GRID, np.ones(1024))
    with pytest.raises(ValueError):
        analyze(gaussian, f, g2=LineGrid(0.0, 0.333, 64))


def test_analyze_restricts_to_subgrid(gaussian):
    f = random_bandlimited(SIGNAL_GRID, seed=9)
    full = analyze(gaussian, f)
    sub_grid = LineGrid.centered(8.0, 256)
    sub = analyze(gaussian, f, g2=sub_grid)
    offset = int(round((sub_grid.start - full.g2.start) / full.g2.step))
    assert np.max(np.abs(sub.values - full.values[:, offset:offset + 256])) == 0.0


# -- axis-2 transform ---------------------------------------------------------------

def test_axis2_roundtrip(gaussian, shannon):
    for atom in (gaussian, shannon):
        F = _random_field(atom, seed=11)
        back = apply_axis2_fourier(apply_axis2_fourier(F, "forward"), "backward")
        assert np.max(np.abs(back.values - F.values)) <= 1e-10


def test_axis2_pure_modulation_concentrates(shannon):
    g2 = LineGrid.centered(8.0, 256)
    c = 2.0  # on the induced frequency lattice
    rng = np.random.default_rng(0)
    g = rng.standard_normal(shannon.g1.count)
    vals = g[:, None] * np.exp(2j * np.pi * g2.samples[None, :] * c)
    F = PhasePlaneField("wavelet", shannon.g1, g2, vals, "zeta2")
    out = apply_axis2_fourier(F, "forward")
    col = int(np.argmin(np.abs(out.g2.samples - c)))
    energy = np.abs(out.values) ** 2
    assert energy[:, col].sum() / energy.sum() >= 1.0 - 1e-20


def test_axis2_preserves_weighted_norm(gaussian, shannon):
    # oracle: direct quadrature of both fields
    for atom in (gaussian, shannon):
        F = _random_field(atom, seed=13)
        out = apply_axis2_fourier(F, "forward")
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


def test_embed_zero(gaussian):
    g2 = LineGrid.centered(8.0, 128)
    F = embed(gaussian, SampledFunction(g2, np.zeros(128)))
    assert np.all(F.values == 0)


def test_embed_isometry_and_projection_identity(shannon, gaussian):
    g2 = LineGrid.centered(8.0, 256)
    for atom in (shannon, gaussian):
        f = _healthy_vector(atom, g2, seed=21)
        F = embed(atom, f)
        assert abs(F.weighted_norm() - f.norm()) <= 1e-6 * f.norm()
        back = project(atom, F)
        assert np.max(np.abs(back.values - f.values)) <= 1e-6


def test_project_kills_fiber_orthogonal_profiles(shannon, gaussian):
    # explicit profiles orthogonal to the fiber: an odd +/- pattern across
    # the 32 in-band nodes (wavelet), an odd function about the window
    # center (gabor)
    g2 = LineGrid.centered(8.0, 64)
    L = shannon.ell_matrix(g2.samples)
    w = shannon.g1.measure_weights
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
    F = PhasePlaneField("wavelet", shannon.g1, g2, vals, "omega")
    out = project(shannon, F)
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
    Fg = PhasePlaneField("gabor", gaussian.g1, g2g,
                         np.stack(cols, axis=1), "omega")
    assert np.max(np.abs(project(gaussian, Fg).values)) <= 1e-6


def test_project_checks_first_axis_by_value(gaussian, shannon):
    g2 = LineGrid.centered(8.0, 64)
    vals = embed(gaussian, SampledFunction(g2, np.ones(64))).values
    # an equal grid built apart is accepted, bit for bit
    copy = LineGrid(gaussian.g1.start, gaussian.g1.step, gaussian.g1.count)
    same = project(gaussian, PhasePlaneField("gabor", copy, g2, vals, "omega"))
    ref = project(gaussian, PhasePlaneField("gabor", gaussian.g1, g2, vals,
                                            "omega"))
    assert np.array_equal(same.values, ref.values)
    shifted = LineGrid(copy.start + copy.step / 2, copy.step, copy.count)
    coarse = LineGrid(copy.start, 2 * copy.step, copy.count // 2)
    for g1 in (shifted, coarse):
        F = PhasePlaneField("gabor", g1, g2, np.ones((g1.count, 64)), "omega")
        with pytest.raises(ValueError, match="first axis"):
            project(gaussian, F)
    narrow = ScaleGrid(2.0 ** -4, 2.0 ** 4, shannon.g1.count)
    F = PhasePlaneField("wavelet", narrow, g2,
                        np.ones((narrow.count, 64)), "omega")
    with pytest.raises(ValueError, match="first axis"):
        project(shannon, F)
    # a gabor field on a line grid is never on a wavelet atom's scale grid
    F = PhasePlaneField("gabor", copy, g2, vals, "omega")
    with pytest.raises(ValueError, match="first axis"):
        project(shannon, F)


def test_embed_project_idempotent(gaussian):
    # embed(project(.)) applied twice equals applied once
    F = apply_axis2_fourier(_random_field(gaussian, seed=31), "forward")
    once = embed(gaussian, project(gaussian, F))
    twice = embed(gaussian, project(gaussian, once))
    assert np.max(np.abs(twice.values - once.values)) <= 1e-8


def test_projection_operator_self_adjoint(gaussian):
    # <Lambda x, y> == <x, Lambda y> under the plane measure
    rng = np.random.default_rng(17)
    g1w = gaussian.g1.measure_weights
    g2 = LineGrid.centered(8.0, 64)

    def plane_inner(A, B):
        return np.einsum("k,ki,ki->", g1w, A.values, np.conj(B.values)) * g2.step

    for _ in range(5):
        shape = (gaussian.g1.count, 64)
        X = PhasePlaneField("gabor", gaussian.g1, g2,
                            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            "omega")
        Y = PhasePlaneField("gabor", gaussian.g1, g2,
                            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            "omega")
        LX = embed(gaussian, project(gaussian, X))
        LY = embed(gaussian, project(gaussian, Y))
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
        PhasePlaneField("gabor", W.g1, W.g2, W.values, "zeta2")


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
