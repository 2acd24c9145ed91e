import math

import numpy as np
import pytest

from tfloc.atoms import (AdmissibilityError, admissibility_test_frequencies,
                         make_wavelet)
from tfloc.io import export_atom, import_atom

LN2 = math.log(2.0)


# -- admissibility -------------------------------------------------------------

def test_shannon_admissibility_closed_form(shannon):
    # (1/ln2) * integral_1^2 dt/t = 1 exactly; numerics must agree to 1e-10
    for xi in (1.0, -3.0, 0.37, 2.0 ** -4):
        assert abs(shannon.admissibility_integral(xi) - 1.0) <= 1e-10


def test_shannon_residual_on_documented_test_set(shannon):
    assert shannon.admissibility_residual() <= 1e-10


def test_haar_normalization_against_bruteforce_quadrature(haar):
    # independent oracle: dense log-midpoint rule for the raw energy integral,
    # no reuse of the library quadrature
    n = 400_000
    lo, hi = 2.0 ** -14, 2.0 ** 14
    dt = math.log(hi / lo) / n
    s = lo * np.exp((np.arange(n) + 0.5) * dt)
    raw = np.sum(4 * np.sin(np.pi * s / 2) ** 4 / (np.pi * s) ** 2 / s * s) * dt
    c_raw = float(raw)
    assert abs(haar.normalization ** 2 * c_raw - 1.0) <= 1e-6
    # the closed-form value of the raw integral is ln 2
    assert abs(c_raw - LN2) <= 1e-5


def test_haar_residual_within_tolerance(haar):
    assert haar.admissibility_residual() <= 1e-6


def test_admissibility_even_in_frequency(shannon, haar):
    for atom in (shannon, haar):
        for xi in (0.5, 1.7):
            a = atom.admissibility_integral(xi)
            b = atom.admissibility_integral(-xi)
            assert abs(a - b) <= 1e-10


def test_admissibility_integral_depends_on_the_sign_alone(shannon, haar,
                                                         tmp_path):
    # after s = t|xi| every branch sees only sign(xi): shannon (quad), haar
    # (QAWO) and, through export/import, the generic log-midpoint rule
    export_atom(str(tmp_path / "shannon.csv"), shannon)
    imported = import_atom(str(tmp_path / "shannon.csv"))
    assert imported.freq_profile is None
    xis = admissibility_test_frequencies()
    for atom in (shannon, haar, imported):
        vals = np.array([atom.admissibility_integral(float(xi)) for xi in xis])
        for side in (-1.0, 1.0):
            assert np.all(vals[np.sign(xis) == side]
                          == atom.admissibility_integral(side))
        # the residual is the maximum over the documented set, bit for bit
        assert atom.admissibility_residual() == np.max(np.abs(vals - 1.0))


def test_narrow_frequency_clip_rejected_with_residual():
    with pytest.raises(AdmissibilityError) as info:
        make_wavelet("shannon", freq_clip=(0.0, 1.5))
    assert info.value.residual > 0.4  # missing ln(2/1.5)/ln2 of the band


def test_wavelets_are_real_valued(shannon, haar):
    for atom in (shannon, haar):
        assert np.max(np.abs(atom.time_samples.values.imag)) <= 1e-12


# -- windows ---------------------------------------------------------------------

def test_gaussian_window_unit_norm(gaussian):
    # oracle: integral sqrt(2) exp(-2 pi x^2) dx = 1
    assert abs(gaussian.time_samples.norm() - 1.0) <= 1e-10
    vals = gaussian.eval_time(np.array([0.0]))
    assert abs(vals[0] - 2.0 ** 0.25) <= 1e-14


def test_gaussian_frequency_self_dual(gaussian):
    xs = np.linspace(-3, 3, 41)
    assert np.max(np.abs(gaussian.eval_freq(xs)
                         - 2.0 ** 0.25 * np.exp(-np.pi * xs ** 2))) <= 1e-12


def test_rect_window_exact_norm_on_aligned_grid(rect):
    # grid step 1/256 puts 256 unit-weight samples inside [0, 1)
    assert rect.time_samples.norm() == 1.0


# -- fiber profile ---------------------------------------------------------------

def test_ell_gabor_gaussian_real(gaussian):
    # real window: conjugation is the identity
    for q, w in [(0.0, 0.5), (1.5, -2.0), (-3.0, 1.0)]:
        v = gaussian.ell(q, w)
        assert v.imag == 0.0
        assert abs(v - 2.0 ** 0.25 * math.exp(-math.pi * (w - q) ** 2)) <= 1e-14


def test_ell_shannon_band_formula(shannon):
    # direct substitution into the stored frequency profile
    c = 1.0 / math.sqrt(LN2)
    for u, w in [(1.0, 1.5), (0.5, 3.0), (2.0, 0.9), (1.0, 2.5), (4.0, -0.4)]:
        expected = math.sqrt(u) * c if 1.0 <= abs(u * w) <= 2.0 else 0.0
        assert abs(shannon.ell(u, w) - expected) <= 1e-14


def test_ell_rejects_nonpositive_scale(shannon):
    with pytest.raises(ValueError, match="positive"):
        shannon.ell(0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        shannon.ell(-2.0, 1.0)


def test_ell_evenness_wavelet(shannon, haar):
    for atom in (shannon, haar):
        for u in (0.3, 1.0, 5.0):
            for w in (0.25, 1.1, 3.7):
                assert abs(abs(atom.ell(u, -w)) - abs(atom.ell(u, w))) <= 1e-10


def test_fiber_norms_documented_ranges(shannon, haar, gaussian, rect):
    for atom in (shannon, haar, gaussian, rect):
        lo, hi = atom.healthy_range
        if atom.case == "wavelet":
            pos = np.linspace(lo * 1.01, hi, 37)
            omegas = np.concatenate([-pos, pos])
        else:
            omegas = np.linspace(lo, hi, 75, endpoint=False)
        dev = np.max(np.abs(atom.fiber_norms(omegas) - 1.0))
        assert dev <= atom.fiber_tol, f"{atom.name}: fiber dev {dev:.2e}"


def test_fiber_norms_shannon_unit_to_machine(shannon):
    omegas = np.array([0.0625, 0.1, 1.0, 1.3, 2.7182818, 4.0, -3.1])
    assert np.max(np.abs(shannon.fiber_norms(omegas) - 1.0)) <= 1e-12


def test_admissibility_test_set_is_documented_shape():
    xis = admissibility_test_frequencies()
    assert xis.size == 64
    assert np.all(xis != 0.0)
    assert np.all(np.abs(xis) >= 2.0 ** -4) and np.all(np.abs(xis) <= 4.0)


def test_atom_export_import_roundtrip(tmp_path, gaussian):
    from tfloc.io import export_atom, import_atom
    path = str(tmp_path / "atom.csv")
    export_atom(path, gaussian)
    back = import_atom(path)
    assert back.case == "gabor" and back.name == "gaussian"
    xs = np.linspace(-2, 2, 21)
    # imported atoms interpolate stored samples; grid nodes are exact
    assert np.max(np.abs(back.eval_time(gaussian.time_samples.grid.samples)
                         - gaussian.time_samples.values)) <= 1e-14
    assert np.max(np.abs(back.eval_time(xs) - gaussian.eval_time(xs))) <= 1e-3
