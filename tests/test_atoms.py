import math

import numpy as np

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
    for xi in (-1.0, 1.0):
        assert abs(haar.admissibility_integral(xi) - 1.0) <= 1e-13


def test_haar_normalization_closed_form(haar):
    """The raw energy of haar on [lo, hi] = [2^-12, 2^12] in closed form.

    With |psi_hat(s)|^2 = 4 sin^4(pi s/2)/(pi s)^2 the raw energy over
    (0, inf) is ln 2.  The lower tail [0, lo] is pi^2 lo^2/8 to leading
    order, since sin^4 x ~ x^4 there.  In the upper tail [hi, inf), write
    sin^4 x = 3/8 - cos(2x)/2 + cos(4x)/8: the constant gives
    (3/8)(4/pi^2)/(2 hi^2) = 3/(4 pi^2 hi^2), and the cosine terms vanish at
    leading order because hi is an even integer, where sin(pi hi) and
    sin(2 pi hi) are zero.  So the raw energy is
    ln 2 - pi^2 lo^2/8 - 3/(4 pi^2 hi^2), within 4e-15 of a 30-digit
    reference.
    """
    lo, hi = haar.freq_support
    assert (lo, hi) == (2.0 ** -12, 2.0 ** 12)
    raw = LN2 - math.pi ** 2 * lo ** 2 / 8 - 3.0 / (4.0 * math.pi ** 2 * hi ** 2)
    assert abs(haar.normalization ** 2 * raw - 1.0) <= 1e-13


def test_admissibility_even_in_frequency(shannon, haar):
    for atom in (shannon, haar):
        for xi in (0.5, 1.7):
            a = atom.admissibility_integral(xi)
            b = atom.admissibility_integral(-xi)
            assert abs(a - b) <= 1e-10


def test_admissibility_integral_depends_on_the_sign_alone(shannon, haar,
                                                         tmp_path):
    # after s = t|xi| both rules see only sign(xi): the Gauss-Kronrod pass
    # of the closed-form profiles (shannon, haar) and, through
    # export/import, the log-midpoint rule of the stored samples
    export_atom(str(tmp_path / "shannon.csv"), shannon)
    imported = import_atom(str(tmp_path / "shannon.csv"))
    assert imported.freq_profile is None
    xis = np.array([-4.0, -1.3, -1.0, -0.37, -2.0 ** -4,
                    2.0 ** -4, 0.37, 1.0, 1.3, 4.0])
    for atom in (shannon, haar, imported):
        vals = np.array([atom.admissibility_integral(float(xi)) for xi in xis])
        for side in (-1.0, 1.0):
            assert np.all(vals[np.sign(xis) == side]
                          == atom.admissibility_integral(side))
        # the residual reads xi = 1 alone, bit for bit
        assert atom.admissibility_residual() == abs(vals[xis == 1.0][0] - 1.0)
    # a real closed-form profile has |psi_hat(-s)| = |psi_hat(s)|: both
    # signs integrate to the same bits; the imported atom's samples are
    # within rounding of it
    for atom in (shannon, haar):
        assert (atom.admissibility_integral(-1.0)
                == atom.admissibility_integral(1.0))
    assert abs(imported.admissibility_integral(-1.0)
               - imported.admissibility_integral(1.0)) <= 1e-11


def test_freq_breakpoints_are_the_haar_profile_zeros(shannon, haar, gaussian,
                                                    tmp_path):
    bps = haar.freq_breakpoints
    assert bps.size == 2047 and bps[0] == 2.0 and bps[-1] == 4094.0
    assert np.all(np.diff(bps) == 2.0) and bps[-1] < haar.freq_support[1]
    assert np.max(np.abs(haar.eval_freq(bps))) <= 1e-12
    export_atom(str(tmp_path / "haar.csv"), haar)
    imported = import_atom(str(tmp_path / "haar.csv"))
    for atom in (shannon, gaussian, imported):
        assert atom.freq_breakpoints.size == 0, atom


def test_eval_power_is_the_squared_frequency_profile(shannon, haar,
                                                     gaussian):
    # haar's real closed form 4c^2 sin^4(pi s / 2) / (pi s)^2 agrees with
    # |psi_hat|^2 at rounding, vanishes at 0 and at its profile zeros; the
    # other atoms square the modulus of their profile, bit for bit
    s = np.linspace(-40.0, 40.0, 8001)
    p, ref = haar.eval_power(s), np.abs(haar.eval_freq(s)) ** 2
    assert p.dtype == float and np.all(p >= 0.0)
    assert np.all(np.abs(p - ref) <= 4e-15 * np.max(ref))
    assert haar.eval_power(np.array([0.0]))[0] == 0.0
    assert np.max(haar.eval_power(haar.freq_breakpoints[:50])) <= 1e-30
    for atom in (shannon, gaussian):
        assert np.array_equal(atom.eval_power(s),
                              np.abs(atom.eval_freq(s)) ** 2)


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
    # real window: conjugation is the identity; the translations 0, 1.5 and
    # -3 are among the nodes
    omegas = np.array([0.5, -2.0, 1.0])
    z = gaussian.g1.nodes
    assert {0.0, 1.5, -3.0} <= set(z)
    L = gaussian.ell_matrix(omegas)
    assert np.all(L.imag == 0.0)
    expected = 2.0 ** 0.25 * np.exp(-np.pi * (omegas[None, :] - z[:, None]) ** 2)
    assert np.max(np.abs(L - expected)) <= 1e-14


def test_ell_shannon_band_formula(shannon):
    # direct substitution into the stored frequency profile, at every scale
    c = 1.0 / math.sqrt(LN2)
    omegas = np.array([1.5, 3.0, 0.9, 2.5, -0.4])
    u = shannon.g1.nodes[:, None]
    band = (np.abs(u * omegas) >= 1.0) & (np.abs(u * omegas) <= 2.0)
    assert band.any() and not band.all()
    expected = np.where(band, np.sqrt(u) * c, 0.0)
    assert np.max(np.abs(shannon.ell_matrix(omegas) - expected)) <= 1e-14


def test_ell_evenness_wavelet(shannon, haar):
    w = np.array([0.25, 1.1, 3.7])
    for atom in (shannon, haar):
        assert np.max(np.abs(np.abs(atom.ell_matrix(-w))
                             - np.abs(atom.ell_matrix(w)))) <= 1e-10


def test_fiber_norms_documented_ranges(shannon, haar, gaussian, rect):
    for atom in (shannon, haar, gaussian, rect):
        lo, hi = atom.healthy_range
        if atom.case == "wavelet":
            pos = np.linspace(lo * 1.01, hi, 37)
            omegas = np.concatenate([-pos, pos])
        else:
            omegas = np.linspace(lo, hi, 75, endpoint=False)
        dev = np.max(np.abs(atom.fibers(omegas).norms - 1.0))
        assert dev <= atom.fiber_tol, f"{atom.name}: fiber dev {dev:.2e}"


def test_fiber_norms_shannon_unit_to_machine(shannon):
    omegas = np.array([0.0625, 0.1, 1.0, 1.3, 2.7182818, 4.0, -3.1])
    assert np.max(np.abs(shannon.fibers(omegas).norms - 1.0)) <= 1e-12


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
