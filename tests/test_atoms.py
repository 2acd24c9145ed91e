import ast
import functools
import gc
import json
import math
import weakref

import numpy as np
import pytest

from tfloc import atoms
from tfloc.atoms import AdmissibilityError, make_atom, make_wavelet, make_window
from tfloc.fourier import fourier
from tfloc.grids import LineGrid, SampledFunction
from tfloc.io import (export_atom, import_atom, sidecar_path, write_json,
                      write_signal_csv)
from tfloc.operators import default_operator_grid

LN2 = math.log(2.0)


def _haar_c(haar) -> float:
    """haar's normalization c, its time profile's value on [0, 1/2)."""
    return haar.eval_time(np.array([0.25]))[0].real


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
    assert abs(_haar_c(haar) ** 2 * c_raw - 1.0) <= 1e-6
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
    lo, hi = haar.support
    assert (lo, hi) == (2.0 ** -12, 2.0 ** 12)
    raw = LN2 - math.pi ** 2 * lo ** 2 / 8 - 3.0 / (4.0 * math.pi ** 2 * hi ** 2)
    assert abs(_haar_c(haar) ** 2 * raw - 1.0) <= 1e-13


def test_admissibility_even_in_frequency(shannon, haar):
    for atom in (shannon, haar):
        for xi in (0.5, 1.7):
            a = atom.admissibility_integral(xi)
            b = atom.admissibility_integral(-xi)
            assert abs(a - b) <= 1e-10


def test_admissibility_integral_is_the_profile_table_total(shannon, haar,
                                                           imported):
    # after s = t|xi| the integral does not depend on xi for a real
    # wavelet, whose |psi_hat| is even: every nonzero xi reads the total of
    # the profile table, of the closed-form profiles (shannon, haar) and of
    # an imported atom's interpolant alike
    xis = [-4.0, -1.3, -1.0, -0.37, -2.0 ** -4, 2.0 ** -4, 0.37, 1.0, 1.3, 4.0]
    for atom in (shannon, haar, imported(shannon), imported(haar)):
        total = atom._profile_table[1][-1]
        assert all(atom.admissibility_integral(xi) == total for xi in xis)
        assert atom.admissibility_residual() == abs(total - 1.0)
    # an independent quadrature of |psi_hat(s)|^2 / s over the support:
    # shannon's band in closed form (1 / ln 2 over [1, 2]); haar on a
    # dense log-midpoint rule, each sign of s
    assert abs(shannon.admissibility_integral(1.0) - 1.0) <= 2.3e-16
    lo, hi = haar.support
    n = 400_000
    s = lo * np.exp((np.arange(n) + 0.5) * math.log(hi / lo) / n)
    for sign in (-1.0, 1.0):
        ref = np.sum(haar.eval_power(sign * s)) * math.log(hi / lo) / n
        assert abs(haar.admissibility_integral(sign) - ref) <= 1e-6


def test_profile_breakpoints_are_haar_zeros_and_imported_nodes(
        shannon, haar, gaussian, rect, imported):
    # catalog haar lists its profile zeros; shannon and the catalog windows
    # list none; an imported atom lists the nodes of its interpolant: the
    # positive frequency nodes of a wavelet, whose support ends at the last
    # of them, and the time nodes of a window
    bps = haar.profile_breakpoints
    assert bps.size == 2047 and bps[0] == 2.0 and bps[-1] == 4094.0
    assert np.all(np.diff(bps) == 2.0) and bps[-1] < haar.support[1]
    assert np.max(np.abs(haar.eval_freq(bps))) <= 1e-12
    for atom in (shannon, gaussian, rect):
        assert atom.profile_breakpoints.size == 0, atom
    for atom in map(imported, (haar, shannon, gaussian, rect)):
        if atom.case == "wavelet":
            xi = fourier(atom.time_samples, "forward").grid.samples
            assert np.array_equal(atom.profile_breakpoints, xi[xi > 0])
            assert atom.support == (1e-6, xi[-1])
        else:
            t = atom.time_samples.grid
            assert np.array_equal(atom.profile_breakpoints, t.samples)
            assert atom.support == (t.start, t.stop)
        assert atom.support_is_exact is False


def test_no_scope_asks_whether_an_atom_has_profiles(scopes_where):
    # every atom, imported ones included, carries its time and frequency
    # profiles, so no code forks on a missing one; the power profile stays
    # optional (haar's real closed form), the one comparison left
    def compares_with_none(names):
        def match(node):
            if not isinstance(node, ast.Compare):
                return False
            sides = [node.left, *node.comparators]
            return (any(isinstance(x, ast.Attribute) and x.attr in names
                        for x in sides)
                    and any(isinstance(x, ast.Constant) and x.value is None
                            for x in sides))
        return match

    assert scopes_where(compares_with_none({"time_profile",
                                            "freq_profile"})) == []
    assert scopes_where(compares_with_none({"power_profile"})) == [
        "atoms.py:Atom.eval_power"]


def test_no_scope_reads_a_second_statement_of_an_atom_fact(scopes_where):
    # an atom states its support once (``support``, ``support_is_exact``)
    # and keeps no field that no computation reads: no scope reads an
    # attribute of the names that stated a support per case, an exact
    # support apart, the frequency samples or the normalization
    gone = {"freq_support", "time_support", "exact_support", "freq_samples",
            "normalization"}
    assert scopes_where(lambda node: isinstance(node, ast.Attribute)
                        and node.attr in gone) == []


def test_an_imported_wavelet_is_real(shannon, tmp_path):
    # one profile table serves both signs of xi because |psi_hat| is even:
    # complex samples would make it odd, so import_atom refuses them as
    # make_wavelet does
    path = str(tmp_path / "shannon.csv")
    export_atom(path, shannon)
    samples = shannon.time_samples
    write_signal_csv(path, SampledFunction(samples.grid,
                                           samples.values * (1 + 1e-9j)))
    with pytest.raises(AdmissibilityError,
                       match="^shannon: wavelet must be real-valued"):
        import_atom(path)


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
    assert np.max(haar.eval_power(haar.profile_breakpoints[:50])) <= 1e-30
    for atom in (shannon, gaussian):
        assert np.array_equal(atom.eval_power(s),
                              np.abs(atom.eval_freq(s)) ** 2)


def test_rect_frequency_profile_is_the_transform_of_its_window(rect):
    # phi_hat(xi) = integral_0^1 exp(-2 pi i x xi) dx, by the midpoint rule
    # on N = 2^14 cells, which errs by about |phi_hat(xi)| (pi xi / N)^2 / 6,
    # below 2e-8 here; no window record reads the frequency profile, so
    # nothing else evaluates it
    xi = np.array([-7.5, -2.0, -0.3, 0.0, 0.25, 1.0, 3.7])
    x = (np.arange(2 ** 14) + 0.5) / 2 ** 14
    ref = np.exp(-2j * np.pi * np.outer(xi, x)).mean(axis=1)
    assert np.max(np.abs(rect.eval_freq(xi) - ref)) <= 1e-7
    assert rect.eval_freq(np.zeros(1))[0] == 1.0


def test_wavelets_are_real_valued(shannon, haar):
    for atom in (shannon, haar):
        assert np.max(np.abs(atom.time_samples.values.imag)) <= 1e-12


def _complex_shannon(original=atoms._shannon_profiles):
    """Shannon's profiles with an imaginary part of 1e-9 of the time one."""
    time, freq = original()
    return (lambda x: time(x) * (1 + 1e-9j)), freq


def _leaky_shannon(original=atoms._shannon_profiles):
    """Shannon's profiles with the band reaching one float past |xi| = 2:
    admissible still, but not +0 outside its declared exact support."""
    time, freq = original()
    edge = np.nextafter(2.0, 3.0)
    return time, (lambda xi: freq(xi) + ((np.abs(xi) > 2.0)
                                         & (np.abs(xi) <= edge)) * freq(1.0))


def _signed_zero_shannon(original=atoms._shannon_profiles):
    """Shannon's profiles with -0 outside the band, where +0 was."""
    time, freq = original()
    return time, (lambda xi: np.where(freq(xi) != 0, freq(xi), -0.0))


def _scaled_quadrature(factor, original=atoms.gauss_kronrod):
    """``gauss_kronrod`` with every integral scaled by ``factor``: a profile
    table whose total, the atom's mass, is ``factor`` times the true one."""
    def scaled(*args):
        vals, errs = original(*args)
        return vals * factor, errs
    return scaled


@pytest.mark.parametrize("name,patch,message,residual", [
    ("shannon", (atoms, "_shannon_profiles", _complex_shannon),
     "shannon: wavelet must be real-valued", 2 / math.sqrt(LN2) * 1e-9),
    ("shannon", (atoms, "gauss_kronrod", _scaled_quadrature(1.001)),
     "shannon: admissibility tolerance 1e-06 not met", 1e-3),
    ("gaussian", (atoms, "gauss_kronrod", _scaled_quadrature(1.44)),
     "gaussian: unit-norm tolerance 1e-10 not met", 0.2),
    ("shannon", (atoms, "_shannon_profiles", _leaky_shannon),
     "shannon: profile is not +0 outside its exact support [1, 2]",
     1 / math.sqrt(LN2)),
    ("shannon", (atoms, "_shannon_profiles", _signed_zero_shannon),
     "shannon: profile is not +0 outside its exact support [1, 2]", 0.0),
], ids=["not-real", "not-admissible", "not-unit-norm", "leaks-past-support",
        "minus-zero-outside"])
def test_catalog_certificates_raise_admissibility_error(
        monkeypatch, name, patch, message, residual):
    # no catalog atom fails its certificate; each patch makes one fail
    monkeypatch.setattr(*patch)
    make = make_wavelet if name == "shannon" else make_window
    with pytest.raises(AdmissibilityError) as exc:
        make(name)
    assert math.isclose(exc.value.residual, residual, rel_tol=1e-9)
    assert str(exc.value) == f"{message} (achieved residual {residual:.3e})"
    assert isinstance(exc.value, ValueError)


# -- the catalog -----------------------------------------------------------------


CATALOG = [("gabor", "gaussian"), ("gabor", "rect"),
           ("wavelet", "shannon"), ("wavelet", "haar")]


def test_support_certificate_reads_both_ends_and_both_signs(monkeypatch):
    # a window leaking one float below 0 or past 1, and a wavelet leaking
    # on the negative side alone, each fail the exact-support certificate
    rect = make_window("rect")
    below, above = np.nextafter([0.0, 1.0], [-1.0, 2.0])
    for leak in (below, above):
        atom = make_window("rect")
        atom.time_profile = lambda x, leak=leak: rect.time_profile(x) + (x == leak)
        with pytest.raises(AdmissibilityError, match=r"exact support \[0, 1\]"):
            atoms._certify_support(atom)
    shannon = make_wavelet("shannon")
    edge = np.nextafter(-1.0, 0.0)
    atom = make_wavelet("shannon")
    atom.freq_profile = lambda xi: shannon.freq_profile(xi) + (xi == edge)
    with pytest.raises(AdmissibilityError, match="exact support"):
        atoms._certify_support(atom)
    # the catalog's truncated supports are not exact
    catalog = [make_atom(case, name) for case, name in CATALOG]
    assert [(atom.support, atom.support_is_exact) for atom in catalog] == [
        ((-6.5, 6.5), False), ((0.0, 1.0), True), ((1.0, 2.0), True),
        ((2.0 ** -12, 2.0 ** 12), False)]


def _arrays(obj, depth=3):
    """(path, array) of every ndarray reachable from ``obj`` through
    attributes and tuples, ``depth`` levels deep."""
    if isinstance(obj, np.ndarray):
        yield "", obj
        return
    if depth == 0:
        return
    if isinstance(obj, tuple):
        items = [(f"[{i}]", v) for i, v in enumerate(obj)]
    elif hasattr(obj, "__dict__") and not callable(obj):
        items = [(f".{k}", v) for k, v in vars(obj).items()]
    else:
        return
    for key, value in items:
        for path, a in _arrays(value, depth - 1):
            yield key + path, a


@pytest.mark.parametrize("case,name", CATALOG)
def test_the_catalog_builds_each_atom_once(monkeypatch, case, name):
    # the first make_atom of an entry builds and verifies it, its profile
    # table included (gauss_kronrod); the second runs no quadrature and
    # returns a new atom holding the first one's samples and table arrays
    monkeypatch.setattr(atoms, "_catalog",
                        functools.cache(atoms._catalog.__wrapped__))
    passes = []
    adaptive = atoms.gauss_kronrod
    monkeypatch.setattr(atoms, "gauss_kronrod",
                        lambda *a: passes.append(1) or adaptive(*a))
    first = make_atom(case, name)
    assert passes and "_profile_table" in vars(first)
    passes.clear()
    second = make_atom(case, name)
    assert not passes
    assert second is not first and type(second) is atoms.Atom
    assert (second.case, second.name) == (case, name)
    assert second.time_samples is first.time_samples
    assert all(a is b for a, b in zip(second._profile_table[:2],
                                      first._profile_table[:2]))
    shared = dict(_arrays(first))
    assert {"._profile_table[0]", "._profile_table[1]",
            ".profile_breakpoints", ".g1.nodes", ".g1.measure_weights",
            ".time_samples.values"} <= set(shared)
    assert all(a is shared[path] for path, a in _arrays(second))


@pytest.mark.parametrize("case,name", CATALOG)
def test_every_shared_array_is_read_only(case, name):
    atom = make_atom(case, name)
    found = list(_arrays(atom))
    assert len(found) >= 10
    for path, a in found:
        assert not a.flags.writeable, f"{atom!r}{path}"
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


def test_each_catalog_atom_keeps_its_own_fiber_record():
    # two atoms of one entry start with no record and build their own; a
    # record is collected with the atom that built it
    grid = default_operator_grid("gabor", 64)
    a, b = make_atom("gabor", "gaussian"), make_atom("gabor", "gaussian")
    record = a.fibers(grid.samples)
    assert b._last_fibers is None
    assert make_atom("gabor", "gaussian")._last_fibers is None
    assert b.fibers(grid.samples) is not record
    assert a.fibers(grid.samples) is record
    ref = weakref.ref(record)
    del a, record
    gc.collect()
    assert ref() is None
    assert b._last_fibers is not None


def test_patched_profiles_fail_their_certificate_after_the_catalog(
        monkeypatch):
    # make_wavelet builds and checks a new atom on every call: a patched
    # profile raises, while the catalog keeps the entry it verified
    verified = make_atom("wavelet", "shannon")
    monkeypatch.setattr(atoms, "_shannon_profiles", _complex_shannon)
    with pytest.raises(AdmissibilityError, match="must be real-valued"):
        make_wavelet("shannon")
    again = make_atom("wavelet", "shannon")
    assert again.time_samples is verified.time_samples
    assert not np.iscomplex(again.time_samples.values).any()


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


def test_imported_fiber_tol_covers_its_own_record(gaussian, rect, shannon,
                                                  haar, imported):
    # an imported atom's fiber_tol is the larger of the sidecar's and the
    # largest |fiber norm - 1| of its own record on 256 omegas spanning its
    # healthy range: the interpolants of the band-limited (shannon) and
    # truncated (haar) profiles miss the catalog's 1e-6 and 1e-3
    pins = {"gaussian": (1e-6, 1e-6), "rect": (1e-6, 1e-6),
            "shannon": (3.28e-2, 3.30e-2), "haar": (1.20e-1, 1.22e-1)}
    for atom in (gaussian, rect, shannon, haar):
        back = imported(atom)
        lo, hi = back.healthy_range
        omegas = LineGrid(lo, (hi - lo) / 256, 256).samples
        dev = float(np.max(np.abs(back.fibers(omegas).norms - 1.0)))
        assert back.fiber_tol == max(atom.fiber_tol, dev), atom.name
        low, high = pins[atom.name]
        assert low <= back.fiber_tol <= high, (atom.name, back.fiber_tol)


def test_an_old_sidecar_imports_unchanged(shannon, tmp_path):
    # the sidecar holds only what import_atom reads; one written with the
    # normalization and frequency grid keys of earlier versions imports
    # the same atom
    path = str(tmp_path / "shannon.csv")
    export_atom(path, shannon)
    with open(sidecar_path(path)) as fh:
        md = json.load(fh)
    assert set(md) == {"case", "name", "time_grid", "healthy_range",
                       "fiber_tol", "g1"}
    new = import_atom(path)
    md.update(normalization=1.0 / math.sqrt(LN2),
              freq_grid={"start": -4.0, "step": 1.0 / 256, "count": 2048})
    write_json(sidecar_path(path), md)
    old = import_atom(path)
    xs = np.linspace(-3.0, 3.0, 97)
    for a, b in [(new.time_samples.values, old.time_samples.values),
                 (new.eval_freq(xs), old.eval_freq(xs)),
                 (new.profile_breakpoints, old.profile_breakpoints),
                 (new._profile_table[1], old._profile_table[1])]:
        assert a.tobytes() == b.tobytes()
    assert ((new.support, new.fiber_tol, new.healthy_range)
            == (old.support, old.fiber_tol, old.healthy_range))
