"""Analyzing atoms: admissible wavelets and unit-norm windows.

Two families, selected by the ``case`` tag:

* ``wavelet`` -- real-valued atoms generating scale/translation transforms.
  Admissibility means the scale-invariant frequency energy
  ``integral_{0}^{inf} |psi_hat(t*xi)|^2 dt/t`` equals 1 for every nonzero
  test frequency.
* ``gabor`` -- unit L2-norm windows generating translation/modulation
  (short-time Fourier) transforms.

Catalog atoms carry exact closed-form profiles in time and frequency.  All
fiber evaluations use the closed forms; the stored samples exist for export,
plotting and as the (less accurate) fallback for atoms imported from CSV.
Linear interpolation of a sampled band-limited profile smears its band edges
by one sample spacing, which is fatal to the 1e-10/1e-6 admissibility and
fiber tolerances, hence the closed-form route for the catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate

from .grids import LineGrid, SampledFunction, ScaleGrid

__all__ = [
    "Atom",
    "AdmissibilityError",
    "Fibers",
    "make_wavelet",
    "make_window",
    "default_scale_grid",
    "default_translation_grid",
    "admissibility_test_frequencies",
    "WAVELET_NAMES",
    "WINDOW_NAMES",
]

LN2 = math.log(2.0)
WAVELET_NAMES = ("shannon", "haar")
WINDOW_NAMES = ("gaussian", "rect")

# Default quadrature domains for the first phase-plane coordinate.  The
# wavelet grid spans 16 octaves at 32 nodes per octave: one octave is then
# exactly 32 log-midpoint nodes, so band-limited-by-one-octave profiles
# integrate exactly.
DEFAULT_SCALE_RANGE = (2.0 ** -8, 2.0 ** 8)
DEFAULT_SCALE_COUNT = 512
DEFAULT_TRANSLATION_RANGE = (-16.0, 16.0)
DEFAULT_TRANSLATION_COUNT = 512


class AdmissibilityError(ValueError):
    """Atom construction failed its admissibility / normalization check."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


def default_scale_grid() -> ScaleGrid:
    return ScaleGrid(*DEFAULT_SCALE_RANGE, DEFAULT_SCALE_COUNT)


def default_translation_grid() -> LineGrid:
    lo, hi = DEFAULT_TRANSLATION_RANGE
    step = (hi - lo) / DEFAULT_TRANSLATION_COUNT
    return LineGrid(lo, step, DEFAULT_TRANSLATION_COUNT)


def admissibility_test_frequencies() -> np.ndarray:
    """Documented admissibility test set: 64 frequencies, +/- 32 log-spaced
    in [2^-4, 4], no zero."""
    pos = np.exp(np.linspace(math.log(2.0 ** -4), math.log(4.0), 32))
    return np.concatenate([-pos[::-1], pos])


class Atom:
    """An analyzing atom with exact profiles and a default quadrature grid.

    Parameters
    ----------
    case : "wavelet" or "gabor"
    name : catalog identifier
    time_samples, freq_samples : stored samples (export / fallback)
    normalization : scalar factor applied to the raw profile
    g1 : the default quadrature grid for the first phase-plane coordinate
        (ScaleGrid for wavelets, LineGrid of translations for windows)
    time_profile, freq_profile : exact vectorized callables, or None for
        imported atoms (then stored samples are interpolated linearly,
        zero outside their grid)
    freq_support : for wavelets, (lo, hi) of |xi| outside which the frequency
        profile is negligible; integration bounds for admissibility.
    time_support : for windows, (lo, hi) support of the window itself.
    healthy_range : documented range of the second coordinate on which the
        default g1 quadrature keeps fiber norms within fiber_tol.
    """

    def __init__(self, case, name, time_samples, freq_samples, normalization,
                 g1, time_profile=None, freq_profile=None,
                 freq_support=None, time_support=None,
                 healthy_range=None, fiber_tol=1e-6):
        if case not in ("wavelet", "gabor"):
            raise ValueError(f"unknown case {case!r}")
        self.case = case
        self.name = name
        self.time_samples = time_samples
        self.freq_samples = freq_samples
        self.normalization = float(normalization)
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")
        self.g1 = g1
        self.time_profile = time_profile
        self.freq_profile = freq_profile
        self.freq_support = freq_support
        self.time_support = time_support
        self.healthy_range = healthy_range
        self.fiber_tol = fiber_tol

    # -- profile evaluation -------------------------------------------------

    def _interp(self, samples: SampledFunction, x):
        x = np.asarray(x, dtype=float)
        g = samples.grid
        re = np.interp(x, g.samples, samples.values.real, left=0.0, right=0.0)
        im = np.interp(x, g.samples, samples.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def eval_time(self, x):
        if self.time_profile is not None:
            return self.time_profile(np.asarray(x, dtype=float))
        return self._interp(self.time_samples, x)

    def eval_freq(self, xi):
        if self.freq_profile is not None:
            return self.freq_profile(np.asarray(xi, dtype=float))
        return self._interp(self.freq_samples, xi)

    # -- fiber profile ------------------------------------------------------

    def ell(self, z, omega):
        """Fiber profile at a single phase-plane point.

        Wavelet case: sqrt(z) * conj(psi_hat(z*omega)), z > 0.
        Gabor case:   conj(phi(omega - z)).
        """
        if self.case == "wavelet":
            if z <= 0:
                raise ValueError(f"scale must be positive, got {z}")
            return complex(math.sqrt(z) * np.conj(self.eval_freq(z * omega)))
        return complex(np.conj(self.eval_time(omega - z)))

    def ell_matrix(self, omegas):
        """Fiber profiles on (self.g1 nodes) x omegas: shape (g1.count, len(omegas))."""
        omegas = np.asarray(omegas, dtype=float)
        z = self.g1.nodes
        if self.case == "wavelet":
            return np.sqrt(z)[:, None] * np.conj(self.eval_freq(np.outer(z, omegas)))
        return np.conj(self.eval_time(omegas[None, :] - z[:, None]))

    def fiber_norms(self, omegas):
        """Quadrature of |ell(., omega)|^2 against the first-coordinate measure."""
        return Fibers.of(self, omegas).norms

    # -- admissibility ------------------------------------------------------

    def admissibility_integral(self, xi: float) -> float:
        """Frequency-energy integral over scales at one test frequency.

        Wavelet case only.  Integrates |psi_hat(t*xi)|^2 dt/t over the atom's
        effective frequency support (substituted to s = t*|xi|, which is exact).
        """
        if self.case != "wavelet":
            raise ValueError("admissibility integral applies to wavelets")
        if xi == 0:
            raise ValueError("admissibility is evaluated at nonzero frequencies")
        side = 1.0 if xi > 0 else -1.0
        lo, hi = self.freq_support
        if self.name == "shannon" and self.freq_profile is not None:
            a, b = max(lo, 1.0), min(hi, 2.0)
            if b <= a:
                return 0.0
            val, _ = integrate.quad(lambda s: abs(self.eval_freq(side * s)) ** 2 / s,
                                    a, b, epsabs=1e-13, epsrel=1e-12)
            return val
        if self.name == "haar" and self.freq_profile is not None:
            return _haar_energy_integral(lo, hi) * self.normalization ** 2
        # generic: dense log-midpoint rule on the stored samples
        n = 200_000
        dt = math.log(hi / lo) / n
        s = lo * np.exp((np.arange(n) + 0.5) * dt)
        return float(np.sum(np.abs(self.eval_freq(side * s)) ** 2) * dt)

    def admissibility_residual(self) -> float:
        """Largest |energy integral - 1| over the documented test frequencies.

        After the substitution s = t*|xi| every branch of
        ``admissibility_integral`` depends on the sign of xi alone, so the
        64 documented frequencies take two values: those at xi = -1 and +1,
        which are the only ones evaluated.
        """
        return max(abs(self.admissibility_integral(xi) - 1.0)
                   for xi in (-1.0, 1.0))

    def to_metadata(self) -> dict:
        md = {
            "case": self.case,
            "name": self.name,
            "normalization": self.normalization,
            "time_grid": {"start": self.time_samples.grid.start,
                          "step": self.time_samples.grid.step,
                          "count": self.time_samples.grid.count},
            "freq_grid": {"start": self.freq_samples.grid.start,
                          "step": self.freq_samples.grid.step,
                          "count": self.freq_samples.grid.count},
            "healthy_range": list(self.healthy_range),
            "fiber_tol": self.fiber_tol,
        }
        if isinstance(self.g1, ScaleGrid):
            md["g1"] = {"kind": "scale", "u_min": self.g1.u_min,
                        "u_max": self.g1.u_max, "count": self.g1.count}
        else:
            md["g1"] = {"kind": "line", "start": self.g1.start,
                        "step": self.g1.step, "count": self.g1.count}
        return md

    def __repr__(self):
        return f"Atom({self.case}:{self.name})"


@dataclass(frozen=True, eq=False)
class Fibers:
    """An atom's fiber matrix on one omega grid, built once per (atom, grid).

    ``conj_ell[k, i]`` is conj(ell(z_k, omega_i)) on the atom's
    first-coordinate nodes z_k: the factor ``fields.project`` integrates
    against, and the conjugate of what ``fields.embed`` multiplies by.  The
    transform chain (``embed``, ``project``, ``bargmann``,
    ``bargmann_adjoint``, ``analyze``) and the grid-rule ``gamma`` take a
    record as ``fibers=`` and build their own when it is omitted; a record
    whose omegas differ by value from the call's grid is rejected.  The
    arrays are read-only.
    """

    omegas: np.ndarray
    conj_ell: np.ndarray
    weights: np.ndarray  # first-coordinate measure weights

    @classmethod
    def of(cls, atom: Atom, omegas) -> "Fibers":
        """The record of ``atom`` on ``omegas``: one ``ell_matrix`` call."""
        omegas = np.array(omegas, dtype=float)
        C = atom.ell_matrix(omegas)
        np.conj(C, out=C)
        omegas.flags.writeable = False
        C.flags.writeable = False
        return cls(omegas, C, atom.g1.measure_weights)

    @classmethod
    def on(cls, atom: Atom, grid: LineGrid,
           fibers: "Fibers | None" = None) -> "Fibers":
        """``fibers`` checked against ``grid``, or a new record when None."""
        if fibers is None:
            return cls.of(atom, grid.samples)
        return fibers.check(grid)

    def check(self, grid: LineGrid) -> "Fibers":
        """The record itself; ``ValueError`` unless its omegas equal the
        samples of ``grid`` by value."""
        if not np.array_equal(self.omegas, grid.samples):
            raise ValueError(
                f"fiber record on {self.omegas.size} omegas in "
                f"[{self.omegas[0]:g}, {self.omegas[-1]:g}] does not match "
                f"the grid {grid!r}")
        return self

    @cached_property
    def norms(self) -> np.ndarray:
        """Fiber norms: quadrature of |ell(., omega)|^2 against the
        first-coordinate measure (computed on first use)."""
        return np.einsum("ki,k->i", np.abs(self.conj_ell) ** 2,
                         self.weights).real

    def coverage(self, h: SampledFunction) -> float:
        """Share of the energy of h, sampled on the record's omegas, that the
        fibers carry: sum n(omega)|h(omega)|^2 / sum |h(omega)|^2 with n the
        fiber norm; 1 for h = 0.  Near 1 on the healthy range, near 0 where
        h lies outside the first-coordinate range."""
        self.check(h.grid)
        energy = np.abs(h.values) ** 2
        total = float(energy.sum())
        return float(self.norms @ energy) / total if total else 1.0


# -- Haar frequency-energy quadrature ----------------------------------------
#
# |haar_hat(s)|^2 = 4 sin^4(pi s/2) / (pi s)^2 for the unnormalized profile.
# Expanding sin^4 x = 3/8 - cos(2x)/2 + cos(4x)/8 turns the energy integral
# into one monotone piece plus two cosine-weighted pieces that scipy's
# oscillatory rule handles accurately over wide ranges.

def _haar_energy_integral(lo: float, hi: float) -> float:
    def base(s):
        return 4.0 / (np.pi ** 2 * s ** 3)

    i0 = 2.0 / np.pi ** 2 * (lo ** -2 - hi ** -2)  # integral of base, exact
    i1, _ = quad_cos(base, lo, hi, np.pi, epsabs=1e-13)
    i2, _ = quad_cos(base, lo, hi, 2.0 * np.pi, epsabs=1e-13)
    return 0.375 * i0 - 0.5 * i1 + 0.125 * i2


def quad_cos(fn, lo: float, hi: float, wvar: float, epsabs: float):
    """Integral of fn(t) cos(wvar t) over [lo, hi] by QUADPACK's QAWO rule.

    Returns the value and scipy's error estimate.  A complex-valued ``fn``
    (judged by its value at ``lo``) is integrated as its real and imaginary
    parts, and the two estimates are added.
    """
    def part(g):
        return integrate.quad(g, lo, hi, weight="cos", wvar=wvar,
                              epsabs=epsabs, limit=400)

    if not np.iscomplexobj(fn(lo)):
        return part(fn)
    re, e_re = part(lambda t: fn(t).real)
    im, e_im = part(lambda t: fn(t).imag)
    return re + 1j * im, e_re + e_im


# -- catalog ------------------------------------------------------------------

def _shannon_profiles():
    c = 1.0 / math.sqrt(LN2)

    def freq(xi):
        xi = np.asarray(xi, dtype=float)
        band = (np.abs(xi) >= 1.0) & (np.abs(xi) <= 2.0)
        return band * complex(c)

    def time(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x, dtype=complex)
        nz = x != 0
        xs = x[nz]
        out[nz] = c * (np.sin(4 * np.pi * xs) - np.sin(2 * np.pi * xs)) / (np.pi * xs)
        out[~nz] = 2.0 * c
        return out

    return time, freq, c


def _haar_profiles(c: float):
    def time(x):
        x = np.asarray(x, dtype=float)
        return (((x >= 0) & (x < 0.5)).astype(float)
                - ((x >= 0.5) & (x < 1.0)).astype(float)) * complex(c)

    def freq(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi, dtype=complex)
        nz = xi != 0
        xs = xi[nz]
        out[nz] = c * (1.0 - np.exp(-1j * np.pi * xs)) ** 2 / (2j * np.pi * xs)
        return out

    return time, freq


def make_wavelet(name: str, scale_grid: ScaleGrid | None = None,
                 freq_clip: tuple[float, float] | None = None) -> Atom:
    """Construct a catalog wavelet, verified admissible.

    Parameters
    ----------
    name : "shannon" or "haar"
    scale_grid : quadrature grid for the scale axis (default 2^-8..2^8, 512)
    freq_clip : optionally restrict the effective frequency support (in |xi|);
        used to model narrow storage grids.  Construction is rejected when the
        admissibility residual over the documented test set exceeds 1e-6.
    """
    if name not in WAVELET_NAMES:
        raise ValueError(f"unknown wavelet {name!r}; catalog: {WAVELET_NAMES}")
    g1 = scale_grid if scale_grid is not None else default_scale_grid()

    if name == "shannon":
        time_p, freq_p, norm = _shannon_profiles()
        support = (1.0, 2.0)
        tgrid = LineGrid.centered(8.0, 1024)
        fgrid = LineGrid.centered(4.0, 2048)
        healthy, ftol = (2.0 ** -4, 4.0), 1e-6
    else:
        support = (2.0 ** -12, 2.0 ** 12)
        # normalization always comes from the full effective support; a
        # narrow freq_clip then shows up as an admissibility failure below
        raw = _haar_energy_integral(*support)
        norm = 1.0 / math.sqrt(raw)
        time_p, freq_p = _haar_profiles(norm)
        tgrid = LineGrid.centered(2.0, 1024)
        fgrid = LineGrid.centered(32.0, 4096)
        # default-grid fiber norms carry the scale-truncation tail, O(1e-4)
        healthy, ftol = (2.0 ** -2, 4.0), 1e-3

    if freq_clip is not None:
        support = (max(support[0], freq_clip[0]), min(support[1], freq_clip[1]))
        if support[0] >= support[1]:
            raise AdmissibilityError(f"{name}: empty frequency support", 1.0)

    atom = Atom("wavelet", name,
                SampledFunction(tgrid, time_p(tgrid.samples)),
                SampledFunction(fgrid, freq_p(fgrid.samples)),
                norm, g1, time_p, freq_p,
                freq_support=support, healthy_range=healthy, fiber_tol=ftol)

    imag_max = float(np.max(np.abs(atom.time_samples.values.imag)))
    if imag_max > 1e-12:
        raise AdmissibilityError(f"{name}: wavelet must be real-valued", imag_max)
    residual, tol = atom.admissibility_residual(), 1e-6
    if residual > tol:
        raise AdmissibilityError(
            f"{name}: admissibility tolerance {tol:g} not met", residual)
    return atom


def make_window(name: str, translation_grid: LineGrid | None = None) -> Atom:
    """Construct a catalog window with unit L2 norm (to 1e-10).

    gaussian: phi(x) = 2^(1/4) exp(-pi x^2); rect: phi = indicator of [0, 1).
    The rect indicator is right-open so that on grids aligned with the unit
    interval the discrete norm and fiber counts are exact.
    """
    if name not in WINDOW_NAMES:
        raise ValueError(f"unknown window {name!r}; catalog: {WINDOW_NAMES}")
    g1 = translation_grid if translation_grid is not None else default_translation_grid()

    if name == "gaussian":
        norm = 2.0 ** 0.25

        def time(x):
            return norm * np.exp(-np.pi * np.asarray(x, dtype=float) ** 2) + 0j

        freq = time  # self-dual in this convention
        tgrid = LineGrid.centered(8.0, 1024)
        fgrid = LineGrid.centered(8.0, 1024)
        tsupport = (-6.5, 6.5)
        l2sq, _ = integrate.quad(lambda x: abs(time(x)) ** 2, *tsupport,
                                 epsabs=1e-14)
    else:
        norm = 1.0

        def time(x):
            x = np.asarray(x, dtype=float)
            return ((x >= 0) & (x < 1.0)).astype(complex)

        def freq(xi):
            xi = np.asarray(xi, dtype=float)
            out = np.ones_like(xi, dtype=complex)
            nz = xi != 0
            xs = xi[nz]
            out[nz] = np.exp(-1j * np.pi * xs) * np.sin(np.pi * xs) / (np.pi * xs)
            return out

        tgrid = LineGrid(-2.0, 1.0 / 256, 1024)
        fgrid = LineGrid.centered(16.0, 2048)
        tsupport = (0.0, 1.0)
        l2sq = 1.0

    residual, tol = abs(math.sqrt(l2sq) - 1.0), 1e-10
    if residual > tol:
        raise AdmissibilityError(f"{name}: unit-norm tolerance {tol:g} not met",
                                 residual)
    return Atom("gabor", name,
                SampledFunction(tgrid, time(tgrid.samples)),
                SampledFunction(fgrid, freq(fgrid.samples)),
                norm, g1, time, freq,
                time_support=tsupport, healthy_range=(-8.0, 8.0),
                fiber_tol=1e-6)


def make_atom(case: str, name: str) -> Atom:
    """Catalog dispatch by case tag."""
    return make_wavelet(name) if case == "wavelet" else make_window(name)
