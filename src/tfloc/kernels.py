"""Scalar symbols and two-point kernels of localization operators.

For a symbol depending only on the first phase-plane coordinate, the
localization operator diagonalizes: its action is multiplication by

    gamma(xi) = integral alpha(r) |ell(r, xi)|^2 dzeta_1(r),

the first-coordinate average of alpha against the unit-norm fiber profile.
gamma determines boundedness (iff gamma is bounded), the operator norm
(sup |gamma|) and the spectrum (closure of the range; the interval
[inf gamma, sup gamma] for real symbols).

Two quadrature rules are provided:

* ``rule="grid"`` -- the same discrete first-coordinate rule the operator
  builders use.  diag(build_direct(alpha)) reproduces this gamma to rounding,
  so all cross-operator consistency statements hold tightly.
* ``rule="adaptive"`` -- adaptive quadrature of the defining integral over
  the atom's effective support, with breakpoints at symbol discontinuities.
  Continuum-accurate (1e-8..1e-12); used wherever closed-form oracles are
  quoted.  The two rules differ by O(step) at indicator edges (~1e-4 at the
  default grids), inside every operator-level tolerance.

The Gabor case additionally admits ``rule="fft"``: the grid rule evaluated
as one FFT convolution of the symbol samples with the squared window.

The two-point overlap kernels generalize the same quadrature to pairs of
frequencies and feed the integral and compound-symbol operator builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, signal

from .atoms import Atom
from .grids import LineGrid
from .symbols import Symbol1D

__all__ = [
    "GammaFunction",
    "KernelMatrix",
    "SpectrumReport",
    "gamma",
    "spectrum_from_gamma",
    "boundedness_verdict",
    "overlap_kernel",
    "weighted_overlap_kernel",
]

OVERFLOW_GUARD = 1e12


class GammaFunction:
    """Sampled diagonal symbol of a first-variable localization operator."""

    def __init__(self, grid: LineGrid, values, atom_name: str,
                 symbol_descriptor: str, rule: str, unbounded: bool = False,
                 is_real: bool | None = None):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.count,):
            raise ValueError("gamma values must match the frequency grid")
        if is_real:
            dev = float(np.max(np.abs(values.imag)))
            if dev > 1e-10:
                raise ValueError(
                    f"real symbol produced imaginary gamma (dev {dev:.2e})")
            values = values.real.astype(complex)
        self.grid = grid
        self.values = values
        self.atom_name = atom_name
        self.symbol_descriptor = symbol_descriptor
        self.rule = rule
        self.unbounded = unbounded
        self.is_real = bool(is_real)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        return (f"GammaFunction({self.atom_name}, {self.symbol_descriptor}, "
                f"rule={self.rule})")


class KernelMatrix:
    """Two-point kernel sampled on a frequency grid."""

    def __init__(self, grid: LineGrid, values, kind: str, atom_name: str,
                 symbol_descriptor: str = "const:1",
                 check_hermitian: bool = False):
        values = np.asarray(values, dtype=complex)
        n = grid.count
        if values.shape != (n, n):
            raise ValueError("kernel must be square over the frequency grid")
        if check_hermitian:
            dev = float(np.max(np.abs(values - values.conj().T)))
            if dev > 1e-8:
                raise ValueError(f"kernel lost Hermitian symmetry (dev {dev:.2e})")
        self.grid = grid
        self.values = values
        self.kind = kind
        self.atom_name = atom_name
        self.symbol_descriptor = symbol_descriptor

    def __repr__(self):
        return f"KernelMatrix({self.kind}, {self.atom_name}, n={self.grid.count})"


@dataclass
class SpectrumReport:
    """Sampled spectrum approximation with norm and boundedness readout."""

    values: np.ndarray
    source: str
    is_real: bool
    norm_estimate: float
    interval: tuple[float, float] | None = None
    unbounded: bool = False
    caveat: str = "spectrum and norm are reported from the sampled range only"
    hausdorff: float | None = None
    extras: dict = field(default_factory=dict)


# -- gamma ---------------------------------------------------------------------

def gamma(atom: Atom, alpha: Symbol1D, xi_grid: LineGrid,
          rule: str = "grid") -> GammaFunction:
    """First-coordinate average of alpha against the squared fiber profile.

    Wavelet case: integral alpha(u) |psi_hat(u xi)|^2 du/u.
    Gabor case:   integral alpha(q) |phi(xi - q)|^2 dq.
    """
    if rule not in ("grid", "adaptive", "fft"):
        raise ValueError(f"unknown rule {rule!r}")
    xs = xi_grid.samples
    if rule == "grid":
        vals = _gamma_grid(atom, alpha, xs)
    elif rule == "fft":
        if atom.case != "gabor":
            raise ValueError("the fft rule applies to the gabor case only")
        vals = _gamma_fft(atom, alpha, xi_grid)
    else:
        vals = _gamma_adaptive(atom, alpha, xs)
    finite = np.isfinite(vals)
    if not np.all(finite):
        raise ValueError(f"gamma for {alpha.descriptor} is not finite on the grid")
    unbounded = bool(np.max(np.abs(vals)) > OVERFLOW_GUARD)
    gf = GammaFunction(xi_grid, vals, atom.name, alpha.descriptor, rule,
                       unbounded=unbounded, is_real=alpha.is_real)
    if alpha.sup_bound is not None:
        over = float(np.max(np.abs(gf.values))) - alpha.sup_bound
        if over > 1e-8:
            raise ValueError(
                f"gamma exceeded its symbol bound by {over:.2e}; quadrature bug")
    return gf


def _symbol_on_nodes(atom: Atom, alpha: Symbol1D) -> np.ndarray:
    """alpha sampled on the first-coordinate nodes of the atom's grid."""
    a_vals = np.asarray(alpha(atom.g1.nodes))
    if not np.all(np.isfinite(a_vals)):
        raise ValueError(f"symbol {alpha.descriptor} not finite on the grid nodes")
    return a_vals


def _gamma_grid(atom: Atom, alpha: Symbol1D, xs: np.ndarray) -> np.ndarray:
    a_vals = _symbol_on_nodes(atom, alpha)
    L2 = np.abs(atom.ell_matrix(xs)) ** 2
    return np.einsum("k,ki,k->i", a_vals, L2,
                     atom.g1.measure_weights).astype(complex)


def _gamma_fft(atom: Atom, alpha: Symbol1D, xi_grid: LineGrid) -> np.ndarray:
    """Grid rule evaluated by FFT convolution (gabor case).

    Requires the frequency grid to sit on the translation lattice; the sums
    are then identical to the direct rule up to FFT rounding.
    """
    g1 = atom.g1
    h = g1.step
    ratio = xi_grid.step / h
    stride = int(round(ratio))
    if abs(ratio - stride) > 1e-9:
        raise ValueError("fft rule needs the xi grid on the translation lattice")
    off = (xi_grid.start - g1.start) / h
    o = int(round(off))
    if abs(off - o) > 1e-6:
        raise ValueError("fft rule needs the xi grid on the translation lattice")
    a_vals = _symbol_on_nodes(atom, alpha)
    nq, nxi = g1.count, xi_grid.count
    dmin = o - (nq - 1)
    dmax = o + (nxi - 1) * stride
    d = np.arange(dmin, dmax + 1)
    prof = np.abs(atom.eval_time(d * h)) ** 2
    conv = signal.fftconvolve(a_vals.astype(complex), prof.astype(complex))
    idx = o + np.arange(nxi) * stride - dmin
    return h * conv[idx]


def _gamma_adaptive(atom: Atom, alpha: Symbol1D, xs: np.ndarray) -> np.ndarray:
    out = np.empty(xs.size, dtype=complex)
    for i, xi in enumerate(xs):
        out[i] = _gamma_adaptive_one(atom, alpha, float(xi))
    return out


def _segments(lo: float, hi: float, breakpoints) -> list[tuple[float, float]]:
    pts = [lo] + [b for b in sorted(breakpoints) if lo < b < hi] + [hi]
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def _quad_complex(fn, lo, hi, points=None, **kw):
    opts = dict(epsabs=1e-12, epsrel=1e-11, limit=300)
    opts.update(kw)
    re, _ = integrate.quad(lambda t: fn(t).real, lo, hi, points=points, **opts)
    im, _ = integrate.quad(lambda t: fn(t).imag, lo, hi, points=points, **opts)
    return re + 1j * im


def _gamma_adaptive_one(atom: Atom, alpha: Symbol1D, xi: float) -> complex:
    if atom.case == "wavelet":
        if xi == 0.0:
            # fibers vanish at zero frequency for zero-mean atoms; the value
            # is excluded from the documented healthy range
            return 0.0
        a = abs(xi)
        s_lo, s_hi = atom.freq_support
        lo = max(s_lo / a, alpha.support[0], 1e-300)
        hi = min(s_hi / a, alpha.support[1])
        if not lo < hi:
            return 0.0
        if atom.name == "haar" and atom.freq_profile is not None:
            return _gamma_haar(atom, alpha, a, lo, hi)
        side = 1.0 if xi > 0 else -1.0

        def integrand(u):
            return complex(alpha(np.asarray([u]))[0]) * \
                abs(complex(atom.eval_freq(np.asarray([side * u * a]))[0])) ** 2 / u

        pts = [b for b in alpha.breakpoints if lo < b < hi] or None
        return _quad_complex(integrand, lo, hi, points=pts)

    t_lo, t_hi = atom.time_support
    lo = max(xi - t_hi, alpha.support[0])
    hi = min(xi - t_lo, alpha.support[1])
    if not lo < hi:
        return 0.0

    def integrand(q):
        return complex(alpha(np.asarray([q]))[0]) * \
            abs(complex(atom.eval_time(np.asarray([xi - q]))[0])) ** 2

    pts = [b for b in alpha.breakpoints if lo < b < hi] or None
    return _quad_complex(integrand, lo, hi, points=pts)


def _gamma_haar(atom: Atom, alpha: Symbol1D, a: float, lo: float,
                hi: float) -> complex:
    """Oscillation-aware quadrature of alpha(u)|haar_hat(u a)|^2 / u.

    Below a few oscillation periods the integrand is quadratured directly.
    Above, sin^4(pi u a/2) is expanded into a monotone piece plus two
    cosine-weighted pieces; expanding everywhere would subtract huge u^-3
    integrals whose cancellation destroys the small-u contribution.
    """
    c2 = atom.normalization ** 2
    pref = 4.0 * c2 / (np.pi ** 2 * a ** 2)
    split = min(hi, max(lo, 8.0 / a))

    def direct(u):
        s = u * a
        return complex(alpha(np.asarray([u]))[0]) * \
            np.sin(np.pi * s / 2.0) ** 4 / u ** 3

    def base(u):
        return complex(alpha(np.asarray([u]))[0]) / u ** 3

    total = 0.0 + 0.0j
    if split > lo:
        pts = [b for b in alpha.breakpoints if lo < b < split] or None
        total += _quad_complex(direct, lo, split, points=pts, limit=400)
    for seg_lo, seg_hi in _segments(split, hi, alpha.breakpoints):
        if seg_hi <= seg_lo:
            continue
        i0 = _quad_complex(base, seg_lo, seg_hi)
        i1 = _quad_cos_complex(base, seg_lo, seg_hi, np.pi * a)
        i2 = _quad_cos_complex(base, seg_lo, seg_hi, 2.0 * np.pi * a)
        total += 0.375 * i0 - 0.5 * i1 + 0.125 * i2
    return pref * total


def _quad_cos_complex(fn, lo, hi, wvar) -> complex:
    re, _ = integrate.quad(lambda t: fn(t).real, lo, hi, weight="cos",
                           wvar=wvar, epsabs=1e-12, limit=400)
    im, _ = integrate.quad(lambda t: fn(t).imag, lo, hi, weight="cos",
                           wvar=wvar, epsabs=1e-12, limit=400)
    return re + 1j * im


# -- spectrum read-off -----------------------------------------------------------

def spectrum_from_gamma(gf: GammaFunction,
                        real_symbol: bool | None = None) -> SpectrumReport:
    """Spectrum approximation from the sampled diagonal symbol.

    The sampled range approximates the spectrum; for real symbols the
    interval [min, max] is reported as well, and sup |gamma| estimates the
    operator norm (the operator is bounded iff gamma is).
    """
    real = gf.is_real if real_symbol is None else real_symbol
    vals = gf.values.real if real else gf.values
    interval = (float(np.min(vals.real)), float(np.max(vals.real))) if real else None
    return SpectrumReport(
        values=np.array(vals), source="gamma", is_real=real,
        norm_estimate=float(np.max(np.abs(vals))), interval=interval,
        unbounded=gf.unbounded)


def boundedness_verdict(reports: list[SpectrumReport],
                        growth_factor: float = 1.5) -> str:
    """Boundedness verdict from norm estimates over nested sampled ranges.

    Norm estimates that keep growing as the sampled frequency range widens
    indicate an operator that is unbounded on the full line even though each
    finite sampling is finite.
    """
    sups = [r.norm_estimate for r in reports]
    if any(r.unbounded or not math.isfinite(s) for r, s in zip(reports, sups)):
        return "unbounded on sampled range"
    if len(sups) >= 2 and all(b > growth_factor * a
                              for a, b in zip(sups, sups[1:])):
        return "unbounded on sampled range"
    return f"bounded on sampled range (sup={max(sups):.6g})"


# -- two-point kernels ------------------------------------------------------------

def _fiber_overlap(atom: Atom, w: np.ndarray, xi_grid: LineGrid) -> np.ndarray:
    """First-coordinate quadrature of w * conj(ell(., xi_i)) * ell(., xi_j)."""
    L = atom.ell_matrix(xi_grid.samples)
    return (np.conj(L) * w[:, None]).T @ L


def overlap_kernel(atom: Atom, xi_grid: LineGrid) -> KernelMatrix:
    """Fiber overlap kernel: quadrature of ell(r, omega) conj(ell(r, xi)).

    Hermitian with unit diagonal on the healthy range (the diagonal is the
    fiber norm).  Entry [i, j] pairs xi = xi_i with omega = xi_j.
    """
    vals = _fiber_overlap(atom, atom.g1.measure_weights, xi_grid)
    return KernelMatrix(xi_grid, vals, "overlap", atom.name,
                        check_hermitian=True)


def weighted_overlap_kernel(atom: Atom, alpha: Symbol1D,
                            xi_grid: LineGrid) -> KernelMatrix:
    """Symbol-weighted overlap kernel; its diagonal is the grid-rule gamma."""
    w = atom.g1.measure_weights * _symbol_on_nodes(atom, alpha)
    vals = _fiber_overlap(atom, w, xi_grid)
    return KernelMatrix(xi_grid, vals, "weighted_overlap", atom.name,
                        symbol_descriptor=alpha.descriptor,
                        check_hermitian=alpha.is_real)
