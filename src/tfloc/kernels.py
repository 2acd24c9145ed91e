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
* ``rule="adaptive"`` -- adaptive Gauss-Kronrod quadrature of the defining
  integral over the atom's effective support, split at the symbol's
  breakpoints, with all frequencies of one call integrated together.
  Continuum-accurate (epsabs 1e-12, epsrel 1e-11 per piece; the largest
  per-frequency error estimate is kept as ``GammaFunction.abserr``); used
  wherever closed-form oracles are quoted.  Symbol jumps must be listed as
  breakpoints: unlisted ones exhaust the panel cap and raise
  ``ArithmeticError``.  The two rules differ by O(step) at indicator edges
  (~1e-4 at the default grids), inside every operator-level tolerance.

The Gabor case additionally admits ``rule="fft"``: the grid rule evaluated
as one FFT convolution of the symbol samples with the squared window.

The two-point overlap kernels generalize the same quadrature to pairs of
frequencies and feed the integral and compound-symbol operator builders.
They are the integral kernels of those forms, so they are returned as the
same dense record, ``OperatorMatrix``, that the builders return (it lives
here because ``operators`` imports this module).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, signal

from .atoms import Atom, Fibers, quad_cos
from .grids import LineGrid
from .symbols import Symbol1D

__all__ = [
    "GammaFunction",
    "OperatorMatrix",
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
                 is_real: bool | None = None, abserr: float | None = None):
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
        # largest per-xi quadrature error estimate (adaptive rule only)
        self.abserr = abserr

    def __repr__(self):
        return (f"GammaFunction({self.atom_name}, {self.symbol_descriptor}, "
                f"rule={self.rule})")


class OperatorMatrix:
    """Dense operator over a frequency window, with builder provenance.

    ``lowrank_rank`` and ``lowrank_tail`` are set by ``build_direct``: the
    rank of the symbol-field factorization it assembled from and the
    Frobenius tail it dropped, relative to the field's norm.  Other builders
    leave them ``None``.
    """

    def __init__(self, grid: LineGrid, values, builder: str, atom_name: str,
                 symbol_descriptor: str, symbol_is_real: bool | None = None,
                 lowrank_rank: int | None = None,
                 lowrank_tail: float | None = None):
        values = np.asarray(values, dtype=complex)
        n = grid.count
        if values.shape != (n, n):
            raise ValueError(f"operator must be {n}x{n}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("operator contains non-finite entries")
        scale = float(np.max(np.abs(values))) or 1.0
        dev = float(np.max(np.abs(values - values.conj().T)))
        self.is_hermitian = dev <= 1e-8 * max(1.0, scale)
        if symbol_is_real and not self.is_hermitian:
            raise ValueError(
                f"real symbol produced a non-Hermitian matrix (dev {dev:.2e})")
        self.grid = grid
        self.values = values
        self.builder = builder
        self.atom_name = atom_name
        self.symbol_descriptor = symbol_descriptor
        self.lowrank_rank = lowrank_rank
        self.lowrank_tail = lowrank_tail

    def __repr__(self):
        return (f"OperatorMatrix({self.builder}, {self.atom_name}, "
                f"{self.symbol_descriptor}, n={self.grid.count})")


@dataclass
class SpectrumReport:
    """Sampled spectrum approximation with norm and boundedness readout."""

    values: np.ndarray
    is_real: bool
    norm_estimate: float
    interval: tuple[float, float] | None = None
    unbounded: bool = False
    caveat: str = "spectrum and norm are reported from the sampled range only"
    hausdorff: float | None = None


# -- gamma ---------------------------------------------------------------------

def gamma(atom: Atom, alpha: Symbol1D, xi_grid: LineGrid,
          rule: str = "grid", *,
          fibers: Fibers | None = None) -> GammaFunction:
    """First-coordinate average of alpha against the squared fiber profile.

    Wavelet case: integral alpha(u) |psi_hat(u xi)|^2 du/u.
    Gabor case:   integral alpha(q) |phi(xi - q)|^2 dq.

    ``rule="adaptive"`` integrates every (xi, breakpoint segment) piece with
    one batched adaptive Gauss-Kronrod (G10/K21) pass to epsabs 1e-12,
    epsrel 1e-11 per piece, and records the largest per-xi error estimate as
    ``abserr``.  A piece that needs more than ``GK_LIMIT`` panels -- typically
    a symbol with jumps not listed as breakpoints -- raises
    ``ArithmeticError``.  The haar wavelet uses scipy's QUADPACK instead
    (oscillatory split); a QUADPACK call that does not converge raises
    ``ArithmeticError`` as well.

    ``fibers`` is the atom's record on ``xi_grid``, which the grid rule
    reads instead of building its own; the other rules evaluate no fiber
    matrix and reject it.
    """
    if rule not in ("grid", "adaptive", "fft"):
        raise ValueError(f"unknown rule {rule!r}")
    if fibers is not None and rule != "grid":
        raise ValueError(f"fibers= applies to the grid rule, not {rule!r}")
    xs = xi_grid.samples
    abserr = None
    if rule == "grid":
        vals = _gamma_grid(atom, alpha, Fibers.on(atom, xi_grid, fibers))
    elif rule == "fft":
        if atom.case != "gabor":
            raise ValueError("the fft rule applies to the gabor case only")
        vals = _gamma_fft(atom, alpha, xi_grid)
    else:
        vals, abserr = _gamma_adaptive(atom, alpha, xs)
    finite = np.isfinite(vals)
    if not np.all(finite):
        raise ValueError(f"gamma for {alpha.descriptor} is not finite on the grid")
    unbounded = bool(np.max(np.abs(vals)) > OVERFLOW_GUARD)
    gf = GammaFunction(xi_grid, vals, atom.name, alpha.descriptor, rule,
                       unbounded=unbounded, is_real=alpha.is_real,
                       abserr=abserr)
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


def _gamma_grid(atom: Atom, alpha: Symbol1D, fibers: Fibers) -> np.ndarray:
    a_vals = _symbol_on_nodes(atom, alpha)
    L2 = np.abs(fibers.conj_ell)
    L2 *= L2
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


def _gamma_adaptive(atom: Atom, alpha: Symbol1D,
                    xs: np.ndarray) -> tuple[np.ndarray, float]:
    """Adaptive-rule gamma on xs and the largest per-xi error estimate.

    The integration range of each xi is the window (gabor) or the scaled
    wavelet band (wavelet) clipped to the symbol's support, split at the
    symbol's breakpoints; every (xi, segment) integral of the call goes
    through one batched Gauss-Kronrod pass.  The haar wavelet keeps its
    per-xi oscillatory split (``_gamma_haar``).
    """
    a_lo, a_hi = alpha.support
    if atom.case == "wavelet":
        ax = np.abs(xs)
        s_lo, s_hi = atom.freq_support
        with np.errstate(divide="ignore"):
            lo = np.maximum(np.maximum(s_lo / ax, a_lo), 1e-300)
            hi = np.minimum(s_hi / ax, a_hi)
        # fibers vanish at zero frequency for zero-mean atoms; the value is
        # excluded from the documented healthy range
        live = (xs != 0.0) & (lo < hi)
    else:
        t_lo, t_hi = atom.time_support
        lo = np.maximum(xs - t_hi, a_lo)
        hi = np.minimum(xs - t_lo, a_hi)
        live = lo < hi

    out = np.zeros(xs.size, dtype=complex)
    if atom.case == "wavelet" and atom.name == "haar" \
            and atom.freq_profile is not None:
        err = np.zeros(xs.size)
        # QUADPACK only warns when it gives up: raise, as the batched rule does
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            for i in np.flatnonzero(live):
                try:
                    out[i], err[i] = _gamma_haar(atom, alpha, abs(float(xs[i])),
                                                 float(lo[i]), float(hi[i]))
                except integrate.IntegrationWarning as exc:
                    raise ArithmeticError(
                        f"gamma of {alpha.descriptor} at xi={xs[i]:.17g}: "
                        "adaptive quadrature did not converge (QUADPACK: "
                        f"{' '.join(str(exc).split()).split('. ')[0]})") from exc
        return out, float(np.max(err, initial=0.0))

    # segment edges per xi: the breakpoints clipped into [lo, hi]; clipped
    # duplicates give empty segments, which are dropped
    bps = np.sort(np.asarray(alpha.breakpoints, dtype=float))
    edges = np.column_stack([lo, np.clip(bps[None, :], lo[:, None],
                                         hi[:, None]), hi])
    seg_lo, seg_hi = edges[:, :-1], edges[:, 1:]
    owner, col = np.nonzero(live[:, None] & (seg_hi > seg_lo))
    if owner.size == 0:
        return out, 0.0
    xi = xs[owner]

    if atom.case == "wavelet":
        def integrand(u, j):
            return alpha(u) * np.abs(atom.eval_freq(xi[j] * u)) ** 2 / u
    else:
        def integrand(q, j):
            return alpha(q) * np.abs(atom.eval_time(xi[j] - q)) ** 2

    def describe(j):
        return f"gamma of {alpha.descriptor} at xi={xi[j]:.17g}"

    vals, errs = _gauss_kronrod(integrand, seg_lo[owner, col],
                                seg_hi[owner, col], describe)
    n = xs.size
    out = (np.bincount(owner, vals.real, minlength=n)
           + 1j * np.bincount(owner, vals.imag, minlength=n))
    err = np.bincount(owner, errs, minlength=n)
    return out, float(np.max(err))


# -- batched adaptive Gauss-Kronrod ---------------------------------------------
#
# QUADPACK's qk21 rule: the 21-point Kronrod extension of the 10-point Gauss
# rule, nodes on [-1, 1] listed from -1 to 1.  Per panel, K21 is the value
# and K21 - G10 (rescaled as in QUADPACK) the error estimate.

GK_EPSABS = 1e-12
GK_EPSREL = 1e-11
GK_LIMIT = 300            # panels per integral (QUADPACK's ``limit``)
GK_MAX_POINTS = 65_536    # points per integrand evaluation

_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067521920, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG10 = np.zeros(21)
_WG10[1:10:2] = _WG          # the Gauss nodes are every other Kronrod node
_WG10[19:10:-2] = _WG
_EPS = 2.0 ** -52            # double-precision machine epsilon


def _kronrod_panels(f: np.ndarray, half: np.ndarray):
    """K21 values and QUADPACK error estimates of panels, real and imaginary
    parts separately: f is (panels, 21) complex, results (panels, 2)."""
    F = np.stack([f.real, f.imag], axis=1)
    resk = np.sum(F * _WK21, axis=-1)
    diff = np.abs(resk - np.sum(F * _WG10, axis=-1))
    resasc = np.sum(_WK21 * np.abs(F - 0.5 * resk[..., None]), axis=-1)
    resabs = np.sum(_WK21 * np.abs(F), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (diff != 0.0), scaled, diff)
    err = np.maximum(50.0 * _EPS * resabs, err)
    return resk * half[:, None], err * half[:, None]


def _sum_by(index: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Column sums of (k, 2) values grouped by index, in array order."""
    return np.stack([np.bincount(index, values[:, c], minlength=count)
                     for c in (0, 1)], axis=1)


def _gauss_kronrod(integrand, lo: np.ndarray, hi: np.ndarray, describe):
    """Adaptive G10/K21 quadrature of many integrals at once.

    ``integrand(t, j)`` evaluates integral j[k] at t[k] (flat arrays, at most
    ``GK_MAX_POINTS`` long).  All unfinished panels of all integrals are
    evaluated together each round.  Integral j finishes when its summed error
    estimate is within max(GK_EPSABS, GK_EPSREL |estimate|) (real and
    imaginary parts separately); until then a panel is accepted when its own
    estimate is within its width share of that tolerance, and bisected
    otherwise.  Accepted panels are summed per round with ``np.bincount``, so
    the result does not depend on anything but the inputs.  An integral that
    would need more than ``GK_LIMIT`` panels raises ``ArithmeticError``
    naming ``describe(j)``.

    Returns the integrals and their error estimates (sum over panels of the
    real and imaginary estimates).
    """
    count = lo.size
    width = hi - lo
    acc_val = np.zeros((count, 2))
    acc_err = np.zeros((count, 2))
    panels = np.ones(count, dtype=np.intp)
    a, b, j = lo, hi, np.arange(count)
    per_call = GK_MAX_POINTS // _NODES.size
    while a.size:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        val = np.empty((a.size, 2))
        err = np.empty((a.size, 2))
        for s in range(0, a.size, per_call):
            sl = slice(s, s + per_call)
            t = mid[sl, None] + half[sl, None] * _NODES
            jj = np.repeat(j[sl], _NODES.size)
            f = np.asarray(integrand(t.ravel(), jj)).reshape(t.shape)
            if not np.all(np.isfinite(f)):
                bad = jj[np.flatnonzero(~np.isfinite(f.ravel()))[0]]
                raise ValueError(f"{describe(bad)}: integrand is not finite")
            val[sl], err[sl] = _kronrod_panels(f, half[sl])
        est = acc_val + _sum_by(j, val, count)
        tol = np.maximum(GK_EPSABS, GK_EPSREL * np.abs(est))
        finished = np.all(acc_err + _sum_by(j, err, count) <= tol, axis=1)
        share = ((b - a) / width[j])[:, None]
        ok = finished[j] | np.all(err <= tol[j] * share, axis=1)
        acc_val += _sum_by(j[ok], val[ok], count)
        acc_err += _sum_by(j[ok], err[ok], count)
        a, mid, b, j = a[~ok], mid[~ok], b[~ok], j[~ok]
        panels += np.bincount(j, minlength=count)
        if np.any(panels > GK_LIMIT):
            k = int(np.flatnonzero(panels > GK_LIMIT)[0])
            left = (acc_err + _sum_by(j, err[~ok], count))[k].sum()
            raise ArithmeticError(
                f"{describe(k)}: adaptive quadrature did not converge within "
                f"{GK_LIMIT} panels (error estimate {left:.2e}, tolerance "
                f"{tol[k].max():.2e}); list the symbol's discontinuities as "
                "breakpoints")
        a, b, j = (np.concatenate([a, mid]), np.concatenate([mid, b]),
                   np.concatenate([j, j]))
    return acc_val[:, 0] + 1j * acc_val[:, 1], acc_err.sum(axis=1)


def _segments(lo: float, hi: float, breakpoints) -> list[tuple[float, float]]:
    pts = [lo] + [b for b in sorted(breakpoints) if lo < b < hi] + [hi]
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def _quad_complex(fn, lo, hi, points=None, limit=300) -> tuple[complex, float]:
    re, e_re = integrate.quad(lambda t: fn(t).real, lo, hi, points=points,
                              epsabs=1e-12, epsrel=1e-11, limit=limit)
    im, e_im = integrate.quad(lambda t: fn(t).imag, lo, hi, points=points,
                              epsabs=1e-12, epsrel=1e-11, limit=limit)
    return re + 1j * im, e_re + e_im


def _gamma_haar(atom: Atom, alpha: Symbol1D, a: float, lo: float,
                hi: float) -> tuple[complex, float]:
    """Oscillation-aware quadrature of alpha(u)|haar_hat(u a)|^2 / u.

    Below a few oscillation periods the integrand is quadratured directly.
    Above, sin^4(pi u a/2) is expanded into a monotone piece plus two
    cosine-weighted pieces; expanding everywhere would subtract huge u^-3
    integrals whose cancellation destroys the small-u contribution.
    Returns the value and the combined scipy error estimate.
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

    total, err = 0.0 + 0.0j, 0.0
    if split > lo:
        pts = [b for b in alpha.breakpoints if lo < b < split] or None
        v, e = _quad_complex(direct, lo, split, points=pts, limit=400)
        total += v
        err += e
    for seg_lo, seg_hi in _segments(split, hi, alpha.breakpoints):
        if seg_hi <= seg_lo:
            continue
        i0, e0 = _quad_complex(base, seg_lo, seg_hi)
        i1, e1 = quad_cos(base, seg_lo, seg_hi, np.pi * a, epsabs=1e-12)
        i2, e2 = quad_cos(base, seg_lo, seg_hi, 2.0 * np.pi * a, epsabs=1e-12)
        total += 0.375 * i0 - 0.5 * i1 + 0.125 * i2
        err += 0.375 * e0 + 0.5 * e1 + 0.125 * e2
    return pref * total, pref * err


# -- spectrum read-off -----------------------------------------------------------

def spectrum_from_gamma(gf: GammaFunction) -> SpectrumReport:
    """Spectrum approximation from the sampled diagonal symbol.

    The sampled range approximates the spectrum; for real symbols the
    interval [min, max] is reported as well, and sup |gamma| estimates the
    operator norm (the operator is bounded iff gamma is).
    """
    real = gf.is_real
    vals = gf.values.real if real else gf.values
    interval = (float(np.min(vals.real)), float(np.max(vals.real))) if real else None
    return SpectrumReport(
        values=np.array(vals), is_real=real,
        norm_estimate=float(np.max(np.abs(vals))), interval=interval,
        unbounded=gf.unbounded)


def boundedness_verdict(reports: list[SpectrumReport]) -> str:
    """Boundedness verdict from norm estimates over nested sampled ranges.

    Norm estimates that keep growing (each more than 1.5 times the last) as
    the sampled frequency range widens indicate an operator that is
    unbounded on the full line even though each finite sampling is finite.
    """
    sups = [r.norm_estimate for r in reports]
    if any(r.unbounded or not math.isfinite(s) for r, s in zip(reports, sups)):
        return "unbounded on sampled range"
    if len(sups) >= 2 and all(b > 1.5 * a
                              for a, b in zip(sups, sups[1:])):
        return "unbounded on sampled range"
    return f"bounded on sampled range (sup={max(sups):.6g})"


# -- two-point kernels ------------------------------------------------------------

def _fiber_overlap(atom: Atom, w: np.ndarray, xi_grid: LineGrid) -> np.ndarray:
    """First-coordinate quadrature of w * conj(ell(., xi_i)) * ell(., xi_j)."""
    L = atom.ell_matrix(xi_grid.samples)
    return (np.conj(L) * w[:, None]).T @ L


def overlap_kernel(atom: Atom, xi_grid: LineGrid) -> OperatorMatrix:
    """Fiber overlap kernel: quadrature of ell(r, omega) conj(ell(r, xi)).

    Hermitian with unit diagonal on the healthy range (the diagonal is the
    fiber norm).  Entry [i, j] pairs xi = xi_i with omega = xi_j.
    """
    vals = _fiber_overlap(atom, atom.g1.measure_weights, xi_grid)
    return OperatorMatrix(xi_grid, vals, "overlap", atom.name, "const:1",
                          symbol_is_real=True)


def weighted_overlap_kernel(atom: Atom, alpha: Symbol1D,
                            xi_grid: LineGrid) -> OperatorMatrix:
    """Symbol-weighted overlap kernel; its diagonal is the grid-rule gamma."""
    w = atom.g1.measure_weights * _symbol_on_nodes(atom, alpha)
    vals = _fiber_overlap(atom, w, xi_grid)
    return OperatorMatrix(xi_grid, vals, "weighted_overlap", atom.name,
                          alpha.descriptor, symbol_is_real=alpha.is_real)
