"""Batched adaptive Gauss-Kronrod quadrature, the package's one adaptive rule:
the adaptive ``kernels.gamma`` and the atoms' admissibility, normalization
and unit-norm checks integrate with ``gauss_kronrod``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_kronrod"]

# QUADPACK's qk21 rule: the 21-point Kronrod extension of the 10-point Gauss
# rule, nodes on [-1, 1] listed from -1 to 1.  Per panel, K21 is the value
# and K21 - G10 (rescaled as in QUADPACK) the error estimate.

GK_EPSABS = 1e-12
GK_EPSREL = 1e-11
GK_LIMIT = 300            # panels per integral (QUADPACK's ``limit``)
GK_MAX_POINTS = 16_384    # points per integrand evaluation, pieces per pass

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


def _kronrod_panels(F: np.ndarray, half: np.ndarray):
    """K21 values and QUADPACK error estimates of panels, one column per
    part: F is (panels, parts, 21) real, results (panels, parts)."""
    resk = np.sum(F * _WK21, axis=-1)
    diff = np.abs(resk - np.sum(F * _WG10, axis=-1))
    resasc = np.sum(_WK21 * np.abs(F - 0.5 * resk[..., None]), axis=-1)
    resabs = np.sum(_WK21 * np.abs(F), axis=-1)
    # 200 * diff may overflow: min(1, inf) is the 1 the estimate needs; so
    # may the estimate times the half width, and an infinite panel
    # estimate is bisected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (diff != 0.0), scaled, diff)
        err = np.maximum(50.0 * _EPS * resabs, err)
        return resk * half[:, None], err * half[:, None]


def _sum_by(index: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Column sums of (k, 2) values grouped by index, in array order."""
    return np.stack([np.bincount(index, values[:, c], minlength=count)
                     for c in (0, 1)], axis=1)


def gauss_kronrod(integrand, lo: np.ndarray, hi: np.ndarray, describe):
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
        val = np.zeros((a.size, 2))
        err = np.zeros((a.size, 2))
        for s in range(0, a.size, per_call):
            sl = slice(s, s + per_call)
            t = mid[sl, None] + half[sl, None] * _NODES
            jj = np.repeat(j[sl], _NODES.size)
            f = np.asarray(integrand(t.ravel(), jj)).reshape(t.shape)
            if not np.all(np.isfinite(f)):
                bad = jj[np.flatnonzero(~np.isfinite(f.ravel()))[0]]
                raise ValueError(f"{describe(bad)}: integrand is not finite")
            # a real integrand is one part: its imaginary column stays zero,
            # which is what a part of zeros would give
            F = (np.stack([f.real, f.imag], axis=1) if np.iscomplexobj(f)
                 else f[:, None])
            p = F.shape[1]
            val[sl, :p], err[sl, :p] = _kronrod_panels(F, half[sl])
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
