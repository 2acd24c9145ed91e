"""Fourier transform in the unitary 2*pi-in-exponent convention.

Forward transform: F{f}(xi) = integral f(x) exp(-2*pi*i*x*xi) dx, inverse
with the opposite sign.  With this convention exp(-pi*x^2) is a fixed point
and the transform is an exact isometry of the Riemann-sum L2 norms, for any
grid placement: the discrete map reduces to a DFT sandwiched between
unit-modulus phase diagonals.  The phases are taken from their arguments in
turns (``_cis``), so each is exact at quarter turns and within about one
rounding error of the argument it is given elsewhere, however many turns
that argument spans.  The arguments are products of grid parameters, exact
on the builders' centred power-of-two grids, where every phase is a whole
number of half turns, +-1 exactly.  On other grids (odd n, off-centre
windows) the product's own rounding, up to about n*eps turns, still reaches
the phase.

``_sandwich`` is the one implementation of that map, on the rows of a 2-D
array: ``fourier`` applies it to one row, ``fields._stream`` to blocks of
phase-plane rows (the axis-2 transforms) and ``operators.build_direct`` to
the rows of its lag generators.
"""

from __future__ import annotations

import numpy as np

from .grids import LineGrid, SampledFunction, induced_grid

__all__ = ["fourier"]


def _check_compatible(in_grid: LineGrid, out_grid: LineGrid):
    if out_grid.count != in_grid.count:
        raise ValueError("output grid must have the same sample count")
    if abs(out_grid.step * in_grid.step * in_grid.count - 1.0) > 1e-9:
        raise ValueError(
            "output grid step must be 1/(count*step) of the input grid"
        )


def fourier(f: SampledFunction, sign: str = "forward",
            out_grid: LineGrid | None = None) -> SampledFunction:
    """Continuous Fourier transform of a sampled function.

    Parameters
    ----------
    f : SampledFunction
    sign : "forward" (kernel exp(-2*pi*i*x*xi)) or "inverse" (opposite sign).
    out_grid : optional target grid; must have the induced step.  Defaults to
        the centered induced grid, which makes forward/inverse round trips on
        centered grids return the original sampling exactly.
    """
    if sign not in ("forward", "inverse"):
        raise ValueError(f"sign must be 'forward' or 'inverse', got {sign!r}")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("input contains non-finite values")
    grid = f.grid
    out = induced_grid(grid) if out_grid is None else out_grid
    _check_compatible(grid, out)

    return SampledFunction(out,
                           _sandwich(grid, sign, out)(f.values[None, :])[0])


# i^q for q mod 4: multiplying by one of them is exact
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _cis(turns: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*t) for every t in ``turns``, exact at quarter turns.

    t splits exactly into its nearest quarter turn q/4 and a remainder
    r = t - q/4 with |r| <= 1/8 (4t, its rounding and the difference are
    exact in binary floating point), and the value is i^q (cos 2 pi r +
    i sin 2 pi r).  So t and t + k give the same bits for every integer k,
    a quarter turn gives +-1 or +-i exactly, and elsewhere the error is
    about one rounding error whatever the size of t.  An error already in t
    (a rounded product) passes through unchanged.
    """
    t4 = 4.0 * np.asarray(turns, dtype=float)
    q = np.rint(t4)
    t4 -= q
    t4 *= 0.5 * np.pi
    z = np.empty(t4.shape, dtype=complex)
    np.cos(t4, out=z.real)
    np.sin(t4, out=z.imag)
    z *= _QUARTER_TURNS[q.astype(np.int64) & 3]
    return z


def _sandwich(in_grid: LineGrid, sign: str, out_grid: LineGrid):
    """The 1-D continuous Fourier transform from ``in_grid`` to ``out_grid``
    as a function ``apply(values, out=None)`` of a 2-D array of rows.

    The two phase diagonals are formed here, once, and every ``apply``
    call reuses them: a caller streaming blocks of rows pays for them once.
    ``apply`` pre-phases, transforms and post-phases in one array: a new
    one, leaving ``values`` unchanged, or ``out``.  ``out=values``
    transforms a complex C-contiguous array the caller owns in place, with
    the same bits and no second array of its size.  Both phase diagonals
    come from ``_cis`` of their arguments in turns, so they are exact at
    quarter turns: on centred power-of-two grids, the builders' grids,
    in_grid.step * out_grid.start is exactly -1/2 and every factor is +-1.
    Elsewhere the arguments are rounded products, off by up to about n*eps
    turns, and the factors carry that error.
    """
    n = in_grid.count
    sgn = -1.0 if sign == "forward" else 1.0
    j = np.arange(n)
    # out_k = step * e^{sgn*2pi*i*start*xi_k} * DFT_k[ f_j * e^{sgn*2pi*i*j*step*out.start} ]
    pre = _cis(sgn * (in_grid.step * out_grid.start * j))
    post = in_grid.step * _cis(sgn * (in_grid.start * out_grid.samples))

    def apply(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        core = np.multiply(values, pre[None, :], out=out)
        if sgn < 0:
            np.fft.fft(core, axis=1, out=core)
        else:
            np.fft.ifft(core, axis=1, out=core)
            core *= n
        return np.multiply(post, core, out=core)

    return apply

