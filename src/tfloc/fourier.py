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
array, and the one check that its two grids pair.  ``fourier`` applies it
to one row and ``operators.build_direct`` to the rows of its lag
generators: the pre-phase, the DFT core and the post-phase, which carries
the scale, each a pass over the array.
``fields._stream`` (the axis-2 transforms on blocks of phase-plane rows)
runs only the core on its blocks; the two diagonals depend on the column
alone, and it folds them into the n-vectors it applies anyway.  The
operator builders take an even real row's transform as exactly real
(``_Sandwich.real_where_even``); ``fourier`` and ``_stream`` do not.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _sandwich(in_grid: LineGrid, sign: str, out_grid: LineGrid) -> "_Sandwich":
    """The 1-D continuous Fourier transform from ``in_grid`` to ``out_grid``
    on the rows of a 2-D array, as a ``_Sandwich``: post * DFT(pre * x).

    The two phase diagonals are formed here, once, and every call reuses
    them: a caller streaming blocks of rows pays for them once.  Both come
    from ``_cis`` of their arguments in turns, so they are exact at quarter
    turns: on centred power-of-two grids, the builders' grids,
    in_grid.step * out_grid.start is exactly -1/2 and every factor is +-1.
    Elsewhere the arguments are rounded products, off by up to about n*eps
    turns, and the factors carry that error.  The scale in_grid.step rides
    on ``post``.  Grids the DFT cannot pair (another count, or a step
    other than 1/(count*step)) raise ``ValueError``.
    """
    _check_compatible(in_grid, out_grid)
    n = in_grid.count
    sgn = -1.0 if sign == "forward" else 1.0
    j = np.arange(n)
    # out_k = step * e^{sgn*2pi*i*start*xi_k} * DFT_k[ f_j * e^{sgn*2pi*i*j*step*out.start} ]
    pre = _cis(sgn * (in_grid.step * out_grid.start * j))
    post = in_grid.step * _cis(sgn * (in_grid.start * out_grid.samples))
    return _Sandwich(pre, post, sgn < 0)


@dataclass(frozen=True, eq=False)
class _Sandwich:
    """A DFT between two phase diagonals, the per-column vectors ``pre``
    and ``post`` (``post`` carries the input grid's step).

    Calling it applies post * core(pre * x) to the rows of ``values`` in
    a new array, leaving ``values`` unchanged.  A caller that keeps its
    own per-column vectors, as ``fields._stream`` does, folds ``pre`` and
    ``post`` into them and runs ``core`` alone.
    """

    pre: np.ndarray
    post: np.ndarray
    forward: bool  # the DFT's sign: e^{-2 pi i jk/n} when True

    def core(self, block: np.ndarray) -> np.ndarray:
        """The unscaled DFT of every row of ``block`` (complex,
        C-contiguous), in place: ``np.fft.fft``, or the inverse DFT times
        n, ``ifft(norm="forward")``, which never scales by 1/n."""
        if self.forward:
            return np.fft.fft(block, axis=1, out=block)
        return np.fft.ifft(block, axis=1, norm="forward", out=block)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        core = self.core(values * self.pre[None, :])
        return np.multiply(self.post, core, out=core)

    def real_where_even(self, values: np.ndarray) -> np.ndarray:
        """``self(values)`` with imaginary part +0 on each output row whose
        exact value is real: the DFT of a real row y = pre * x that is even
        mod n (y[j] == y[(n - j) mod n]) is real, so with a real ``post`` its
        imaginary part is rounding alone.  Real parts keep their bits.  An
        output with no imaginary part (a delta) skips the test."""
        out = self(values)
        if out.imag.any() and not self.post.imag.any():
            y = values * self.pre
            mirror = y[:, -np.arange(y.shape[1]) % y.shape[1]]
            out.imag[~y.imag.any(axis=1) & (y == mirror).all(axis=1)] = 0.0
        return out
