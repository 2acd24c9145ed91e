"""Sampling grids and sampled functions.

Two grid kinds cover every domain in the library:

* ``LineGrid`` -- uniform samples of an interval of the real line.  Used for
  signals, for the second phase-plane coordinate, and for the translation
  axis of window atoms.  Integration against it is a plain Riemann sum with
  weight ``step``.
* ``ScaleGrid`` -- log-uniform samples of a scale interval ``[u_min, u_max]``.
  Nodes sit at midpoints in ``t = ln u`` so the rule integrates ``du/u``
  exactly on constants; the scale measure ``u^{-2} du`` is obtained by an
  extra ``1/u`` factor per node.

Both kinds serve as the first phase-plane coordinate through one interface:
``nodes`` and ``measure_weights`` (``step`` each on a LineGrid, the
``u^{-2} du`` weights on a ScaleGrid).  First-coordinate quadrature uses only
these two and ``count``, never the grid kind.

Grids are immutable after construction; everything downstream treats them as
value objects.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LineGrid",
    "ScaleGrid",
    "SampledFunction",
    "induced_grid",
]


def _count(count, least: str) -> int:
    """``count`` as an int; ValueError below 2 (``least``) or not whole."""
    if not count >= 2:
        raise ValueError(f"{least}, got {count}")
    if not float(count).is_integer():
        raise ValueError(f"grid count {count} is not a whole number")
    return int(count)


class LineGrid:
    """Uniform grid x_j = start + j*step, j = 0..count-1."""

    def __init__(self, start: float, step: float, count: int):
        if not (step > 0 and math.isfinite(step) and math.isfinite(start)):
            raise ValueError(f"invalid grid: start={start}, step={step}")
        self.count = _count(count, "grid needs at least 2 samples")
        self.start = float(start)
        self.step = float(step)
        # an overflow is reported by the check below, not warned of
        with np.errstate(over="ignore"):
            self.samples = self.start + np.arange(self.count) * self.step
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("grid samples overflow")
        self.nodes = self.samples
        self.measure_weights = np.full(self.count, self.step)

    @property
    def stop(self) -> float:
        """One step past the last sample (right-open interval end)."""
        return self.start + self.count * self.step

    @classmethod
    def centered(cls, half_width: float, count: int) -> "LineGrid":
        """Grid on [-half_width, half_width) with ``count`` samples."""
        count = _count(count, "grid needs at least 2 samples")
        step = 2.0 * half_width / count
        return cls(-(count // 2) * step, step, count)

    def __repr__(self):
        return f"LineGrid(start={self.start:g}, step={self.step:g}, count={self.count})"


def induced_grid(grid: LineGrid) -> LineGrid:
    """Frequency grid induced by a time grid of the same length.

    Step is 1/(count*step); the grid is centered at zero.  Centered grids are
    their own second induced grid, so transform round trips return to the
    original sampling.
    """
    step = 1.0 / (grid.count * grid.step)
    return LineGrid(-(grid.count // 2) * step, step, grid.count)


class ScaleGrid:
    """Log-uniform quadrature grid for the positive scale axis.

    Nodes are midpoints in log-coordinates, u_k = u_min * exp((k+1/2)*dt)
    with dt = ln(u_max/u_min)/count.  ``weights`` integrate against du/u
    (all equal to dt, exact on constants); ``measure_weights`` integrate
    against the hyperbolic measure u^{-2} du.
    """

    def __init__(self, u_min: float, u_max: float, count: int):
        if not (0 < u_min < u_max):
            raise ValueError(f"need 0 < u_min < u_max, got [{u_min}, {u_max}]")
        self.count = _count(count, "scale grid needs at least 2 nodes")
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.log_step = math.log(self.u_max / self.u_min) / self.count
        k = np.arange(self.count)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.nodes = self.u_min * np.exp((k + 0.5) * self.log_step)
            self.weights = np.full(self.count, self.log_step)
            self.measure_weights = self.weights / self.nodes
        if not np.all(np.isfinite(self.measure_weights)):
            raise ValueError(f"scale grid [{u_min}, {u_max}] overflows")

    def __repr__(self):
        return f"ScaleGrid(u_min={self.u_min:g}, u_max={self.u_max:g}, count={self.count})"


class SampledFunction:
    """Complex-valued function sampled on a LineGrid; ``values`` is a
    read-only view of the checked samples (the caller's array stays
    writeable)."""

    def __init__(self, grid: LineGrid, values):
        values = np.asarray(values, dtype=complex).view()
        if values.shape != (grid.count,):
            raise ValueError(f"expected {grid.count} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled function contains non-finite values")
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    def norm(self) -> float:
        """L2 norm under the Riemann-sum measure of the grid."""
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.grid.step)

    def interp(self, x):
        """Linear interpolation between the samples, zero outside the grid:
        float64 when the imaginary part is zero, complex128 otherwise."""
        x = np.asarray(x, dtype=float)
        xs, v = self.grid.samples, self.values
        re = np.interp(x, xs, v.real, left=0.0, right=0.0)
        if not v.imag.any():
            return re
        return re + 1j * np.interp(x, xs, v.imag, left=0.0, right=0.0)

    def __repr__(self):
        return f"SampledFunction({self.grid!r})"
