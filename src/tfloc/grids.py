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

Grids are immutable after construction, their arrays read-only; everything
downstream treats them as value objects.  A grid is built with its count of
finite nodes and weights or not at all: a count below 2 or not a whole
number, samples that overflow, or a ``ScaleGrid`` whose log ratio
ln(u_max/u_min) is not finite or whose measure weights overflow
(``ScaleGrid(1e-320, 1.0, 4)``, ``ScaleGrid(1.0, inf, 4)``) raise
``ValueError``, with no warning.

First-axis actions
------------------
The Calderon (wavelet) and Gabor (window) cases are one construction: an
atom moves over the first phase-plane coordinate z either by dilation, with
the profile argument z xi, or by translation, with the argument xi - z, and
one reproducing formula holds for both.  ``DILATION`` and ``TRANSLATION``
state that choice once, as frozen values.  This table is the one home of
the facts they hold; every other module reads them as an attribute or a
method of ``atom.action`` (``Atom.action``), and the CLI and the sidecars
write the ``case`` string.

=================  ===============================  ========================
fact               ``DILATION``                     ``TRANSLATION``
=================  ===============================  ========================
``case``           "wavelet"                        "gabor"
``grid``           ``ScaleGrid`` (``kind`` scale)   ``LineGrid`` (line)
``default_g1``     2^-8..2^8, 512 nodes: 32 per     [-16, 16), 512 nodes
                   octave, so a profile band-
                   limited to octaves integrates
                   exactly
``describe``       "scales [lo, hi]"                "translations [lo, hi)"
``fiber_block``    sqrt(z) conj(psi_hat(z w))       conj(phi(w - z))
``profile``        ``Atom.eval_freq``               ``Atom.eval_time``
``density``        |psi_hat(t)|^2 / t               |phi(t)|^2
``panel_cuts``     powers of 2                      integers
table argument     z |xi|, rows xi != 0 only        xi - z, every row
table difference   P(b |xi|) - P(a |xi|)            P(xi - a) - P(xi - b)
``coordinate``     z = t / |xi|, at least           z = xi - t
                   ``floor`` = 1e-300
gamma integrand    a(z) |psi_hat(xi z)|^2 / z       a(z) |phi(xi - z)|^2
``even``           True: one sign of xi serves      False
                   both (the atom is real), and
                   the table total is the
                   admissibility integral
``exact_lattice``  False                            True: w - z is exact on
                                                    a lattice grid
axis-2 signs       forward, then inverse            inverse, then forward
(forward,
backward)
``omega_side``     f_hat (back: inverse transform)  f (back: f)
``analysis_axis``  the signal's grid                its ``induced_grid``
``lattice_sign``   +1: beta_hat(+(xi - w))          -1: beta_hat(-(xi - w))
``operator_grid``  [2^-4, 2^-4 + 4), n points       [-8, 8), n points
``default_atom``   shannon                          gaussian
``default_cuts``   1.0 (the scale axis excludes 0)  0.0
=================  ===============================  ========================

The dilation's operator window sits on the positive healthy band: at xi = 0
the fibers vanish, and a window holding +-xi pairs couples mirrored bands
across the lattice period of the discrete transform (wrap-around), an
artifact the continuum operator does not have.  The axis-2 signs pair so
that analysis is the adjoint of the diagonalizing transform, and the
lattice sign follows from them: the compound phase is
exp(-2 pi i (x - y) xi) for a dilation and exp(+2 pi i (x - y) xi) for a
translation.  A record's column ``bands`` and the certificate's
``support_probes`` follow the argument: a block of nodes [z_min, z_max]
meets the support [lo, hi] on |w| in [lo / z_max, hi / z_min] or on w in
[z_min + lo, z_max + hi], and an even profile is probed on both signs.  An
imported atom (``io.import_atom``) takes its support and breakpoints from
its positive frequency nodes or its time grid (``imported_support``).

An action holds geometry only, as a grid does, and no route's assembly, so
the routes that read it stay independent (``tests/test_routes.py``).
``action_of(case)`` looks a case string up, once per atom and per field,
and raises ``ValueError`` for any other value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DILATION",
    "LineGrid",
    "ScaleGrid",
    "SampledFunction",
    "TRANSLATION",
    "action_of",
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
    """Uniform grid x_j = start + j*step, j = 0..count-1.  ``kind`` names
    the grid kind and ``params`` its constructor's parameters, in order, as
    an atom sidecar writes them (``io.export_atom``)."""

    kind, params = "line", ("start", "step", "count")

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
        for a in (self.samples, self.measure_weights):
            a.flags.writeable = False

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
    against the hyperbolic measure u^{-2} du.  ``kind`` and ``params`` as
    on ``LineGrid``.
    """

    kind, params = "scale", ("u_min", "u_max", "count")

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
        for a in (self.nodes, self.weights, self.measure_weights):
            a.flags.writeable = False

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
        float64 when the imaginary part is zero, complex128 otherwise.  The
        one interpolator of stored samples: imported atoms and ``sampled:``
        symbols read their samples through it."""
        x = np.asarray(x, dtype=float)
        xs, v = self.grid.samples, self.values
        re = np.interp(x, xs, v.real, left=0.0, right=0.0)
        if not v.imag.any():
            return re
        return re + 1j * np.interp(x, xs, v.imag, left=0.0, right=0.0)

    def __repr__(self):
        return f"SampledFunction({self.grid!r})"



class _Action:
    """A first-axis action, ``DILATION`` or ``TRANSLATION``: a frozen value
    whose attributes and one-line methods are the facts of the module
    docstring's table, one per line."""

    __slots__ = ()

    def __repr__(self):
        return type(self).__name__[1:].upper()


class _Dilation(_Action):
    __slots__ = ()
    case, grid = "wavelet", ScaleGrid
    even, exact_lattice, lattice_sign, floor = True, False, 1, 1e-300
    axis2_forward, axis2_backward = "forward", "inverse"
    default_atom, default_cuts = "shannon", (1.0,)

    def profile(self, atom): return atom.eval_freq
    def density(self, atom, t): return atom.eval_power(t) / t
    def table_difference(self, P, i, j): return P[:, j] - P[:, i]
    def coordinate(self, t, xi): return t / np.abs(xi)
    def gamma_integrand(self, atom, a, z, xi): return a * atom.eval_power(xi * z) / z
    def imported_support(self, t, xi): return (1e-6, xi[-1]), xi[xi > 0]
    def analysis_axis(self, grid): return grid
    def operator_grid(self, n): return LineGrid(2.0 ** -4, 4.0 / n, n)
    def default_g1(self): return ScaleGrid(2.0 ** -8, 2.0 ** 8, 512)
    def describe(self, g1): return f"scales [{g1.u_min:g}, {g1.u_max:g}]"

    def fiber_block(self, atom, z, omegas, out):
        np.multiply(np.sqrt(z)[:, None],
                    atom.eval_freq(np.outer(z, omegas)).conj(), out=out)

    def panel_cuts(self, lo, hi):
        return np.exp2(np.arange(math.ceil(math.log2(lo)),
                                 math.floor(math.log2(hi)) + 1.0))

    def table_argument(self, xs, ends):
        live = xs != 0
        return live, np.abs(xs[live, None]) * ends

    def bands(self, lo, hi, z_min, z_max):
        inner = np.nextafter(lo / z_max, -np.inf)
        outer = np.nextafter(hi / z_min, np.inf)
        return (-outer, -inner), (inner, outer)

    def support_probes(self, lo, hi, below, above):
        s = [above, 2.0 * hi, 16.0 * hi]
        if lo > 0:
            s += [below, 0.5 * lo, 0.0]
        return s + [-x for x in s]

    def omega_side(self, f, back_to=None):
        from .fourier import fourier
        return (fourier(f, "forward") if back_to is None
                else fourier(f, "inverse", out_grid=back_to))


class _Translation(_Action):
    __slots__ = ()
    case, grid = "gabor", LineGrid
    even, exact_lattice, lattice_sign, floor = False, True, -1, -np.inf
    axis2_forward, axis2_backward = "inverse", "forward"
    default_atom, default_cuts = "gaussian", (0.0,)

    def profile(self, atom): return atom.eval_time
    def density(self, atom, t): return np.abs(atom.eval_time(t)) ** 2
    def table_difference(self, P, i, j): return P[:, i] - P[:, j]
    def coordinate(self, t, xi): return xi - t
    def gamma_integrand(self, atom, a, z, xi): return a * self.density(atom, xi - z)
    def imported_support(self, t, xi): return (t.start, t.stop), t.samples
    def analysis_axis(self, grid): return induced_grid(grid)
    def operator_grid(self, n): return LineGrid.centered(8.0, n)
    def default_g1(self): return LineGrid(-16.0, 32.0 / 512, 512)
    def describe(self, g1): return f"translations [{g1.start:g}, {g1.stop:g})"
    def table_argument(self, xs, ends): return slice(None), xs[:, None] - ends
    def omega_side(self, f, back_to=None): return f

    def fiber_block(self, atom, z, omegas, out):
        out[...] = atom.eval_time(omegas[None, :] - z[:, None]).conj()

    def panel_cuts(self, lo, hi):
        return np.arange(math.ceil(lo), math.floor(hi) + 1.0)

    def bands(self, lo, hi, z_min, z_max):
        return ((np.nextafter(z_min + lo, -np.inf),
                 np.nextafter(z_max + hi, np.inf)),)

    def support_probes(self, lo, hi, below, above):
        return [below, lo - 1.0, lo - 16.0, above, hi + 1.0, hi + 16.0]


DILATION, TRANSLATION = _Dilation(), _Translation()


def action_of(case) -> _Action:
    """The action whose ``case`` is ``case``; ``ValueError`` for any other
    value."""
    for action in (DILATION, TRANSLATION):
        if action.case == case:
            return action
    raise ValueError(f"unknown case {case!r}")
