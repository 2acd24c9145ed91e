"""Scalar symbols and two-point kernels of localization operators.

For a symbol depending only on the first phase-plane coordinate, the
localization operator diagonalizes: its action is multiplication by

    gamma(xi) = integral alpha(r) |ell(r, xi)|^2 dzeta_1(r),

the first-coordinate average of alpha against the unit-norm fiber profile.
gamma determines boundedness (iff gamma is bounded), the operator norm
(sup |gamma|) and the spectrum (closure of the range; the interval
[inf gamma, sup gamma] for real symbols).

Two quadrature rules are provided (``GAMMA_RULES`` lists their names;
``"fft"`` is a second name for the grid rule, kept while the benchmark's
signal-io workload runs and names it):

* ``rule="grid"`` -- the operator builders' first-coordinate rule on the
  seam, ``Symbol1D.cell_values``: diag(build_direct(alpha)) reproduces it
  to rounding, so all cross-operator consistency statements hold tightly.
* ``rule="adaptive"`` -- a piecewise-constant symbol (``Symbol1D._pieces``)
  reads the atom's cumulative profile P (``Atom._profile_table``): a piece
  c on [a, b] is c (P(xi - a) - P(xi - b)) (windows) or
  c (P(b|xi|) - P(a|xi|)) (wavelets), each P a table entry plus one K21
  panel.  ``_piece_columns`` is the table's one reader: one read per call
  at the pieces' distinct ends, and one per partition cloud
  (``algebra.partition_gammas``) at its m + 1 edges.  Any other symbol
  takes the adaptive pass, the table's oracle in the tests (they agree to
  8 eps, for the catalog atoms and their imported exports alike): adaptive
  Gauss-Kronrod quadrature (``quadrature.gauss_kronrod``) of the defining
  integral over the atom's ``support``, split at the symbol's
  breakpoints and at the atom's ``profile_breakpoints`` (at
  breakpoint / |xi| for wavelets, xi - breakpoint for windows), with all
  frequencies of one call integrated together, every atom alike.
  Continuum-accurate, it samples the symbol at its quadrature points, off
  the seam (epsabs 1e-12, epsrel 1e-11 per piece; the
  largest per-frequency error estimate is kept as ``GammaFunction.abserr``);
  used wherever closed-form oracles are quoted.  Symbol jumps must be listed as
  breakpoints: unlisted ones exhaust the panel cap and raise
  ``ArithmeticError``.  The two rules differ by O(step) at indicator edges: at
  n = 256 on the default windows, the ``cto1`` indicators read a largest
  |grid - adaptive| of 4.4e-2 (gaussian), 6.25e-2 (rect), 1.5e-2 (shannon) and
  4.0e-5 (haar).  The cross-route comparisons all read the grid rule.

The two-point overlap kernels generalize the same quadrature to pairs of
frequencies and feed the integral and compound-symbol operator builders.
They are the integral kernels of those forms, so they are returned as the
same record, ``OperatorMatrix``, that the builders return (it lives here
because ``operators`` imports this module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import Atom, _row_blocks
from .grids import LineGrid
from .quadrature import (GK_MAX_POINTS, _NODES, _kronrod_panels,
                         gauss_kronrod)
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

# the names ``gamma`` and the CLI's ``--rule`` accept; "fft" runs the grid rule
GAMMA_RULES = ("grid", "adaptive", "fft")


class GammaFunction:
    """Sampled diagonal symbol of a first-variable localization operator;
    ``values`` is a read-only view of the checked samples: C-contiguous
    float64 when ``is_real`` (float64 input kept as it is, the real part of
    complex input copied), complex128 otherwise."""

    def __init__(self, grid: LineGrid, values, atom_name: str,
                 symbol_descriptor: str, rule: str, unbounded: bool = False,
                 is_real: bool | None = None, abserr: float | None = None):
        values = np.asarray(values)
        if not (is_real and values.dtype == np.float64):
            values = values.astype(complex, copy=False)
        if values.shape != (grid.count,):
            raise ValueError("gamma values must match the frequency grid")
        if is_real and np.iscomplexobj(values):
            dev = float(np.max(np.abs(values.imag)))
            if dev > 1e-10 * max(1.0, float(np.max(np.abs(values.real)))):
                raise ValueError(
                    f"real symbol produced imaginary gamma (dev {dev:.2e})")
            values = values.real
        values = np.ascontiguousarray(values).view()
        values.flags.writeable = False
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
    """Operator over a frequency window, with builder provenance.

    ``values`` passed in is the n x n matrix, or the n diagonal entries of a
    diagonal operator.  An operator given by its entries is held as them alone:
    ``is_diagonal`` is True, ``diagonal`` holds them, and ``values`` is
    the n x n ``np.diag`` of them, built on each read.  An n x n matrix is
    held dense, with ``is_diagonal`` False and ``diagonal`` None, even where
    no off-diagonal entry is nonzero.  The checks here, ``spectrum`` and
    ``operator_norm`` read a diagonal operator's ``diagonal`` alone.  The
    entries are float64 exactly when none has a nonzero imaginary part
    (``is_real``), complex128 otherwise; the builders hand real matrices over
    as float64.  ``is_hermitian`` flags max |M - M^H| <= 1e-8 max(1, max |M|),
    taken a block of rows at a time; a real symbol's matrix
    (``symbol_is_real``) must pass it, else ``ValueError``, and a complex one's
    is only flagged.  ``lowrank_rank``, ``lowrank_tail`` and ``gram_rows`` are
    set by ``build_direct``: the rank of the symbol-field factorization it
    assembled from, the Frobenius tail it dropped, relative to the field's
    norm, and the most first-coordinate rows any rank's Gram product ran over
    (0 for a zero symbol).  Other builders leave them ``None``.
    """

    def __init__(self, grid: LineGrid, values, builder: str, atom_name: str,
                 symbol_descriptor: str, symbol_is_real: bool | None = None,
                 lowrank_rank: int | None = None,
                 lowrank_tail: float | None = None,
                 gram_rows: int | None = None):
        values = np.asarray(values)
        self.is_real = not (np.iscomplexobj(values) and values.imag.any())
        values = (np.ascontiguousarray(values.real, dtype=float)
                  if self.is_real else values.astype(complex, copy=False))
        n = grid.count
        if values.shape == (n,):
            self._dense, self.diagonal = None, values
        elif values.shape == (n, n):
            self._dense, self.diagonal = values, None
        else:
            raise ValueError(f"operator must be {n}x{n}, got {values.shape}")
        self.is_diagonal = self.diagonal is not None
        # a NaN or an infinity carries through the maximum
        scale = float(np.max(np.abs(values)))
        if not math.isfinite(scale):
            raise ValueError("operator contains non-finite entries")
        # max |M - M^H|, a block of rows at a time: no n x n temporary (the
        # entries of a diagonal operator are their own transpose)
        dev = max(float(np.max(np.abs(values[rows]
                                      - values[..., rows].conj().T)))
                  for rows in _row_blocks(n))
        self.is_hermitian = dev <= 1e-8 * max(1.0, scale)
        if symbol_is_real and not self.is_hermitian:
            raise ValueError(
                f"real symbol produced a non-Hermitian matrix (dev {dev:.2e})")
        self.grid = grid
        self.builder = builder
        self.atom_name = atom_name
        self.symbol_descriptor = symbol_descriptor
        self.lowrank_rank = lowrank_rank
        self.lowrank_tail = lowrank_tail
        self.gram_rows = gram_rows

    @property
    def values(self) -> np.ndarray:
        """The n x n matrix: as passed in, or ``np.diag`` of the diagonal
        entries of an operator given by them."""
        return np.diag(self.diagonal) if self._dense is None else self._dense

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


# -- gamma ---------------------------------------------------------------------

def gamma(atom: Atom, alpha: Symbol1D, xi_grid: LineGrid,
          rule: str = "grid") -> GammaFunction:
    """First-coordinate average of alpha against the squared fiber profile.

    Wavelet case: integral alpha(u) |psi_hat(u xi)|^2 du/u.
    Gabor case:   integral alpha(q) |phi(xi - q)|^2 dq.

    ``rule="adaptive"`` reads a symbol built by ``Symbol1D.constant``,
    ``indicator`` or ``piecewise`` from the atom's cumulative-profile table
    (module docstring); ``abserr`` is then the largest per-xi sum over the
    pieces of |c| times the table's summed panel estimates plus the two
    lookups'.  Any other symbol takes the adaptive pass: every
    (xi, breakpoint segment) piece with one batched adaptive Gauss-Kronrod
    (G10/K21) pass to epsabs 1e-12, epsrel 1e-11 per piece, and records the
    largest per-xi error estimate as ``abserr``.  The segments split at the
    symbol's breakpoints and at the atom's ``profile_breakpoints`` (haar's
    profile zeros, an imported atom's interpolation nodes).  A piece that
    needs more than ``quadrature.GK_LIMIT`` panels -- typically a symbol
    with jumps not listed as breakpoints -- raises ``ArithmeticError``.
    Either rule's values then pass ``_check_gamma``.

    The grid rule reads ``alpha.cell_values`` and the atom's fiber record on
    ``xi_grid`` (``Atom.fibers``); the adaptive rule evaluates no fiber matrix.
    ``rule="fft"`` is the grid rule under a second name, recorded as
    ``GammaFunction.rule``.
    """
    if rule not in GAMMA_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    abserr = None
    if rule == "adaptive":
        vals, abserr = _gamma_adaptive(atom, alpha, xi_grid.samples)
    else:
        # the power sums of the symbol on the cells, in range (Symbol1D.sample)
        vals = atom.fibers(xi_grid.samples).power_sums(
            alpha.cell_values(atom.g1), atom.g1.measure_weights)
    _check_gamma(vals, alpha.sup_bound, f"gamma for {alpha.descriptor}")
    unbounded = (alpha.sup_bound is None
                 and bool(np.max(np.abs(vals)) > OVERFLOW_GUARD))
    return GammaFunction(xi_grid, vals, atom.name, alpha.descriptor, rule,
                         unbounded=unbounded, is_real=alpha.is_real,
                         abserr=abserr)


def _check_gamma(vals: np.ndarray, sup_bound: float | None, subject: str):
    """Raise ``ValueError`` unless every value of gamma (``subject`` names
    it) is finite and, for a symbol with a sup bound, |gamma| stays within
    that bound to 1e-8 relative: a symbol with a sup bound gives a bounded
    operator (||H_a|| <= sup|a|), so a larger value is a quadrature bug.
    ``gamma`` and the partition cloud's coordinates pass it."""
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{subject} is not finite on the grid")
    if sup_bound is not None:
        over = float(np.max(np.abs(vals))) - sup_bound
        if over > 1e-8 * max(1.0, sup_bound):
            raise ValueError(
                f"gamma exceeded its symbol bound by {over:.2e}; quadrature bug")


def _gamma_adaptive(atom: Atom, alpha: Symbol1D,
                    xs: np.ndarray) -> tuple[np.ndarray, float]:
    """Adaptive-rule gamma on xs and the largest per-xi error estimate.

    A piecewise-constant symbol reads the profile table (``_gamma_pieces``).
    Otherwise the integration range of each xi is the atom's ``support``
    clipped to the symbol's, split at the symbol's breakpoints and at the
    atom's ``profile_breakpoints``; the atom's support ends and breakpoints
    b enter as first coordinates at xi, b / |xi| (wavelets) or xi - b
    (windows); every (xi, segment) integral goes through one batched
    Gauss-Kronrod pass.  The frequencies are halved until the segments of a
    pass number at most ``GK_MAX_POINTS``, which bounds its memory.
    """
    if alpha._pieces is not None:
        return _gamma_pieces(atom, alpha._pieces, xs)  # the table path
    bps = np.sort(np.asarray(alpha.breakpoints, dtype=float))
    pbps = atom.profile_breakpoints
    if xs.size > 1 and xs.size * (bps.size + pbps.size + 1) > GK_MAX_POINTS:
        # a piece's integral does not depend on the batch it is integrated
        # in, so halving changes no bit
        h = xs.size // 2
        (v0, e0), (v1, e1) = (_gamma_adaptive(atom, alpha, part)
                              for part in (xs[:h], xs[h:]))
        return np.concatenate([v0, v1]), max(e0, e1)

    a_lo, a_hi = alpha.support
    # the first coordinates at which the argument reaches the support's ends
    # and the breakpoints; a dilation's at xi = 0 are inf (its fibers vanish
    # there, outside the documented healthy range), so that row is not live
    with np.errstate(divide="ignore"):
        ends = atom.action.coordinate(np.array(atom.support), xs[:, None])
        at_xi = atom.action.coordinate(pbps, xs[:, None])
    lo = np.maximum(np.maximum(ends.min(axis=1), a_lo), atom.action.floor)
    hi = np.minimum(ends.max(axis=1), a_hi)
    live = lo < hi
    cuts = np.column_stack([np.broadcast_to(bps, (xs.size, bps.size)), at_xi])

    # segment edges per xi: the cuts clipped into [lo, hi] and sorted;
    # clipped duplicates give empty segments, which are dropped
    edges = np.column_stack([lo, np.clip(cuts, lo[:, None], hi[:, None]), hi])
    edges.sort(axis=1)
    seg_lo, seg_hi = edges[:, :-1], edges[:, 1:]
    owner, col = np.nonzero(live[:, None] & (seg_hi > seg_lo))
    if owner.size == 0:
        return np.zeros(xs.size, dtype=complex), 0.0
    xi = xs[owner]

    def integrand(z, j):
        return atom.action.gamma_integrand(atom, alpha.sample(z), z, xi[j])

    def describe(j):
        return f"gamma of {alpha.descriptor} at xi={xi[j]:.17g}"

    vals, errs = gauss_kronrod(integrand, seg_lo[owner, col],
                               seg_hi[owner, col], describe)
    n = xs.size
    out = (np.bincount(owner, vals.real, minlength=n)
           + 1j * np.bincount(owner, vals.imag, minlength=n))
    err = np.bincount(owner, errs, minlength=n)
    return out, float(np.max(err))


def _profile_at(atom: Atom, xs: np.ndarray, ends: np.ndarray):
    """The atom's cumulative profile P at every (xi, end): P(xi - end)
    (windows) or P(|xi| end) (wavelets), clipped into the table's range, is
    the entry at its panel's left edge plus one K21 panel from that edge.
    Returns ``live`` (the rows of ``xs`` read: all of them for windows,
    xi != 0 for wavelets, whose gamma(0) is 0), P and the panel error
    estimates, each (live xs, ends).  A row's sums do not depend on the
    other rows or ends of the call, so each P keeps its bits however many
    ends one call reads.  Its one caller is ``_piece_columns``."""
    edges, cum, _ = atom._profile_table
    live, x = atom.action.table_argument(xs, ends)
    x = np.clip(x, edges[0], edges[-1])
    k = np.searchsorted(edges, x, side="right") - 1
    mid, half = 0.5 * (x + edges[k]), 0.5 * (x - edges[k])
    F = atom.action.density(atom, mid[..., None] + half[..., None] * _NODES)
    P, e = _kronrod_panels(F.reshape(-1, 1, _NODES.size), half.ravel())
    return live, cum[k] + P.reshape(x.shape), e.reshape(x.shape)


def _piece_columns(atom: Atom, xs: np.ndarray, intervals):
    """The gamma of the indicator of each interval [a, b] of ``intervals``
    on ``xs``, from one ``_profile_at`` read at their distinct ends:
    P(xi - a) - P(xi - b) (windows) or P(b|xi|) - P(a|xi|) (wavelets).
    Returns ``live`` (``_profile_at``'s rows), the columns, one per
    interval, and each column's error estimate: the table's summed panel
    estimates plus the two lookups'."""
    ends = np.array(sorted({e for iv in intervals for e in iv}))
    live, P, e = _profile_at(atom, xs, ends)
    i, j = np.searchsorted(ends, np.reshape(intervals, (-1, 2))).T
    cols = atom.action.table_difference(P, i, j)
    return live, cols, atom._profile_table[2] + e[:, i] + e[:, j]


def _gamma_pieces(atom: Atom, pieces, xs: np.ndarray) -> tuple[np.ndarray, float]:
    """The table path (module docstring): piece c on [a, b] adds c times
    its ``_piece_columns`` column, in piece order."""
    live, cols, col_errs = _piece_columns(atom, xs,
                                          [(a, b) for a, b, _ in pieces])
    vals, errs = np.zeros(xs.size, dtype=complex), np.zeros(xs.size)
    for k, (_, _, c) in enumerate(pieces):
        vals[live] += c * cols[:, k]
        errs[live] += abs(c) * col_errs[:, k]
    return vals, float(errs.max(initial=0.0))


# -- spectrum read-off -----------------------------------------------------------

def spectrum_from_gamma(gf: GammaFunction) -> SpectrumReport:
    """Spectrum approximation from the sampled diagonal symbol.

    The sampled range approximates the spectrum; for real symbols the
    interval [min, max] is reported as well, and sup |gamma| estimates the
    operator norm (the operator is bounded iff gamma is).
    """
    real, vals = gf.is_real, gf.values
    interval = (float(np.min(vals)), float(np.max(vals))) if real else None
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

def overlap_kernel(atom: Atom, xi_grid: LineGrid) -> OperatorMatrix:
    """Fiber overlap kernel: quadrature of ell(r, omega) conj(ell(r, xi)).

    Hermitian with unit diagonal on the healthy range (the diagonal is the
    fiber norm).  Entry [i, j] pairs xi = xi_i with omega = xi_j.  The
    quadrature is ``Fibers.gram``, which states its flush bound.
    """
    vals = atom.fibers(xi_grid.samples).gram(atom.g1.measure_weights)[0]
    return OperatorMatrix(xi_grid, vals, "overlap", atom.name, "const:1",
                          symbol_is_real=True)


def weighted_overlap_kernel(atom: Atom, alpha: Symbol1D,
                            xi_grid: LineGrid) -> OperatorMatrix:
    """Symbol-weighted overlap kernel; its diagonal is the grid-rule gamma.
    ``Fibers.gram`` of the weighted cells, whose docstring states its flush
    bound and its real GEMM for a complex symbol."""
    w = atom.g1.measure_weights * alpha.cell_values(atom.g1)
    vals = atom.fibers(xi_grid.samples).gram(w)[0]
    return OperatorMatrix(xi_grid, vals, "weighted_overlap", atom.name,
                          alpha.descriptor, symbol_is_real=alpha.is_real)
