"""Commutative operator algebra of first-variable symbols.

First-variable localization operators all diagonalize simultaneously, so
they generate a commutative algebra.  For symbols that are piecewise
constant between finitely many cut points of the first coordinate, the
algebra is parameterized by the closure of the curve of indicator
gamma-vectors

    xi -> (gamma_{Y_1}(xi), ..., gamma_{Y_m}(xi)),

a compact subset of the probability simplex (coordinates are nonnegative
and sum to the fiber norm, which is 1 on the healthy range).  Each operator
with coefficients (a_1, ..., a_m) maps to the function sum a_k z_k on that
set; the sup of its modulus reproduces the operator norm (the isometry
checked by tests).

A cloud reads the atom's cumulative-profile table P (``kernels``) once, at
the partition's m + 1 edges, and each coordinate is the difference of
neighbouring columns, so the pieces telescope: a coordinate sum is P at the
domain's two ends, and ``simplex_sum_deviation`` reads the first
coordinate's truncation (4.4e-4 for haar) and rounding, not the pieces'
quadrature error, which the tests pin by checking the table against the
adaptive pass.  Catalog and imported atoms alike: an imported atom's table
integrates the interpolant of its samples.

Operators in this algebra commute (``commutator_diagnostics`` measures it
for every pair of a symbol pool), yet products of two of them are not
operators of multiplication by the product symbol: the gap
gamma_a * gamma_b - gamma_{ab} is generically nonzero (the semi-commutator
obstruction, ``semi_commutator``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .atoms import Atom
from .grids import LineGrid, ScaleGrid
from .kernels import _check_gamma, _piece_columns, gamma
from .operators import build_direct, operator_norm
from .symbols import Symbol1D, SymbolSpec, format_number

__all__ = [
    "Partition",
    "PartitionCloud",
    "partition_gammas",
    "evaluate_on_cloud",
    "commutator_diagnostics",
    "semi_commutator",
]


class Partition:
    """The atom's truncated first coordinate, split at interior cut points.

    The domain is the range of ``atom.g1`` (the scale range for wavelets,
    the translation range for windows).  The sorted cuts split it into
    m = len(cuts) + 1 half-open intervals [a, b), so the pieces tile the
    domain; ``pieces[k]`` is the interval list [(a, b)] of piece k.
    """

    def __init__(self, atom: Atom, cuts):
        g1 = atom.g1
        lo, hi = ((g1.u_min, g1.u_max) if isinstance(g1, ScaleGrid)
                  else (g1.start, g1.stop))
        cuts = sorted(float(c) for c in cuts)
        if any(not lo < c < hi for c in cuts):
            raise ValueError(f"cuts must lie strictly inside {(lo, hi)}")
        if len(set(cuts)) < len(cuts):
            raise ValueError(f"repeated cut in {cuts}")
        edges = [lo, *cuts, hi]
        self.case = atom.case
        self.domain = (lo, hi)
        self.pieces = [[(a, b)] for a, b in zip(edges, edges[1:])]

    @property
    def m(self) -> int:
        return len(self.pieces)

    def indicator_symbols(self) -> list[Symbol1D]:
        return [Symbol1D.piecewise([ivs], [1.0]) for ivs in self.pieces]

    def descriptor(self) -> str:
        parts = [f"[{format_number(a)},{format_number(b)})"
                 for [(a, b)] in self.pieces]
        return f"partition[{self.case}]:" + ";".join(parts)

    def __repr__(self):
        return self.descriptor()


class PartitionCloud:
    """Indicator gamma-vectors sampled along the frequency axis.

    Points live (up to quadrature slack) on the standard simplex: every
    coordinate is a nonnegative fiber-mass fraction and coordinates sum to
    the fiber norm.  ``simplex_sum_deviation`` is the largest |sum - 1|;
    the callers judge it against their tolerance (outside the atom's healthy
    range the fiber norm, so the sum, falls below 1).
    """

    def __init__(self, xi_grid: LineGrid, points, partition_descriptor: str,
                 atom_name: str):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] != xi_grid.count:
            raise ValueError("points must be (xi_count, m)")
        if float(points.min()) < -1e-8:
            raise ValueError(
                f"negative simplex coordinate {points.min():.2e}")
        self.xi_grid = xi_grid
        self.points = points
        self.simplex_sum_deviation = float(
            np.max(np.abs(points.sum(axis=1) - 1.0)))
        self.partition_descriptor = partition_descriptor
        self.atom_name = atom_name

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"PartitionCloud(m={self.m}, n={self.xi_grid.count})"


def partition_gammas(atom: Atom, partition: Partition,
                     xi_grid: LineGrid) -> PartitionCloud:
    """Adaptive-rule gamma value of each piece indicator, per frequency.

    The atom's cumulative profile P is read once
    (``kernels._piece_columns``), at the partition's m + 1 edges, and piece
    [a, b) is the difference of neighbouring columns: P(xi - a) - P(xi - b)
    (windows) or P(b|xi|) - P(a|xi|) (wavelets), +0 at xi = 0 -- the bits
    of the piece's own ``gamma(..., rule="adaptive")``, whose finite and
    symbol-bound checks (``kernels._check_gamma``) the cloud passes too.
    """
    if partition.case != atom.case:
        raise ValueError("partition and atom case tags differ")
    live, cols, _ = _piece_columns(atom, xi_grid.samples,
                                   [iv for [iv] in partition.pieces])
    points = np.zeros((xi_grid.count, partition.m))
    points[live] += cols
    _check_gamma(points, 1.0, f"gamma of {partition.descriptor()}")
    return PartitionCloud(xi_grid, points, partition.descriptor(), atom.name)


def evaluate_on_cloud(coefficients, cloud: PartitionCloud):
    """Samples of sum_k a_k z_k over the cloud and their sup modulus.

    The sup is the function-algebra norm proxy; for the matching
    piecewise-constant operator it reproduces the operator norm.
    """
    a = np.asarray(coefficients, dtype=complex)
    if a.shape != (cloud.m,):
        raise ValueError(f"need {cloud.m} coefficients, got {a.shape}")
    samples = cloud.points @ a
    return samples, float(np.max(np.abs(samples)))


def commutator_diagnostics(atom: Atom, pool, xi_grid: LineGrid) -> dict:
    """Relative commutator norm of every pair of a first-variable pool.

    Builds each pool symbol's direct matrix and operator norm once and
    returns ``{(i, j): ||[A_i, A_j]|| / (||A_i|| ||A_j||)}`` for i < j; the
    operators commute, so each value is at rounding level.  Two diagonal
    matrices (the default windows) commute exactly, a_k b_k == b_k a_k in
    IEEE arithmetic, so their value is read off as 0 with no product.
    """
    mats = [build_direct(atom, SymbolSpec.first_variable(alpha), xi_grid)
            for alpha in pool]
    norms = [operator_norm(M) for M in mats]
    out = {}
    for i, j in itertools.combinations(range(len(pool)), 2):
        scale = norms[i] * norms[j]
        if not scale or mats[i].is_diagonal and mats[j].is_diagonal:
            out[i, j] = 0.0
            continue
        # complex copies of real matrices, dropped with the pair: the
        # complex products (zgemm) give the reported bits
        A, B = (np.asarray(mats[k].values, dtype=complex) for k in (i, j))
        out[i, j] = operator_norm(A @ B - B @ A) / scale
    return out


def semi_commutator(atom: Atom, alpha1: Symbol1D, alpha2: Symbol1D,
                    xi_grid: LineGrid) -> np.ndarray:
    """Values of gamma_1 * gamma_2 - gamma_{12} on ``xi_grid`` (adaptive
    rule), with gamma_{12} the gamma of the product symbol alpha1*alpha2
    (``Symbol1D.product``): read from the atom's table when both factors
    are piecewise constant."""
    prod = Symbol1D.product(alpha1, alpha2)
    g1, g2 = (gamma(atom, a, xi_grid, rule="adaptive").values
              for a in (alpha1, alpha2))
    if prod.support[0] >= prod.support[1]:
        return g1 * g2
    return g1 * g2 - gamma(atom, prod, xi_grid, rule="adaptive").values
