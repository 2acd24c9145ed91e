"""Commutative operator algebra of first-variable symbols.

First-variable localization operators all diagonalize simultaneously, so
they generate a commutative algebra.  For piecewise-constant symbols over a
partition of the first coordinate, the algebra is parameterized by the
closure of the curve of indicator gamma-vectors

    xi -> (gamma_{Y_1}(xi), ..., gamma_{Y_m}(xi)),

a compact subset of the probability simplex (coordinates are nonnegative
and sum to the fiber norm, which is 1 on the healthy range).  Each operator
with coefficients (a_1, ..., a_m) maps to the function sum a_k z_k on that
set; the sup of its modulus reproduces the operator norm (the isometry
checked by tests).

Although operators in this algebra commute exactly, products of two of them
are not operators of multiplication by the product symbol: the gap
gamma_a * gamma_b - gamma_{ab} is generically nonzero (the semi-commutator
obstruction), which ``pool_commutator_diagnostics`` measures for every pair
of a symbol pool.
"""

from __future__ import annotations

import itertools

import numpy as np

from .atoms import Atom
from .grids import LineGrid, ScaleGrid
from .kernels import gamma
from .operators import build_direct, default_operator_grid, operator_norm
from .symbols import Symbol1D, SymbolSpec, format_number

__all__ = [
    "Partition",
    "PartitionCloud",
    "partition_gammas",
    "evaluate_on_cloud",
    "commutator_diagnostics",
    "pool_commutator_diagnostics",
]


class Partition:
    """Disjoint interval-union pieces tiling the truncated first coordinate.

    ``pieces`` is a list of interval lists [(a, b), ...]; intervals are
    half-open [a, b) so adjacent pieces share endpoints without overlap.
    The union must tile ``domain`` exactly.
    """

    def __init__(self, case: str, pieces, domain: tuple[float, float]):
        if case not in ("wavelet", "gabor"):
            raise ValueError(f"unknown case {case!r}")
        lo, hi = float(domain[0]), float(domain[1])
        if case == "wavelet" and lo <= 0:
            raise ValueError("wavelet partitions live on the positive scale axis")
        cleaned = []
        for k, ivs in enumerate(pieces):
            ivs = [(float(a), float(b)) for a, b in ivs]
            if not ivs or any(b <= a for a, b in ivs):
                raise ValueError(f"piece {k} is degenerate")
            cleaned.append(sorted(ivs))
        flat = sorted((a, b, k) for k, ivs in enumerate(cleaned) for a, b in ivs)
        cursor = lo
        for a, b, k in flat:
            if abs(a - cursor) > 1e-12 * max(1.0, abs(cursor)):
                raise ValueError(
                    f"pieces leave a gap or overlap near {cursor:g} (piece {k})")
            cursor = b
        if abs(cursor - hi) > 1e-12 * max(1.0, abs(hi)):
            raise ValueError(f"pieces do not reach the domain end {hi:g}")
        self.case = case
        self.pieces = cleaned
        self.domain = (lo, hi)

    @property
    def m(self) -> int:
        return len(self.pieces)

    @classmethod
    def from_cuts(cls, case: str, cuts, domain: tuple[float, float]) -> "Partition":
        """Partition into m = len(cuts)+1 pieces split at interior cut points."""
        lo, hi = domain
        cuts = sorted(float(c) for c in cuts)
        if any(not lo < c < hi for c in cuts):
            raise ValueError(f"cuts must lie strictly inside {domain}")
        edges = [lo] + cuts + [hi]
        return cls(case, [[(edges[i], edges[i + 1])] for i in range(len(edges) - 1)],
                   domain)

    def indicator_symbols(self) -> list[Symbol1D]:
        return [Symbol1D.piecewise([ivs], [1.0]) for ivs in self.pieces]

    def descriptor(self) -> str:
        parts = ["+".join(f"[{format_number(a)},{format_number(b)})"
                          for a, b in ivs) for ivs in self.pieces]
        return f"partition[{self.case}]:" + ";".join(parts)

    def __repr__(self):
        return self.descriptor()


def default_partition_domain(atom: Atom) -> tuple[float, float]:
    if isinstance(atom.g1, ScaleGrid):
        return (atom.g1.u_min, atom.g1.u_max)
    return (atom.g1.start, atom.g1.stop)


class PartitionCloud:
    """Indicator gamma-vectors sampled along the frequency axis.

    Points live (up to quadrature slack) on the standard simplex: every
    coordinate is a nonnegative fiber-mass fraction and coordinates sum to
    the fiber norm.
    """

    def __init__(self, xi_grid: LineGrid, points, partition_descriptor: str,
                 atom_name: str):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] != xi_grid.count:
            raise ValueError("points must be (xi_count, m)")
        if float(points.min()) < -1e-8:
            raise ValueError(
                f"negative simplex coordinate {points.min():.2e}")
        sums = points.sum(axis=1)
        dev = float(np.max(np.abs(sums - 1.0)))
        if dev > 1e-6:
            raise ValueError(f"simplex sums deviate from 1 by {dev:.2e}; "
                             "sample inside the healthy range")
        self.xi_grid = xi_grid
        self.points = points
        self.partition_descriptor = partition_descriptor
        self.atom_name = atom_name

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"PartitionCloud(m={self.m}, n={self.xi_grid.count})"


def partition_gammas(atom: Atom, partition: Partition, xi_grid: LineGrid,
                     rule: str = "adaptive") -> PartitionCloud:
    """Gamma value of each piece indicator, per sampled frequency."""
    if partition.case != atom.case:
        raise ValueError("partition and atom case tags differ")
    cols = [gamma(atom, sym, xi_grid, rule=rule).values.real
            for sym in partition.indicator_symbols()]
    return PartitionCloud(xi_grid, np.stack(cols, axis=1),
                          partition.descriptor(), atom.name)


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


def pool_commutator_diagnostics(atom: Atom, pool, xi_grid: LineGrid | None = None,
                                rule: str = "adaptive") -> dict:
    """Commutator and semi-commutator diagnostics for every pair of a pool.

    Builds the direct matrix, its operator norm and the gamma values of each
    first-variable pool symbol once, then forms every pair's diagnostics
    from them.  Returns ``{(i, j): diagnostics}`` for i < j: the direct
    matrices commute (relative commutator norm ~ rounding); the
    semi-commutator symbol gamma_i*gamma_j - gamma_{ij} is generically
    nonzero and its sup is reported.
    """
    xi_grid = default_operator_grid(atom.case) if xi_grid is None else xi_grid
    mats = [build_direct(atom, SymbolSpec.first_variable(alpha), xi_grid)
            for alpha in pool]
    norms = [operator_norm(M) for M in mats]
    gammas = [gamma(atom, alpha, xi_grid, rule=rule).values for alpha in pool]
    out = {}
    for i, j in itertools.combinations(range(len(pool)), 2):
        A, B = mats[i].values, mats[j].values
        scale = norms[i] * norms[j]
        commutator_rel = operator_norm(A @ B - B @ A) / scale if scale else 0.0
        a1, a2 = pool[i], pool[j]
        prod = Symbol1D(
            lambda x, a1=a1, a2=a2: a1(x) * a2(x),
            f"({a1.descriptor})*({a2.descriptor})",
            breakpoints=sorted(set(a1.breakpoints) | set(a2.breakpoints)),
            support=(max(a1.support[0], a2.support[0]),
                     min(a1.support[1], a2.support[1])),
            is_real=a1.is_real and a2.is_real)
        if prod.support[0] >= prod.support[1]:
            gij = np.zeros(xi_grid.count, dtype=complex)
        else:
            gij = gamma(atom, prod, xi_grid, rule=rule).values
        semi = gammas[i] * gammas[j] - gij
        out[i, j] = {
            "commutator_norm_rel": commutator_rel,
            "semi_commutator_values": semi,
            "semi_commutator_sup": float(np.max(np.abs(semi))),
            "xi_grid": xi_grid,
        }
    return out


def commutator_diagnostics(atom: Atom, alpha1: Symbol1D, alpha2: Symbol1D,
                           xi_grid: LineGrid | None = None,
                           rule: str = "adaptive") -> dict:
    """``pool_commutator_diagnostics`` of the one pair (alpha1, alpha2)."""
    return pool_commutator_diagnostics(atom, [alpha1, alpha2], xi_grid,
                                       rule)[0, 1]
