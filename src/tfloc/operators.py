"""Discretized localization operators on the second phase-plane coordinate.

Every operator here is the compression of a phase-plane localization
operator to a finite frequency window, acting on coefficient vectors over
that window with the Riemann-sum inner product.  Four builders produce the
same operator along different routes:

* ``build_direct`` -- the conjugated pipeline: embed, backward axis-2
  transform, pointwise multiply by the symbol, forward transform, project.
  This is the reference route.  It uses no structure the symbol may have
  beyond its numerical rank: on the builders' grids the transform sandwich
  F_fwd diag(a_k) F_back of one first-coordinate row a_k of the sampled
  symbol depends only on i - j and is linear in a_k, so a rank-r
  factorization a = sum_r q_r v_r^T of the K x n symbol field assembles the
  matrix as r Gram GEMMs (one per q_r) times r batched transforms (one per
  v_r).  The factors come from greedy column-pivoted deflation of the
  field, which stops at the first rank whose residual has a Frobenius norm
  of at most ``LOWRANK_TAIL`` = 1e-13 relative to the field's norm; the
  rank and the tail are recorded on the result.  It
  shares no ingredient with the routes below: neither the overlap kernels
  nor gamma nor the difference-lattice factor.
* ``build_multiplication`` -- diagonal matrix of the scalar symbol gamma
  (first-variable symbols diagonalize).
* ``build_integral`` -- overlap kernel times the transformed second-variable
  factor evaluated on the frequency difference lattice.
* ``build_pseudodiff`` -- compound-symbol form for separable symbols: the
  weighted overlap kernel times the same difference-lattice factor.  (The
  phase sums of the iterated integral collapse to a function of x - y, so
  one transform of the second-variable factor assembles every row.)

``verify_equivalence`` builds the direct and the specialized matrix and
reports their discrepancy in operator norm, eigenvalue Hausdorff distance
and action on random vectors.

Sign conventions: with the axis-2 transform pairing (wavelet forward, gabor
inverse), the difference-lattice factor is beta_hat(+(xi - omega)) for the
wavelet case and beta_hat(-(xi - omega)) for the gabor case; the compound
phase is exp(-2*pi*i*(x-y)*xi) and exp(+2*pi*i*(x-y)*xi) respectively.
A dedicated test asserts this resolution numerically.

Default frequency windows: [-8, 8) for the gabor case; [2^-4, 2^-4 + 4) for
the wavelet case.  The wavelet window sits on the positive healthy band:
at xi = 0 the fibers vanish, and a window containing +/-xi pairs couples
mirrored bands across the lattice period of the discrete transform
(wrap-around), which is an artifact the continuum operator does not have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atoms import Atom, Fibers
from .fields import analyze, axis2_sign, bargmann, omega_side
from .fourier import _fourier_rows, fourier
from .grids import LineGrid, SampledFunction, ScaleGrid, induced_grid
from .kernels import (GammaFunction, OperatorMatrix, SpectrumReport, gamma,
                      overlap_kernel, weighted_overlap_kernel)
from .symbols import Symbol1D, SymbolSpec

__all__ = [
    "OperatorMatrix",
    "EquivalenceSpec",
    "VerificationReport",
    "default_operator_grid",
    "build_direct",
    "build_multiplication",
    "build_integral",
    "build_pseudodiff",
    "operator_norm",
    "spectrum",
    "hausdorff_distance",
    "verify_equivalence",
    "filter_signal",
    "MIN_FIBER_COVERAGE",
]


def default_operator_grid(case: str, n: int = 256) -> LineGrid:
    """Documented frequency window for operator work."""
    if case == "gabor":
        return LineGrid.centered(8.0, n)
    return LineGrid(2.0 ** -4, 4.0 / n, n)


def case_sign(case: str) -> float:
    """Sign of the difference-lattice argument in the integral form."""
    return 1.0 if case == "wavelet" else -1.0


# -- direct (pipeline) route -----------------------------------------------------

# Largest dropped Frobenius tail of the symbol field, relative to its norm,
# that the low-rank assembly of the direct route may leave out.
LOWRANK_TAIL = 1e-13


def _column_sq_norms(R: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every column, computed from the entries."""
    if np.iscomplexobj(R):
        return np.einsum("ij,ij->j", R.real, R.real) + np.einsum(
            "ij,ij->j", R.imag, R.imag)
    return np.einsum("ij,ij->j", R, R)


def _lowrank_factors(a_field: np.ndarray):
    """Truncated factors of the sampled symbol field: a ~= Q @ V.

    Greedy column-pivoted deflation of a working copy R of the field: take
    the column of largest residual norm, q = R[:, j] / ||R[:, j]||,
    v = q^H R, and subtract q v^T from R.  The column norms are recomputed
    from R after every step, never downdated, so the stopping test reads the
    true residual: the loop stops at the first rank r with
    ||R||_F <= ``LOWRANK_TAIL`` * ||a||_F.  The work is O(r K n).  Returns
    Q (K x r), V (r x n) and the relative tail ||R||_F / ||a||_F dropped.
    """
    R = np.array(a_field)
    K, n = R.shape
    col_sq = _column_sq_norms(R)
    a_sq = float(col_sq.sum())
    qs, vs = [], []
    # in exact arithmetic min(K, n) steps empty the field: bound the loop there
    while len(qs) < min(K, n) and col_sq.sum() > LOWRANK_TAIL ** 2 * a_sq:
        j = int(np.argmax(col_sq))
        q = R[:, j] / math.sqrt(col_sq[j])
        v = q.conj() @ R
        R -= np.outer(q, v)
        col_sq = _column_sq_norms(R)
        qs.append(q)
        vs.append(v)
    tail = math.sqrt(float(col_sq.sum()) / a_sq) if a_sq else 0.0
    # reshape keeps the shapes (K, 0) and (0, n) for a zero field
    Q = np.array(qs, dtype=R.dtype).T.reshape(K, len(qs))
    V = np.array(vs, dtype=R.dtype).reshape(len(vs), n)
    return Q, V, tail


def build_direct(atom: Atom, spec: SymbolSpec,
                 xi_grid: LineGrid | None = None) -> OperatorMatrix:
    """Pipeline operator, assembled from a low-rank factorization of the symbol.

    The pipeline (embed, backward axis-2 transform, multiply by the symbol
    a(r_k, s), forward transform, project) has entries

        M[i, j] = sum_k w_k conj(L[k, i]) L[k, j] (F_fwd diag(a_k) F_back)[i, j]

    with L the fiber matrix, w the first-coordinate weights and a_k the k-th
    row of the sampled symbol field.  On the builders' grids the sandwich
    F_fwd diag(a_k) F_back depends only on i - j, and it is linear in a_k.
    So a rank-r factorization a = sum_r q_r v_r^T of the K x n field splits
    M into r elementwise products,

        M = sum_r G_r * (F_fwd diag(v_r) F_back),   G_r = L^H diag(w q_r) L,

    each one Gram GEMM plus one batched ``_fourier_rows`` transform of the
    backward-transformed basis, instead of n column passes.  The factors
    come from greedy column-pivoted deflation (``_lowrank_factors``), which
    stops at the first r whose residual Frobenius norm is at most
    ``LOWRANK_TAIL`` (1e-13) relative to ||a||_F.  The rank and the relative
    tail are recorded on the result as ``lowrank_rank`` and
    ``lowrank_tail``.  First-variable, second-variable and separable symbols
    have rank 1.
    """
    xi_grid = default_operator_grid(atom.case) if xi_grid is None else xi_grid
    n = xi_grid.count
    s_grid = induced_grid(xi_grid)
    Q, V, tail = _lowrank_factors(
        spec.evaluate_field(atom.g1.nodes, s_grid.samples))
    L = atom.ell_matrix(xi_grid.samples)
    w = atom.g1.measure_weights
    back_sign = axis2_sign(atom.case, "backward")
    fwd_sign = axis2_sign(atom.case, "forward")
    # row j: backward transform of the j-th basis vector, sampled on s_grid
    T_back = _fourier_rows(np.eye(n, dtype=complex), xi_grid, back_sign, s_grid)
    M = np.zeros((n, n), dtype=complex)
    # in-place products, and each rank's arrays dropped before the next: the
    # peak stays at six arrays of n x n or K x n entries, whatever the rank
    for q, v in zip(Q.T, V):
        D = _fourier_rows(T_back * v, s_grid, fwd_sign, xi_grid)
        WL = np.conj(L)
        WL *= (w * q)[:, None]
        G = WL.T @ L
        G *= D.T
        M += G
        del D, WL, G
    return OperatorMatrix(xi_grid, M, "direct", atom.name, spec.descriptor,
                          symbol_is_real=spec.is_real,
                          lowrank_rank=len(V), lowrank_tail=tail)


# -- specialized routes -----------------------------------------------------------

def build_multiplication(gf: GammaFunction) -> OperatorMatrix:
    """Diagonal operator of a sampled scalar symbol."""
    return OperatorMatrix(gf.grid, np.diag(gf.values), "multiplication",
                          gf.atom_name, gf.symbol_descriptor,
                          symbol_is_real=gf.is_real)


def _beta_hat_on_lattice(atom: Atom, beta: Symbol1D,
                         xi_grid: LineGrid) -> np.ndarray:
    """Transformed second-variable factor at sigma*(xi_i - xi_j).

    beta is sampled on the span of the dual axis, 4 times denser: the
    transformed samples then live on the frequency difference lattice with
    4 times the reach, so every lattice difference is an exact node.
    Returns the full difference table, shape (n, n).  Values off the
    transform grid are zero (the factor is assumed decaying; tests use
    smooth bumps).
    """
    s_grid = induced_grid(xi_grid)
    count, step = s_grid.count * 4, s_grid.step / 4
    bg = LineGrid(-(count // 2) * step, step, count)
    b_samples = np.asarray(beta(bg.samples), dtype=complex)
    if not np.all(np.isfinite(b_samples)):
        raise ValueError(f"symbol {beta.descriptor} not finite on its grid")
    bhat = fourier(SampledFunction(bg, b_samples), "forward")
    sigma = case_sign(atom.case)
    n = xi_grid.count
    # difference lattice: sigma*(xi_i - xi_j) = sigma*step*(i - j)
    idx = np.arange(n)
    delta = sigma * xi_grid.step * (idx[:, None] - idx[None, :])
    fg = bhat.grid
    re = np.interp(delta, fg.samples, bhat.values.real, left=0.0, right=0.0)
    im = np.interp(delta, fg.samples, bhat.values.imag, left=0.0, right=0.0)
    return re + 1j * im


def build_integral(atom: Atom, beta: Symbol1D,
                   xi_grid: LineGrid | None = None) -> OperatorMatrix:
    """Integral-operator form for second-variable symbols.

    Entry [i, j] = overlap_kernel(xi_i, xi_j) * beta_hat(sigma*(xi_i - xi_j))
    * step, with the case-dependent sigma.
    """
    xi_grid = default_operator_grid(atom.case) if xi_grid is None else xi_grid
    K = overlap_kernel(atom, xi_grid)
    bh = _beta_hat_on_lattice(atom, beta, xi_grid)
    vals = K.values * bh * xi_grid.step
    return OperatorMatrix(xi_grid, vals, "integral", atom.name,
                          f"a(s)={beta.descriptor}",
                          symbol_is_real=beta.is_real)


def build_pseudodiff(atom: Atom, alpha: Symbol1D, beta: Symbol1D,
                     xi_grid: LineGrid | None = None) -> OperatorMatrix:
    """Compound-symbol form for separable symbols.

    The iterated integral over (y, xi) with compound symbol
    Gamma(x, y) * beta(xi) and the case-dependent oscillatory phase reduces,
    row by row, to the weighted overlap kernel times the transformed
    second-variable factor on the difference lattice.
    """
    xi_grid = default_operator_grid(atom.case) if xi_grid is None else xi_grid
    G = weighted_overlap_kernel(atom, alpha, xi_grid)
    bh = _beta_hat_on_lattice(atom, beta, xi_grid)
    vals = G.values * bh * xi_grid.step
    return OperatorMatrix(
        xi_grid, vals, "pseudodiff", atom.name,
        f"a(r,s)=[{alpha.descriptor}]x[{beta.descriptor}]",
        symbol_is_real=alpha.is_real and beta.is_real)


# -- spectra and comparisons -------------------------------------------------------

def _hermitian_eigvals(M: OperatorMatrix) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix (M + M^H) / 2."""
    return np.linalg.eigvalsh(0.5 * (M.values + M.values.conj().T))


def operator_norm(M: OperatorMatrix | np.ndarray) -> float:
    """Largest singular value.

    For an ``OperatorMatrix`` flagged Hermitian it is max |eigenvalue| of
    the symmetrized matrix, as in ``spectrum``; otherwise, and for every
    raw array, a dense SVD.
    """
    if isinstance(M, OperatorMatrix) and M.is_hermitian:
        return float(np.max(np.abs(_hermitian_eigvals(M))))
    vals = M.values if isinstance(M, OperatorMatrix) else np.asarray(M)
    return float(np.linalg.svd(vals, compute_uv=False)[0])


def spectrum(M: OperatorMatrix, reference=None) -> SpectrumReport:
    """Dense eigenvalue multiset; symmetric solver for Hermitian matrices.

    The norm estimate is the largest singular value: max |eigenvalue| of the
    symmetrized matrix when Hermitian, a dense SVD otherwise.  The size is
    not capped here; the CLI rejects sizes above its dense cap.
    """
    try:
        if M.is_hermitian:
            eigs = _hermitian_eigvals(M).astype(complex)
        else:
            eigs = np.linalg.eigvals(M.values)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigenvalue computation failed: {exc}") from exc
    if not np.all(np.isfinite(eigs)):
        raise ArithmeticError("eigenvalue computation did not converge")
    interval = ((float(eigs.real.min()), float(eigs.real.max()))
                if M.is_hermitian else None)
    # the singular values of a Hermitian matrix are its |eigenvalues|
    norm = (float(np.max(np.abs(eigs))) if M.is_hermitian
            else operator_norm(M))
    hd = None
    if reference is not None:
        hd = hausdorff_distance(eigs, np.asarray(reference))
    return SpectrumReport(values=eigs, is_real=M.is_hermitian,
                          norm_estimate=norm, interval=interval,
                          hausdorff=hd)


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite complex multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass
class EquivalenceSpec:
    """Configuration of one dual-route operator comparison."""

    tag: str                      # cto1 | cto2 | cto3
    atom: Atom
    alpha: Symbol1D | None = None
    beta: Symbol1D | None = None
    xi_grid: LineGrid | None = None
    seed: int = 0
    tolerance: float | None = None

    DEFAULT_TOL = {"cto1": 1e-3, "cto2": 5e-3, "cto3": 5e-3}

    def __post_init__(self):
        if self.tag not in self.DEFAULT_TOL:
            raise ValueError(f"unknown equivalence tag {self.tag!r}")
        if self.xi_grid is None:
            n = 256 if self.tag == "cto1" else 128
            self.xi_grid = default_operator_grid(self.atom.case, n)
        if self.tolerance is None:
            self.tolerance = self.DEFAULT_TOL[self.tag]


@dataclass
class VerificationReport:
    case: str
    atom: str
    symbol: str
    N: int
    norm_discrepancy: float
    hausdorff: float
    action_error_max: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "case": self.case, "atom": self.atom, "symbol": self.symbol,
            "N": self.N, "norm_discrepancy": self.norm_discrepancy,
            "hausdorff": self.hausdorff,
            "action_error_max": self.action_error_max,
            "tolerance": self.tolerance, "pass": self.passed,
            **self.extras,
        }


def verify_equivalence(espec: EquivalenceSpec) -> VerificationReport:
    """Build the direct and the specialized operator; report discrepancies.

    Never raises on failure: the report carries ``passed=False`` instead.
    """
    atom, grid = espec.atom, espec.xi_grid
    if espec.tag == "cto1":
        spec = SymbolSpec.first_variable(espec.alpha)
        other = build_multiplication(gamma(atom, espec.alpha, grid, rule="grid"))
    elif espec.tag == "cto2":
        spec = SymbolSpec.second_variable(espec.beta)
        other = build_integral(atom, espec.beta, grid)
    else:
        spec = SymbolSpec.separable(espec.alpha, espec.beta)
        other = build_pseudodiff(atom, espec.alpha, espec.beta, grid)
    direct = build_direct(atom, spec, grid)

    direct_spec = spectrum(direct)
    dn = direct_spec.norm_estimate
    norm_disc = operator_norm(direct.values - other.values) / dn if dn else 0.0
    hd = hausdorff_distance(direct_spec.values, spectrum(other).values)
    rng = np.random.default_rng(espec.seed)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
        dv = direct.values @ v
        ref = np.linalg.norm(dv)
        err = np.linalg.norm(dv - other.values @ v) / (ref if ref else 1.0)
        worst = max(worst, err)
    tol = espec.tolerance
    passed = norm_disc <= tol and hd <= tol * max(1.0, dn) and worst <= tol
    return VerificationReport(
        case=atom.case, atom=atom.name, symbol=spec.descriptor,
        N=grid.count, norm_discrepancy=norm_disc, hausdorff=hd,
        action_error_max=worst, tolerance=tol, passed=passed,
        extras={"builder": other.builder, "seed": espec.seed,
                "lowrank_rank": direct.lowrank_rank,
                "lowrank_tail": direct.lowrank_tail})


# -- signal filtering ---------------------------------------------------------------

# Smallest fiber coverage (``Fibers.coverage``) of a signal's omega side that
# ``filter_signal`` accepts: below it most of the signal lies outside the
# atom's first-coordinate range, where every operator returns ~0.
MIN_FIBER_COVERAGE = 0.5


def _first_coordinate_range(g1) -> str:
    if isinstance(g1, ScaleGrid):
        return f"scales [{g1.u_min:g}, {g1.u_max:g}]"
    return f"translations [{g1.start:g}, {g1.stop:g})"


def filter_signal(atom: Atom, spec: SymbolSpec, f: SampledFunction,
                  method: str = "fast", *, fibers: Fibers | None = None):
    """Apply the localization operator with symbol ``spec`` to a signal.

    Both paths act on the signal's omega side h (``fields.omega_side``:
    f_hat for wavelets, f for windows) and map the result back onto f's
    grid.  slow: the analysis field (``analyze``, bargmann_adjoint of h with
    wavelet translations on f's grid) masked by the symbol, then
    ``bargmann`` onto h's grid.  fast: first-variable symbols only; h times
    the grid-rule gamma on h's grid.

    ``fibers`` is the atom's record on h's grid
    (``fields.omega_grid(atom.case, f.grid)``); one is built when omitted,
    and both paths share it.  A signal whose fiber coverage
    (``Fibers.coverage`` of h) is below ``MIN_FIBER_COVERAGE`` lies outside
    the atom's first-coordinate range and raises ``ValueError``.

    method="compare" returns (fast, slow, relative_deviation).
    """
    if method not in ("fast", "slow", "compare"):
        raise ValueError(f"unknown method {method!r}")
    if method != "slow" and spec.kind != "first":
        raise ValueError(
            "the fast path requires a first-variable symbol; got "
            f"{spec.descriptor}")
    h = omega_side(atom.case, f)
    fibers = Fibers.on(atom, h.grid, fibers)
    coverage = fibers.coverage(h)
    if coverage < MIN_FIBER_COVERAGE:
        raise ValueError(
            f"fiber coverage {coverage:.3g} of the signal is below "
            f"{MIN_FIBER_COVERAGE:g}: the signal lies outside the atom's "
            f"first-coordinate range, {_first_coordinate_range(atom.g1)}")

    def slow_path():
        W = analyze(atom, f, fibers=fibers)
        # masked in place: W's array belongs to this path alone
        W.values *= spec.evaluate_field(atom.g1.nodes, W.g2.samples)
        g = bargmann(atom, W, out_grid=h.grid, fibers=fibers)
        return omega_side(atom.case, g, back_to=f.grid)

    def fast_path():
        gf = gamma(atom, spec.alpha, h.grid, rule="grid", fibers=fibers)
        g = SampledFunction(h.grid, h.values * gf.values)
        return omega_side(atom.case, g, back_to=f.grid)

    if method == "slow":
        return slow_path()
    if method == "fast":
        return fast_path()
    fast, slow = fast_path(), slow_path()
    ref = slow.norm()
    dev = math.sqrt(np.sum(np.abs(fast.values - slow.values) ** 2)
                    * f.grid.step) / (ref if ref else 1.0)
    return fast, slow, dev
