"""Discretized localization operators on the second phase-plane coordinate.

Every operator here is the compression of a phase-plane localization
operator to a finite frequency window, acting on coefficient vectors over
that window with the Riemann-sum inner product.  Four builders produce the
same operator along different routes:

* ``build_direct`` -- the conjugated pipeline: embedding, backward axis-2
  transform, pointwise multiply by the symbol, forward transform, projection.
  This is the reference route.  It uses no structure the symbol may have
  beyond its numerical rank: on the builders' grids the transform sandwich
  F_fwd diag(a_k) F_back of one first-coordinate row a_k of the sampled
  symbol is linear in a_k and depends only on the lag i - j, periodically
  with period n (the discrete transform wraps lags around), so a rank-r
  factorization a = sum_r q_r v_r^T of the K x n symbol field assembles the
  matrix as r Gram products (one per q_r), each times an n x n gather of
  the lag generator of v_r; one transform gives the generators of all ranks.
  Each rank runs over the first-coordinate rows where w q_r and the fiber
  record are nonzero.  Every Gram product, here and in the overlap kernels,
  is the record's ``Fibers.gram``, whose docstring states its flush bound
  and its real GEMM.  When every rank's generator is a delta at lag 0
  (every first-variable symbol on the builders' grids) the matrix is
  diagonal: its n entries are summed from those rows of the record, with
  no Gram product, and held as they are.
  The field is the symbol on the grid cells, ``SymbolSpec.cell_field``, the
  one place a symbol meets the grid.  The factors come from greedy
  column-pivoted deflation of its nonzero rows, which stops at the first
  rank whose residual has a Frobenius norm of at most ``LOWRANK_TAIL`` =
  1e-13 relative to the field's norm; the rank, the tail and the most rows
  a rank ran over are recorded on the result.  It shares only the atom's
  fiber record (``Atom.fibers``) and the seam with the routes below:
  neither the overlap kernels nor gamma (nor the record's ``power_sums``)
  nor the difference-lattice factor.
* ``build_multiplication`` -- diagonal operator of the scalar symbol gamma
  (first-variable symbols diagonalize), held as its n diagonal entries.
* ``build_pseudodiff`` -- compound-symbol form for separable symbols: the
  weighted overlap kernel times the transformed second-variable factor
  evaluated on the frequency difference lattice.  (The phase sums of the
  iterated integral collapse to a function of x - y, so one transform of
  the second-variable factor assembles every row.)
* ``build_integral`` -- integral form for second-variable symbols, which
  is the compound-symbol form with alpha = 1: the weighted kernel is then
  the overlap kernel.  Both routes are one assembly, ``_compound``.

``verify_equivalence`` builds the direct matrix and the specialized one that
the symbol's kind picks, and reports their discrepancy in operator norm,
eigenvalue Hausdorff distance and action on random vectors.

The sandwich's phases are exact at quarter turns (``fourier._cis``), and
on the builders' grids every phase is +-1: the lag generator of a row that
is constant in s is then an exact delta, so a first-variable direct matrix
has no nonzero off-diagonal entry.  A diagonal operator is one given as
its n diagonal entries, and is held as them (``OperatorMatrix.diagonal``);
its n x n ``values`` are built only when read.  What a diagonal operator
or a real spectrum gives is read off, with no n x n array, product or
solver: spectrum (the diagonal, sorted when Hermitian), norm (largest
diagonal modulus), commutator of a diagonal pair (0), norm discrepancy of
a diagonal pair (max |d_A - d_B|), action check of a diagonal pair
(elementwise), the ``verify algebra`` tau-isometry (sums of diagonals)
and the Hausdorff distance of real spectra (sorted neighbours).  Matrices
given n x n, whatever their entries, and complex spectra keep the dense
paths: odd n, off-centre windows and cto2/cto3.
Both routes take the transform of a row that is real and even mod n as
real (``_Sandwich.real_where_even``): with a real symbol even in s on a
real record and the builders' grids, the matrix is exactly real, and
every route builds it as float64 (``OperatorMatrix``'s dtype contract):
``spectrum`` and ``operator_norm`` run it in real arithmetic, and a real
Hermitian matrix goes to the real symmetric solver.

``operator_norm`` takes the largest singular value of a matrix flagged
Hermitian from its eigenvalues, and of any other dense matrix from the
certified Lanczos estimate of ``_lanczos_norm`` (the dense SVD when it
has no certificate).  Values are in the supported range of ``symbols``,
and a bare array passed to ``operator_norm`` is checked against it.

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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atoms import Atom, Fibers, _hull, _row_blocks
from .fields import _analysis_axis, _stream, axis2_sign, omega_side
from .fourier import _sandwich
from .grids import LineGrid, SampledFunction, ScaleGrid, induced_grid
from .kernels import (GammaFunction, OperatorMatrix, SpectrumReport, gamma,
                      overlap_kernel, weighted_overlap_kernel)
from .symbols import (RANGE_EXPONENT, Symbol1D, SymbolSpec, _exponent,
                      _in_range, _ldexp)

__all__ = [
    "OperatorMatrix",
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


def default_operator_grid(case: str, n: int) -> LineGrid:
    """Documented frequency window for operator work."""
    if case == "gabor":
        return LineGrid.centered(8.0, n)
    return LineGrid(2.0 ** -4, 4.0 / n, n)


def case_sign(case: str) -> int:
    """Sign of the difference-lattice argument in the integral form."""
    return 1 if case == "wavelet" else -1


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

    Greedy column-pivoted deflation of a working copy R of the field's
    nonzero row hull, the K' rows from the first to the last that hold a
    nonzero entry (Q is zero outside them), copied in C order whatever the
    field's strides (a broadcast included), so the sums round one way: take
    the column of largest residual norm, q = R[:, j] / ||R[:, j]||,
    v = q^H R, and subtract q v^T from R.  The column norms are recomputed
    from R after every step, never downdated, so the stopping test reads the
    true residual: the loop stops at the first rank r with ||R||_F <=
    ``LOWRANK_TAIL`` * ||a||_F.  The work is O(r K' n).  Returns Q (K x r),
    V (r x n) and the relative tail ||R||_F / ||a||_F dropped.

    R starts as a * 2^-e, e the ``_exponent`` of a, and Q is scaled
    back by 2^e: both exact, so no squared entry underflows.
    """
    K, n = a_field.shape
    rows = _hull(a_field.any(axis=1))
    R = np.array(a_field[rows], order="C")
    e = _exponent(R)
    _ldexp(R, -e)
    col_sq = _column_sq_norms(R)
    a_sq = float(col_sq.sum())
    qs, vs = [], []
    # in exact arithmetic min(K', n) steps empty the field: bound the loop
    # there
    while len(qs) < min(R.shape) and col_sq.sum() > LOWRANK_TAIL ** 2 * a_sq:
        j = int(np.argmax(col_sq))
        q = R[:, j] / math.sqrt(col_sq[j])
        v = q.conj() @ R
        R -= np.outer(q, v)
        col_sq = _column_sq_norms(R)
        qs.append(q)
        vs.append(v)
    tail = math.sqrt(float(col_sq.sum()) / a_sq) if a_sq else 0.0
    # reshape keeps the shapes (0, K') and (0, n) for a zero field
    Qt = np.zeros((len(qs), K), dtype=R.dtype)
    Qt[:, rows] = np.array(qs, dtype=R.dtype).reshape(len(qs), len(R))
    V = np.array(vs, dtype=R.dtype).reshape(len(vs), n)
    _ldexp(Qt, e)
    return Qt.T, V, tail


def build_direct(atom: Atom, spec: SymbolSpec,
                 xi_grid: LineGrid) -> OperatorMatrix:
    """Pipeline operator, assembled from a low-rank factorization of the symbol.

    The pipeline (embedding, backward axis-2 transform, multiply by the
    symbol a(r_k, s), forward transform, fiber projection) has entries

        M[i, j] = sum_k w_k conj(L[k, i]) L[k, j] (F_fwd diag(a_k) F_back)[i, j]

    with L the fiber matrix, w the first-coordinate weights and a_k the k-th
    row of the sampled symbol field.  The sandwich is linear in a_k, so a
    rank-r factorization a = sum_r q_r v_r^T of the K x n field splits M
    into r elementwise products,

        M = sum_r G_r * S_r,   G_r = L^H diag(w q_r) L,
        S_r = F_fwd diag(v_r) F_back.

    The two transforms have opposite signs, so S_r depends only on the lag
    i - j, and since s_grid is centred it is periodic in the lag with
    period n: S_r[i, j] = c_r[(i - j + n//2) mod n], where the generator
    c_r = step * F_fwd(v_r) sits on the centred lag grid
    ``induced_grid(s_grid)`` (step: the xi_grid step).  One ``_sandwich``
    call gives the generators of all ranks.  Every kind is factored one
    way: ``_lowrank_factors`` (greedy deflation to a Frobenius tail of
    ``LOWRANK_TAIL`` = 1e-13 relative to ||a||_F) of the field the seam
    ``SymbolSpec.cell_field`` gives, broadcast to K rows; the sandwich
    broadcasts a one-column V, so no one-variable field is formed K x n.
    First-variable, second-variable and separable symbols have rank 1.

    Only the rows where w q_r and the fiber record (``Atom.fibers``) are
    both nonzero add to rank r: ``Fibers.rows_for`` gives their hull, and
    every other row adds only zeros.  The rank, the relative tail and the
    most rows any rank ran over are recorded on the result as
    ``lowrank_rank``, ``lowrank_tail`` and ``gram_rows``.

    When every generator is a lag-0 delta -- first-variable symbols on the
    builders' grids -- S_r is c_r[n//2] times the identity, M is diagonal
    and held as its n diagonal entries,

        d_i = sum_r c_r[n//2] sum_k (w q_r)_k conj(L[k, i]) L[k, i],

    summed over those rows read in place from the record
    (``_diagonal_gram``), in O(K' n) per rank: no Gram product and no
    copy of the rows.  Any other M is dense: each rank, a lag-0 delta
    among them, costs one Gram product G_r = ``Fibers.gram`` (w q_r), whose
    docstring states its flush bound and its real GEMM, and one elementwise
    product with S_r, a strided view of c_r tiled three times
    (``_add_lag_product``).  M is float64 when the record, the factors and
    every generator are real.
    """
    n = xi_grid.count
    s_grid = induced_grid(xi_grid)
    field = np.atleast_2d(spec.cell_field(atom.g1, s_grid))
    Q, V, tail = _lowrank_factors(
        np.broadcast_to(field, (atom.g1.count, field.shape[1])))
    del field  # not held through the Gram products
    fib = atom.fibers(xi_grid.samples)
    w = atom.g1.measure_weights
    # row r: the generator c_r, lag (m - n//2) * xi_grid.step at entry m
    lags = _sandwich(s_grid, axis2_sign(atom.case, "forward"),
                     induced_grid(s_grid)).real_where_even(V)
    lags *= xi_grid.step
    diagonal = all(map(_is_lag0_delta, lags))
    M = np.zeros(n if diagonal else (n, n),
                 dtype=np.result_type(fib.dtype, Q, lags))
    gram_rows = 0
    # each rank's arrays dropped before the next: the peak is M, the fiber
    # record and one rank's temporaries, whatever the rank
    for q, c in zip(Q.T, lags):
        wq = w * q
        if diagonal:
            rows = fib.rows_for(wq)
            M += _diagonal_gram(fib, rows, wq[rows]) * c[n // 2]
        else:
            G, rows = fib.gram(wq)
            _add_lag_product(M, G, c)
            del G
        gram_rows = max(gram_rows, rows.stop - rows.start)
    return OperatorMatrix(xi_grid, M, "direct", atom.name, spec.descriptor,
                          symbol_is_real=spec.is_real,
                          lowrank_rank=len(V), lowrank_tail=tail,
                          gram_rows=gram_rows)


def _diagonal_gram(fib: Fibers, rows: slice,
                   weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] conj(L[k, i]) L[k, i] for every column i of L, the
    record ``fib``'s rows ``rows``: the diagonal of the Gram product
    L^H diag(weights) L, without forming it.

    L is read a block of ``_BLOCK_ROWS`` rows at a time (``Fibers.dense``:
    in place, or a windowed record's block made dense): each block's
    |L|^2, real, is summed against the weights in one real product, on the
    interleaved float view of complex weights, so a real record is never
    cast to complex.  The dtype is complex when the weights are.
    """
    # one column of real weights, or the real and imaginary parts
    W = weights.view(float).reshape(-1, 2 if np.iscomplexobj(weights) else 1)
    acc = np.zeros((fib.omegas.size, W.shape[1]))
    for block in _row_blocks(rows.stop - rows.start):
        B = fib.dense(slice(rows.start + block.start, rows.start + block.stop))
        P = B.real * B.real
        if np.iscomplexobj(B):
            P += np.square(B.imag)
        acc += P.T @ W[block]
    return acc.view(complex)[:, 0] if W.shape[1] == 2 else acc[:, 0]


def _is_lag0_delta(c: np.ndarray) -> bool:
    """True when the lag generator c's one nonzero entry is lag 0."""
    return c[len(c) // 2] != 0 and np.count_nonzero(c) == 1


def _add_lag_product(M: np.ndarray, G: np.ndarray, c: np.ndarray):
    """M += G * S in place, for the n x n M, with S[i, j] =
    c[(i - j + n//2) mod n] the lag table of the generator c: in real
    arithmetic when M, G and c are real."""
    n = len(c)
    # a block of rows at a time: no n x n temporary
    S = _lag_table(np.tile(c, 3), n + n // 2, 1, n)
    for rows in _row_blocks(n):
        M[rows] += G[rows] * S[rows]


# -- specialized routes -----------------------------------------------------------

def build_multiplication(gf: GammaFunction) -> OperatorMatrix:
    """Diagonal operator of a sampled scalar symbol, held as its samples."""
    return OperatorMatrix(gf.grid, gf.values, "multiplication",
                          gf.atom_name, gf.symbol_descriptor,
                          symbol_is_real=gf.is_real)


def _lag_table(gen: np.ndarray, zero: int, sign: int, n: int) -> np.ndarray:
    """The n x n read-only view T[i, j] = gen[zero + sign*(i - j)] of the
    lag generator ``gen``, whose entry ``zero`` is lag 0; gen must reach
    n - 1 entries either side of it."""
    W = sliding_window_view(gen, n)[zero - n + 1:zero + 1]
    return W[:, ::-1] if sign > 0 else W[::-1]


def _beta_hat_on_lattice(atom: Atom, beta: Symbol1D,
                         xi_grid: LineGrid) -> np.ndarray:
    """Transformed second-variable factor at sigma*(xi_i - xi_j).

    beta is sampled on the span of the dual axis, 4 times denser: the
    transformed samples then live on the frequency difference lattice with
    4 times the reach.  Node k of the 4n-point transform grid sits at
    (k - 2n) * xi_grid.step, so the lattice difference sigma*(i - j), of
    size at most n - 1, is node 2n + sigma*(i - j).  Returns the full
    difference table, shape (n, n), as a ``_lag_table`` view, float64
    when ``real_where_even`` takes the transform as real.
    """
    s_grid = induced_grid(xi_grid)
    count, step = s_grid.count * 4, s_grid.step / 4
    bg = LineGrid(-(count // 2) * step, step, count)
    bhat = _sandwich(bg, "forward", induced_grid(bg)).real_where_even(
        beta.cell_values(bg)[None, :])[0]
    n = xi_grid.count
    return _lag_table(bhat, 2 * n, case_sign(atom.case), n)


def _compound(atom: Atom, spec: SymbolSpec,
              xi_grid: LineGrid) -> OperatorMatrix:
    """Compound-symbol route of a second-variable or separable ``spec``.

    Entry [i, j] = K[i, j] * beta_hat(sigma*(xi_i - xi_j)) * step, with the
    case-dependent sigma and K the overlap kernel weighted by spec.alpha,
    unweighted when the spec has none (alpha = 1, the integral route).
    """
    kernel = (overlap_kernel(atom, xi_grid) if spec.alpha is None
              else weighted_overlap_kernel(atom, spec.alpha, xi_grid))
    vals = kernel.values * _beta_hat_on_lattice(atom, spec.beta, xi_grid)
    vals *= xi_grid.step
    return OperatorMatrix(xi_grid, vals,
                          "integral" if spec.alpha is None else "pseudodiff",
                          atom.name, spec.descriptor,
                          symbol_is_real=spec.is_real)


def build_integral(atom: Atom, beta: Symbol1D,
                   xi_grid: LineGrid) -> OperatorMatrix:
    """Integral-operator form for second-variable symbols (``_compound``)."""
    return _compound(atom, SymbolSpec.second_variable(beta), xi_grid)


def build_pseudodiff(atom: Atom, alpha: Symbol1D, beta: Symbol1D,
                     xi_grid: LineGrid) -> OperatorMatrix:
    """Compound-symbol form for separable symbols (``_compound``).

    The iterated integral over (y, xi) with compound symbol
    Gamma(x, y) * beta(xi) and the case-dependent oscillatory phase reduces,
    row by row, to the weighted overlap kernel times the transformed
    second-variable factor on the difference lattice.
    """
    return _compound(atom, SymbolSpec.separable(alpha, beta), xi_grid)


# -- spectra and comparisons -------------------------------------------------------

def _hermitian_eigvals(M: OperatorMatrix) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix H = (M + M^H) / 2, ascending:
    ``eigvalsh`` of H, or for a diagonal M the sorted real diagonal of H
    (what ``eigvalsh`` returns for it), taken from M's own diagonal entry
    by entry as H would hold it, without forming H.  A real M (float64)
    forms H in real arithmetic and takes the real symmetric solver."""
    # halved before the sum, the order the pinned spectra's bits come from
    if M.is_diagonal:
        d = 0.5 * M.diagonal
        d += d.conj()
        return np.sort(d.real)
    H = 0.5 * M.values
    H += H.T.conj()
    return np.linalg.eigvalsh(H)


# Certificate of the Lanczos norm estimate: the largest residual of the top
# Ritz pair, relative to its Ritz value, and the steps allowed before the
# dense SVD takes over.
NORM_RESIDUAL_TOL = 1e-13
NORM_MAX_STEPS = 64


def _lanczos_norm(A: np.ndarray) -> float | None:
    """Largest singular value of A, certified, or None for the SVD fall-back.

    Lanczos on H = A^H A scaled by 4^-e, 2^e twice the ``_exponent`` scale
    of A v_0, whose entries then have moduli below 1 (exact, so no square
    in a norm overflows or underflows, subnormal matrices included), with
    full reorthogonalization (classical Gram-Schmidt applied twice) and a
    fixed seeded start vector v_0, so repeats are bit-identical.  Step k gives
    the tridiagonal T_k = V_k^H H V_k; its top eigenpair (theta, s) has the
    residual ||H y - theta y|| = beta_k |s_k| (beta_k the next off-diagonal
    entry), so once beta_k |s_k| <= ``NORM_RESIDUAL_TOL`` * theta an
    eigenvalue of H lies within that distance of theta, and sqrt(theta)
    within half the tolerance, relative, of a singular value.  A Ritz value never exceeds the largest eigenvalue,
    so the estimate never exceeds sigma_1 beyond rounding; it is sigma_1
    unless v_0 is nearly orthogonal to the top right singular space, which
    for a random start has small probability (Kuczynski & Wozniakowski
    1992).  None when A v_0 = 0, at a zero Ritz value (breakdown), or
    without the certificate after ``NORM_MAX_STEPS`` steps.
    """
    n = A.shape[1]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    if np.iscomplexobj(A):
        v = v + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    u = A @ v
    e = _exponent(u) + 1
    if not u.any():
        return None
    steps = min(NORM_MAX_STEPS, n)
    V = np.empty((steps, n), dtype=v.dtype)
    T = np.zeros((steps, steps))
    for k in range(steps):
        V[k] = v
        if k:
            u = A @ v
        _ldexp(u, -e)
        w = np.conj(np.conj(u) @ A)
        _ldexp(w, -e)
        T[k, k] = np.vdot(v, w).real
        Vk = V[:k + 1]
        for _ in range(2):
            w -= Vk.T @ (Vk.conj() @ w)
        beta = float(np.linalg.norm(w))
        theta, S = np.linalg.eigh(T[:k + 1, :k + 1])
        if not theta[-1] > 0.0:
            return None
        if beta * abs(S[-1, -1]) <= NORM_RESIDUAL_TOL * theta[-1]:
            return math.ldexp(math.sqrt(theta[-1]), e)
        if k + 1 < steps:
            T[k, k + 1] = T[k + 1, k] = beta
            v = w / beta
    return None


def operator_norm(M: OperatorMatrix | np.ndarray) -> float:
    """Largest singular value.

    For an ``OperatorMatrix`` flagged Hermitian it is max |eigenvalue| of
    the symmetrized matrix, as in ``spectrum``.  A diagonal operator, an
    ``OperatorMatrix`` given by its entries or a 1-D array of them, has it
    read off exactly as max |d_i|.  Of an n x n matrix it is the certified
    Lanczos estimate of ``_lanczos_norm``, or the dense SVD's sigma_1 where
    that has no certificate, both in real arithmetic on a real operator
    (float64) and on a bare array with no nonzero imaginary part.  A bare
    array that is not non-empty 1-D or 2-D, or has a part above 2^(2B),
    past what a symbol in the supported range of ``symbols`` builds, or not
    finite, raises ``ValueError``.
    """
    if isinstance(M, OperatorMatrix):
        if M.is_hermitian:
            return float(np.max(np.abs(_hermitian_eigvals(M))))
        vals = M.diagonal if M.is_diagonal else M.values
    else:
        vals = _in_range(np.asarray(M), "matrix",
                         exponent=2 * RANGE_EXPONENT)
        if vals.ndim not in (1, 2) or not vals.size:
            raise ValueError("operator_norm needs a non-empty 1-D or 2-D "
                             f"array, got shape {vals.shape}")
        if np.iscomplexobj(vals) and not vals.imag.any():
            vals = np.ascontiguousarray(vals.real)
    if vals.ndim == 1:
        return float(np.max(np.abs(vals)))
    est = _lanczos_norm(vals)
    if est is not None:
        return est
    return float(np.linalg.svd(vals, compute_uv=False)[0])


def spectrum(M: OperatorMatrix) -> SpectrumReport:
    """Dense eigenvalue multiset; symmetric solver for Hermitian matrices.

    A diagonal operator -- every first-variable direct matrix on the
    default windows, held as its entries -- has its spectrum read off the
    diagonal, with no solver: sorted when Hermitian, as ``eigvalsh``
    returns it, and in order otherwise, as ``eigvals`` does.  The norm
    estimate is the largest singular value: max |eigenvalue| of the
    symmetrized matrix when Hermitian, otherwise ``operator_norm``.  The
    size is not capped here; the CLI rejects sizes above its dense cap.
    """
    try:
        if M.is_hermitian:
            eigs = _hermitian_eigvals(M).astype(complex)
        elif M.is_diagonal:
            eigs = M.diagonal.copy()
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
    return SpectrumReport(values=eigs, is_real=M.is_hermitian,
                          norm_estimate=norm, interval=interval)


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite complex multisets.

    The distances |a_i - b_j| are taken over blocks of ``_BLOCK_ROWS``
    points of a at a time: each block gives its rows' minima and updates
    the running column minima, so no n x m table is made, and a minimum,
    which does not depend on the order of its terms, has the bits of the
    whole table's.  Two real multisets (zero imaginary parts) skip the
    distances: fl(x - y) is monotone in y, since rounding is, so the
    nearest points below and above x in the other set, sorted, give the
    row minimum bit for bit.  A NaN entry gives NaN, as the table does.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if not (a.size and b.size):
        raise ValueError("the Hausdorff distance of an empty multiset is "
                         "undefined")
    if a.imag.any() or b.imag.any():
        # the largest row minimum, and the column minima; np.maximum and
        # np.minimum carry a NaN on
        far, cols = -np.inf, np.full(b.size, np.inf)
        for rows in _row_blocks(a.size):
            d = np.abs(a[rows, None] - b[None, :])
            far = np.maximum(far, d.min(axis=1).max())
            np.minimum(cols, d.min(axis=0), out=cols)
        return float(max(far, cols.max()))

    def farthest(x, y):
        # the largest distance of a point of x to the sorted y
        k = np.searchsorted(y, x)
        return np.max(np.minimum(np.abs(x - y[np.maximum(k - 1, 0)]),
                                 np.abs(x - y[np.minimum(k, len(y) - 1)])))

    a, b = np.sort(a.real), np.sort(b.real)
    return float(np.maximum(farthest(a, b), farthest(b, a)))


def verify_equivalence(atom: Atom, spec: SymbolSpec, xi_grid: LineGrid,
                       tolerance: float, seed: int = 0) -> dict:
    """Build the direct operator and the specialized route that ``spec.kind``
    picks; report their discrepancies as a JSON-ready dict.

    first -> ``build_multiplication`` of the grid-rule gamma, second ->
    ``build_integral``, separable -> ``build_pseudodiff``.  A general symbol
    has no specialized route and raises ``ValueError``.  A failed comparison
    never raises: the report carries ``"pass": False`` instead.
    """
    if spec.kind == "first":
        other = build_multiplication(gamma(atom, spec.alpha, xi_grid,
                                           rule="grid"))
    elif spec.kind == "second":
        other = build_integral(atom, spec.beta, xi_grid)
    elif spec.kind == "separable":
        other = build_pseudodiff(atom, spec.alpha, spec.beta, xi_grid)
    else:
        raise ValueError(f"no specialized route for the {spec.kind} symbol "
                         f"{spec.descriptor}")
    direct = build_direct(atom, spec, xi_grid)

    direct_spec = spectrum(direct)
    dn = direct_spec.norm_estimate
    # a diagonal pair: the difference is diagonal, its norm the largest
    # modulus of d_A - d_B, and the pair acts entry by entry (the matvecs'
    # other terms are +-0)
    diagonal = direct.is_diagonal and other.is_diagonal
    A, B = ((direct.diagonal, other.diagonal) if diagonal
            else (direct.values, other.values))
    norm_disc = operator_norm(A - B) / dn if dn else 0.0
    hd = hausdorff_distance(direct_spec.values, spectrum(other).values)
    apply = np.multiply if diagonal else np.matmul
    rng = np.random.default_rng(seed)
    vs = [rng.standard_normal(xi_grid.count)
          + 1j * rng.standard_normal(xi_grid.count) for _ in range(10)]

    def actions(X):
        # one complex copy at a time: zgemv gives the reported bits
        X = X.astype(complex, copy=False)
        return [apply(X, v) for v in vs]

    errs = []
    for dv, bv in zip(actions(A), actions(B)):
        diff = dv - bv
        # scaled exactly, so no square in the norms underflows
        e = _exponent(dv)
        _ldexp(dv, -e)
        _ldexp(diff, -e)
        ref = np.linalg.norm(dv)
        errs.append(np.linalg.norm(diff) / (ref if ref else 1.0))
    worst = float(np.max(errs))
    passed = (norm_disc <= tolerance and hd <= tolerance * max(1.0, dn)
              and worst <= tolerance)
    return {"case": atom.case, "atom": atom.name, "symbol": spec.descriptor,
            "N": xi_grid.count, "norm_discrepancy": norm_disc,
            "hausdorff": hd, "action_error_max": worst,
            "tolerance": tolerance, "pass": passed, "builder": other.builder,
            "seed": seed, "lowrank_rank": direct.lowrank_rank,
            "lowrank_tail": direct.lowrank_tail,
            "gram_rows": direct.gram_rows}


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
                  method: str = "fast"):
    """Apply the localization operator with symbol ``spec`` to a signal.

    Both paths act on the signal's omega side h (``fields.omega_side``:
    f_hat for wavelets, f for windows) and map the result back onto f's
    grid.  slow: the analysis field (``analyze``, bargmann_adjoint of h with
    wavelet translations on f's grid) masked by the symbol, then
    ``bargmann`` onto h's grid, for any symbol kind.  It runs through the
    row-block core ``fields._stream``, so it holds one block of
    ``atoms._BLOCK_ROWS`` rows of the field and of the mask, never the
    K x N field or mask; its output has the bits of ``bargmann`` of the
    whole masked field.  fast: first-variable symbols only; h times the
    grid-rule gamma on h's grid.  A signal out of the supported range of
    ``symbols`` raises ``ValueError`` before either path runs.

    Both paths read the atom's fiber record on h's grid (``Atom.fibers``),
    so a call builds at most one fiber matrix.  A signal whose fiber
    coverage (``Fibers.coverage`` of h) is below ``MIN_FIBER_COVERAGE`` lies
    outside the atom's first-coordinate range and raises ``ValueError``.

    Returns (output, coverage); method="compare" returns
    (fast, slow, relative_deviation, coverage).
    """
    if method not in ("fast", "slow", "compare"):
        raise ValueError(f"unknown method {method!r}")
    if method != "slow" and spec.kind != "first":
        raise ValueError(
            "the fast path requires a first-variable symbol; got "
            f"{spec.descriptor}")
    _in_range(f.values, "signal")
    h = omega_side(atom.case, f)
    coverage = atom.fibers(h.grid.samples).coverage(h)
    if coverage < MIN_FIBER_COVERAGE:
        raise ValueError(
            f"fiber coverage {coverage:.3g} of the signal is below "
            f"{MIN_FIBER_COVERAGE:g}: the signal lies outside the atom's "
            f"first-coordinate range, {_first_coordinate_range(atom.g1)}")

    def back(vals):
        return omega_side(atom.case, SampledFunction(h.grid, vals),
                          back_to=f.grid)

    def slow_path():
        # both transforms and the mask for every symbol kind: the fast
        # path's gamma is the oracle this route is compared against
        g2 = _analysis_axis(atom.case, f.grid)
        return back(_stream(atom, g2, h=h, spec=spec, out_grid=h.grid))

    def fast_path():
        gf = gamma(atom, spec.alpha, h.grid, rule="grid")
        return back(h.values * gf.values)

    if method == "slow":
        return slow_path(), coverage
    if method == "fast":
        return fast_path(), coverage
    fast, slow = fast_path(), slow_path()
    # both scaled exactly by 2^-e, 2^e the ``_exponent`` scale of the slow
    # output, so no square of a difference overflows or underflows
    fv, sv = (np.array(g.values, dtype=complex) for g in (fast, slow))
    e = _exponent(sv)
    _ldexp(fv, -e)
    _ldexp(sv, -e)
    ref = SampledFunction(f.grid, sv).norm()
    dev = math.sqrt(np.sum(np.abs(fv - sv) ** 2)
                    * f.grid.step) / (ref if ref else 1.0)
    return fast, slow, dev, coverage
