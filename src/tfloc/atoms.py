"""Analyzing atoms: admissible wavelets and unit-norm windows.

Two families, selected by the ``case`` tag:

* ``wavelet`` -- real-valued atoms generating scale/translation transforms.
  Admissibility means the scale-invariant frequency energy
  ``integral_{0}^{inf} |psi_hat(t*xi)|^2 dt/t`` equals 1 for every nonzero
  test frequency.
* ``gabor`` -- unit L2-norm windows generating translation/modulation
  (short-time Fourier) transforms.

Every atom evaluates its profiles through callables.  Catalog atoms carry
exact closed forms in time and frequency, and their stored samples exist for
export and plotting; an atom imported from CSV (``io.import_atom``) takes
the linear interpolation of its samples as its profiles.  Linear
interpolation of a sampled band-limited profile smears its band edges by
one sample spacing, which is fatal to the 1e-10/1e-6 admissibility and
fiber tolerances, hence the closed-form route for the catalog.  Admissibility,
haar's normalization and the gaussian's unit norm integrate the closed forms
with the package's one adaptive rule, ``quadrature.gauss_kronrod``; every
integrand over |psi_hat|^2 reads ``Atom.eval_power``, which haar answers
from the real form of its squared profile.

``make_atom`` is the process's catalog: the first call per (case, name)
runs ``make_wavelet`` or ``make_window`` on the default grid, certificate
checks included, and builds the atom's cumulative profile table; every
call returns a new ``Atom`` sharing that verified entry's read-only parts
(samples, profiles, grid, normalization, ``profile_breakpoints`` and
the table), with an empty fiber-record slot of its own, so no record outlives
the atom it was built for.  ``make_wavelet`` and ``make_window`` build a
new atom on every call, for custom grids and patched profiles.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .grids import LineGrid, SampledFunction, ScaleGrid
from .quadrature import gauss_kronrod
from .symbols import _exponent, _ldexp

__all__ = [
    "Atom",
    "AdmissibilityError",
    "Fibers",
    "make_wavelet",
    "make_window",
    "WAVELET_NAMES",
    "WINDOW_NAMES",
]

LN2 = math.log(2.0)
WAVELET_NAMES = ("shannon", "haar")
WINDOW_NAMES = ("gaussian", "rect")

# Default quadrature domains for the first phase-plane coordinate.  The
# wavelet grid spans 16 octaves at 32 nodes per octave: one octave is then
# exactly 32 log-midpoint nodes, so band-limited-by-one-octave profiles
# integrate exactly.
DEFAULT_SCALE_RANGE = (2.0 ** -8, 2.0 ** 8)
DEFAULT_SCALE_COUNT = 512
DEFAULT_TRANSLATION_RANGE = (-16.0, 16.0)
DEFAULT_TRANSLATION_COUNT = 512

# first-coordinate rows per block of every streamed pass over a fiber
# record (``Atom.ell_matrix``, ``Fibers.power_sums`` and the transform chain
# of ``fields``): a 64 x 4096 complex block is 4 MiB
_BLOCK_ROWS = 64

# 2^-511, the square root of the smallest normal float64: a product of two
# parts at least this large is normal.  ``Fibers.gram`` reads the record with
# the parts below it set to +0 (its docstring gives the bound)
_FLUSH_BELOW = 2.0 ** -511


def _row_blocks(count: int):
    """Slices of ``_BLOCK_ROWS`` consecutive rows covering ``count`` rows."""
    for start in range(0, count, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, count))


def _flush(part: np.ndarray):
    """Set every real and imaginary part of ``part`` below ``_FLUSH_BELOW``
    in magnitude to +0, in place."""
    words = part.view(float)
    words[np.abs(words) < _FLUSH_BELOW] = 0.0


def _flush_rows(A: np.ndarray):
    """``_flush`` over the C-contiguous ``A``, a block of ``_BLOCK_ROWS``
    rows at a time: no temporary has A's size."""
    for rows in _row_blocks(len(A)):
        _flush(A[rows])


def _hull(flags) -> slice:
    """The smallest slice holding every True entry of the 1-D ``flags``;
    the empty slice at 0 when there is none."""
    at = np.flatnonzero(flags)
    return slice(int(at[0]), int(at[-1]) + 1) if at.size else slice(0, 0)


def _nonzero_words(V: np.ndarray, axis: int) -> np.ndarray:
    """Per row (``axis`` 1) or column (0) of ``V``: whether it holds a word,
    a real or an imaginary part, other than +0.  +0 is the one float whose
    bits are all zero, so that is a bitwise or of the words as integers."""
    parts = (V.real, V.imag) if np.iscomplexobj(V) else (V,)
    words = np.bitwise_or.reduce(parts[0].view(np.int64), axis=axis)
    for part in parts[1:]:
        words |= np.bitwise_or.reduce(part.view(np.int64), axis=axis)
    return words != 0


class AdmissibilityError(ValueError):
    """Atom construction failed its admissibility / normalization check."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


class Atom:
    """An analyzing atom with exact profiles and a default quadrature grid.

    Parameters
    ----------
    case : "wavelet" or "gabor"
    name : catalog identifier
    time_samples, freq_samples : stored samples (export)
    normalization : scalar factor applied to the raw profile
    g1 : the default quadrature grid for the first phase-plane coordinate
        (ScaleGrid for wavelets, LineGrid of translations for windows)
    time_profile, freq_profile : vectorized callables: the catalog's closed
        forms, or an imported atom's ``SampledFunction.interp`` of its
        samples (linear, zero outside their grid)
    power_profile : exact vectorized |freq_profile|^2 in a real closed
        form, or None to square the modulus of ``eval_freq``
    freq_support : for wavelets, (lo, hi) of |xi| outside which the frequency
        profile is negligible; integration bounds for admissibility.
    exact_support : (lo, hi), lo <= hi, of |xi| (wavelets) or x (windows)
        outside which the profile is exactly +0 at every float, or None
        when no such interval is declared (a profile truncated where it is
        only small, as the gaussian's and haar's, and imported atoms).  The
        catalog certifies it (``_certify_support``); ``Fibers`` stores an
        atom's record only in the column windows it allows.
    profile_breakpoints : |xi| (wavelets) or x (windows) at which every
        quadrature over the profile splits: the profile table, the
        admissibility integral and the adaptive gamma pass.  Catalog haar
        lists its profile zeros, the 2,047 even integers below 2^12; an
        imported atom the nodes of its interpolant; empty by default.
    time_support : for windows, (lo, hi) support of the window itself.
    healthy_range : documented range of the second coordinate on which the
        default g1 quadrature keeps fiber norms within fiber_tol.

    A profile is called with a float64 array and converts nothing:
    ``eval_time``, ``eval_freq`` and ``eval_power`` convert their input,
    and every other caller passes float64 grid samples or quadrature nodes.
    """

    def __init__(self, case, name, time_samples, freq_samples, normalization,
                 g1, time_profile, freq_profile, power_profile=None,
                 freq_support=None, profile_breakpoints=(), time_support=None,
                 healthy_range=None, fiber_tol=1e-6, exact_support=None):
        if case not in ("wavelet", "gabor"):
            raise ValueError(f"unknown case {case!r}")
        self.case = case
        self.name = name
        self.time_samples = time_samples
        self.freq_samples = freq_samples
        self.normalization = float(normalization)
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")
        self.g1 = g1
        self.time_profile = time_profile
        self.freq_profile = freq_profile
        self.power_profile = power_profile
        self.freq_support = freq_support
        self.profile_breakpoints = np.array(profile_breakpoints, dtype=float)
        self.profile_breakpoints.flags.writeable = False
        self.time_support = time_support
        self.healthy_range = healthy_range
        self.fiber_tol = fiber_tol
        self.exact_support = exact_support
        self._last_fibers = None  # (g1, record) of the last ``fibers`` build

    # -- profile evaluation -------------------------------------------------

    def eval_time(self, x):
        """phi(x) (psi(x) for wavelets): ``time_profile`` of float64 ``x``."""
        return self.time_profile(np.asarray(x, dtype=float))

    def eval_freq(self, xi):
        """psi_hat(xi) (phi_hat for windows): ``freq_profile`` of float64
        ``xi``."""
        return self.freq_profile(np.asarray(xi, dtype=float))

    def eval_power(self, xi):
        """|psi_hat(xi)|^2 (|phi_hat|^2 for windows), real."""
        if self.power_profile is not None:
            return self.power_profile(np.asarray(xi, dtype=float))
        return np.abs(self.eval_freq(xi)) ** 2

    def _profile_density(self, t):
        """|phi(t)|^2 (windows) or |psi_hat(t)|^2 / t (wavelets)."""
        if self.case == "wavelet":
            return self.eval_power(t) / t
        return np.abs(self.eval_time(t)) ** 2

    @cached_property
    def _profile_table(self):
        """(edges, P at the edges, summed panel error estimates) of P, the
        integral of ``_profile_density`` from the support's start: one
        ``gauss_kronrod`` integral per unit panel (log2 panel on the scale
        axis) split at the support's ends and ``profile_breakpoints``,
        summed in order.  One table serves both signs of xi: |psi_hat| is
        even on a wavelet's ``freq_support``, for the catalog's real
        wavelets and for an imported wavelet, whose support ends at its last
        positive frequency node (``io.import_atom``).  The arrays are
        read-only."""
        if self.case == "wavelet":
            lo, hi = self.freq_support
            cuts = np.exp2(np.arange(math.ceil(math.log2(lo)),
                                     math.floor(math.log2(hi)) + 1.0))
        else:
            lo, hi = self.time_support
            cuts = np.arange(math.ceil(lo), math.floor(hi) + 1.0)
        e = np.array(sorted(set(np.clip(
            [lo, hi, *cuts, *self.profile_breakpoints], lo, hi))))
        vals, errs = gauss_kronrod(
            lambda t, j: self._profile_density(t), e[:-1], e[1:],
            lambda j: f"{self!r} profile on [{e[j]:g}, {e[j + 1]:g}]")
        P = np.concatenate([[0.0], np.cumsum(vals.real)])
        e.flags.writeable = P.flags.writeable = False
        return e, P, errs.sum()

    # -- fiber profile ------------------------------------------------------

    def ell_matrix(self, omegas):
        """Fiber profiles on (self.g1 nodes) x omegas, shape (g1.count, len(omegas)):
        sqrt(z) conj(psi_hat(z omega)) at scales z (wavelets), conj(phi(omega - z))
        at translations z (windows).

        The general evaluator, and the oracle of every record (``Fibers``):
        it evaluates every entry, also outside the atom's ``exact_support``,
        where a windowed record stores nothing.  The dtype is ``_fiber_dtype``:
        float64 for a real profile, complex128 for a complex one.  The
        result is allocated once, before the blocks' temporaries (a glibc
        heap layout that saves about 0.5 MiB of peak RSS), and the profile
        is evaluated on blocks of ``_BLOCK_ROWS`` nodes written into it.
        """
        omegas = np.asarray(omegas, dtype=float)
        z = self.g1.nodes
        out = np.empty((z.size, omegas.size), self._fiber_dtype())
        for rows in _row_blocks(z.size):
            self._fiber_block(z[rows], omegas, out[rows])
        return out

    def _fiber_dtype(self) -> np.dtype:
        """The dtype of the fiber profile: the profile's at one probe."""
        profile = self.eval_freq if self.case == "wavelet" else self.eval_time
        return profile(np.zeros(1)).dtype

    def _fiber_block(self, z, omegas, out):
        """ell on the nodes ``z`` x ``omegas``, written into ``out``.  Each
        entry is the profile at one rounded product z omega (wavelets) or
        difference omega - z (windows), so it has the same bits in any
        block that holds it."""
        if self.case == "wavelet":
            np.multiply(np.sqrt(z)[:, None],
                        self.eval_freq(np.outer(z, omegas)).conj(), out=out)
        else:
            out[...] = self.eval_time(omegas[None, :] - z[:, None]).conj()

    def fibers(self, omegas) -> "Fibers":
        """The atom's fiber record on ``omegas``.

        The last record built is kept and returned again while its omegas
        equal ``omegas`` by value and the atom's first-coordinate grid is the
        one it was built on; any other call builds the record that replaces
        it.  A record is a pure function of (atom, omegas), so every consumer
        reading it through this method gets the bits of a fresh build.
        """
        last = self._last_fibers
        if (last is None or last[0] is not self.g1
                or not np.array_equal(last[1].omegas, omegas)):
            last = self._last_fibers = (self.g1, Fibers.of(self, omegas))
        return last[1]

    # -- admissibility ------------------------------------------------------

    def admissibility_integral(self, xi: float) -> float:
        """Frequency-energy integral over scales at one test frequency.

        Wavelet case only.  Integrates |psi_hat(t*xi)|^2 dt/t over the atom's
        effective frequency support (substituted to s = t*|xi|, which is
        exact) with ``quadrature.gauss_kronrod``, split at
        ``profile_breakpoints``.
        """
        if self.case != "wavelet":
            raise ValueError("admissibility integral applies to wavelets")
        if xi == 0:
            raise ValueError("admissibility is evaluated at nonzero frequencies")
        side = 1.0 if xi > 0 else -1.0
        lo, hi = self.freq_support
        cuts = self.profile_breakpoints
        return _integral(lambda s: self.eval_power(side * s) / s,
                         [lo, *cuts[(cuts > lo) & (cuts < hi)], hi])

    def admissibility_residual(self) -> float:
        """|energy integral - 1| at xi = 1.

        After the substitution s = t*|xi| ``admissibility_integral`` depends
        on the sign of xi alone, and |psi_hat| is even on the support of a
        real wavelet (``_certify_real``, ``_profile_table``), so xi = 1
        stands for every nonzero frequency.
        """
        return abs(self.admissibility_integral(1.0) - 1.0)

    def __repr__(self):
        return f"Atom({self.case}:{self.name})"


@dataclass(frozen=True, eq=False)
class Fibers:
    """An atom's fiber matrix on one omega grid.

    Entry [k, i] is ell(z_k, omega_i) on the atom's first-coordinate nodes
    z_k, with the bits of ``Atom.ell_matrix``: the embedding multiplies by
    it, and the fiber projection and the Gram products integrate against
    its conjugate.  Every consumer -- the transform chain (``bargmann``,
    ``bargmann_adjoint``, ``analyze``), the grid-rule ``gamma``,
    ``filter_signal``, ``build_direct`` and the overlap kernels -- reads it
    through ``Atom.fibers``, which keeps the last record per atom, so calls
    on one grid share one fiber matrix.  The arrays are read-only.

    *Windows.*  Each block of ``_BLOCK_ROWS`` rows has one column window,
    ``windows[b]``: every entry of the block outside it is +0, and
    ``values[b]`` holds the block's entries inside it.  An atom that
    declares an ``exact_support`` (shannon's band 1 <= |xi| <= 2, rect's
    [0, 1)) on omegas in increasing order gets the tight windows: a
    vectorized ``searchsorted`` of each block's extreme nodes against the
    support, widened by one float for the rounding of z omega or
    omega - z, bounds the columns where the block can be nonzero, and the
    block's values there are trimmed to the hull of the columns that are
    not.  Other records (the gaussian's and haar's truncated supports,
    imported atoms, unsorted omegas) take the whole row as every block's
    window.  On the filter's N = 4096 grid, shannon's windows hold 3.3 MiB
    where the K x N array is 16 MiB, 6.2 % of it nonzero.

    *Storage.*  A window's fibers are translates, conj phi(omega - z).  On
    a *lattice* grid (the builders', the CLI's and the benchmark's), the
    omegas and the nodes are progressions (a + p i) u and (b + q k) u of
    integers below 2^52 times one power of two u, checked in O(N + K), so
    every omega_i - z_k is exact, (a - b + p i - q k) u: ``stored`` is a
    strided view (strides -q, p) of the window on the p(N - 1) + q(K - 1)
    + 1 differences, 64 KiB at N = 4096, K = 512 against 16 MiB, and the
    blocks' values are views of it.  Off the lattice, a windowed record
    stores only its window values (``stored`` is None), and any other
    record is ``ell_matrix``'s K x N array.  The rows of a windowed record
    off the lattice are made dense only on request: ``dense`` makes them
    anew on each call, and ``gram`` reads its span once for the n <= 512
    Gram products (``_gemm_span``).

    The dtype is ``ell_matrix``'s: float64 for a real profile, complex128
    otherwise (haar, and an imported wavelet, whose frequency samples are
    the complex transform of its time samples; an imported window with real
    samples interpolates them in real arithmetic); consumers are
    dtype-generic, so a real record takes half the memory and its Gram
    products are real GEMMs.  The catalog's real profiles (gaussian, rect,
    shannon) return float arrays, so their record meets no complex
    temporary.  The reductions over the nodes (``norms``, ``power_sums``)
    run over the blocks' windows, so no temporary has a dense record's
    size.

    The record is finite by construction: the catalog's closed forms and
    the linear interpolation of an imported atom's finite samples give
    finite values.

    A row is *empty* when every entry has the bit pattern of +0 (a row
    holding -0 is not), found by one scan of the windows' words (the real
    and imaginary parts of a complex record).  ``live`` has one flag per
    block of ``_BLOCK_ROWS`` rows, False when every row of the block is
    empty, and ``span`` is the slice from the first to the last row that is
    not.  A band-limited wavelet (shannon) or a compactly supported window
    (rect) has empty rows at the ends of the first coordinate; the
    gaussian's and haar's records have none on the benchmark's grids.
    ``power_sums`` and the transform chain of ``fields`` skip the empty
    blocks, and the blocks where a row factor or a symbol is zero, read
    only the windows of the others, and keep every bit of their outputs.
    The direct route and the overlap kernels run over the rows of
    ``rows_for`` their weights, inside the span: the diagonal of a diagonal
    direct matrix reads them a block at a time (``dense``), and every Gram
    product is ``gram`` (its docstring states the flush bound).
    """

    omegas: np.ndarray
    weights: np.ndarray  # first-coordinate measure weights
    live: tuple  # per block of rows: False when every entry is +0
    span: slice  # first to last row holding a word other than +0
    windows: tuple  # per block of rows: the columns outside which it is +0
    values: tuple  # per block of rows: its entries in its window
    stored: np.ndarray | None  # the K x N array, None when windowed off it

    @classmethod
    def of(cls, atom: Atom, omegas) -> "Fibers":
        """A new read-only record of ``atom`` on ``omegas``: a view of one
        window vector on a lattice grid, else the windows' values of an
        atom with an exact support on increasing omegas, else one
        ``ell_matrix`` call."""
        omegas = np.array(omegas, dtype=float)
        omegas.flags.writeable = False
        z = atom.g1.nodes
        L = _lattice_record(atom, omegas)
        bounds = _window_bounds(atom, omegas)
        if L is None and bounds is None:
            L = atom.ell_matrix(omegas)
            L.flags.writeable = False
        blocks = list(_row_blocks(z.size))
        if bounds is None:
            windows = [slice(0, omegas.size)] * len(blocks)
            values = [L[rows] for rows in blocks]
            nonempty = _nonzero_words(L, axis=1)
        else:
            dtype = atom._fiber_dtype() if L is None else L.dtype
            windows, values = [], []
            nonempty = np.empty(z.size, dtype=bool)
            for rows, (lo, hi) in zip(blocks, bounds.T.tolist()):
                if L is not None:
                    V = L[rows, lo:hi]
                else:
                    V = np.empty((rows.stop - rows.start, hi - lo), dtype)
                    atom._fiber_block(z[rows], omegas[lo:hi], V)
                    V.flags.writeable = False
                nonempty[rows] = _nonzero_words(V, axis=1)
                # trimmed to the hull of the columns holding a word not +0
                used = _hull(_nonzero_words(V, axis=0))
                windows.append(slice(lo + used.start, lo + used.stop))
                values.append(V[:, used])
        live = tuple(np.logical_or.reduceat(
            nonempty, [rows.start for rows in blocks]).tolist())
        return cls(omegas, atom.g1.measure_weights, live, _hull(nonempty),
                   tuple(windows), tuple(values), L)

    @property
    def dtype(self) -> np.dtype:
        """``ell_matrix``'s dtype: float64 or complex128."""
        return self.values[0].dtype

    def dense(self, rows: slice) -> np.ndarray:
        """The record's rows ``rows`` as one array, read-only: a view of
        ``stored``, or a new C-contiguous array of +0 with each block's
        window values written in."""
        if self.stored is not None:
            return self.stored[rows]
        out = np.zeros((rows.stop - rows.start, self.omegas.size), self.dtype)
        for block, cols, V in zip(_row_blocks(len(self.weights)),
                                  self.windows, self.values):
            lo, hi = max(block.start, rows.start), min(block.stop, rows.stop)
            if lo < hi:
                out[lo - rows.start:hi - rows.start, cols] = \
                    V[lo - block.start:hi - block.start]
        out.flags.writeable = False
        return out

    def window(self, rows: slice) -> tuple[slice, np.ndarray]:
        """(columns, entries) of ``rows``, rows of one block of
        ``_BLOCK_ROWS``: the block's window, outside which each of the rows
        is +0, and the rows' entries in it."""
        b, r = divmod(rows.start, _BLOCK_ROWS)
        return self.windows[b], self.values[b][r:r + rows.stop - rows.start]

    def rows_for(self, weights) -> slice:
        """The contiguous hull of the rows where ``weights`` (one value per
        node) is nonzero, inside ``span``: every row outside it adds only
        zeros to a sum over the nodes weighted by ``weights``."""
        flags = np.zeros(len(self.weights), dtype=bool)
        flags[self.span] = np.asarray(weights)[self.span] != 0
        return _hull(flags)

    def gram(self, weights: np.ndarray) -> tuple[np.ndarray, slice]:
        """G = L^H diag(weights) L, n x n, over the rows of
        ``rows_for(weights)``, and those rows: the package's one Gram
        product (the overlap kernels, ``build_direct``'s dense ranks).

        L is read from ``_gemm_span``, with every part below 2^-511 in
        magnitude set to +0: such parts form subnormal products, each a
        microcode assist on x86 (the gaussian's tails fall below 2^-511 near
        |x| = 15, 27,104 of its 131,072 entries at n = 256, and its GEMMs
        ran about 5x slower).  A zeroed part moves a term
        conj(L[k, i]) w_k L[k, j] by less than 2^-510 max|L| |w_k|, so an
        entry moves by at most
        2^-510 max|L| sum_k |w_k|, 1.1e-152 for the gaussian's overlap
        kernel; the rect, shannon and haar records have no nonzero part that
        small.  The weights are scaled by 2^-e, 2^e their ``_exponent``
        scale, and G back by 2^e, exactly, so a tiny symbol forms no
        subnormal product either: the weighted kernel of the constant
        2^-960 is 2^-960 times that of 1, bit for bit wherever that is
        normal.  G = X^T L with X = conj(L) diag(w 2^-e) is one GEMM: real
        when L and the weights are, and a real GEMM L^T X on X's interleaved
        float view when only the weights are complex, so a real record is
        never cast.  X is flushed as L is (``_flush_rows``),
        since weights spanning many decades leave parts of it subnormal (the
        radial gaussian of sigma = 1 at n = 256: 1,103 of 125,696): a zeroed
        part moves a term by less than 2^(e - 510) max|L| <= 2^-509 max|L|
        max_k |w_k|, so an entry moves by at most a further
        2^-509 max|L| max_k |w_k| times the number of rows read.  Weights
        with no nonzero entry in the span give the n x n matrix of +0 and
        build no copy.
        """
        rows = self.rows_for(weights)
        n = self.omegas.size
        if rows.start == rows.stop:
            return np.zeros((n, n), np.result_type(self.dtype, weights)), rows
        L = self._gemm_span[rows.start - self.span.start:
                            rows.stop - self.span.start]
        w = weights[rows].copy()
        e = _exponent(w)
        _ldexp(w, -e)
        X = L.conj() * w[:, None]
        _flush_rows(X)
        G = X.T @ L if X.dtype == L.dtype else L.T @ X.view(L.dtype)
        _ldexp(G, e)
        return (G if X.dtype == L.dtype else G.view(X.dtype).T), rows

    @cached_property
    def _gemm_span(self) -> np.ndarray:
        """The record's ``span`` rows as ``gram`` reads them, read-only and
        C-contiguous, made on first use: the rows of ``dense`` when they are
        contiguous (a windowed record's off the lattice, or ``ell_matrix``'s
        array) and the flush changes none of their words (no part below
        2^-511 but +0, as in the wavelets' and rect's records off the
        lattice), else a copy flushed a block of ``_BLOCK_ROWS`` rows at a
        time: at most K N 8 B for a real record, K N 16 B for a complex one,
        shared by every Gram product on the record (a GEMM on the strided
        lattice view runs slower, with the same bits)."""
        L = self.dense(self.span)
        if L.flags.c_contiguous and not any(
                ((np.abs(w) < _FLUSH_BELOW) & (w.view(np.int64) != 0)).any()
                for w in map(L.view(float).__getitem__,
                             _row_blocks(len(L)))):
            return L
        out = np.array(L, order="C")
        _flush_rows(out)
        out.flags.writeable = False
        return out

    @cached_property
    def norms(self) -> np.ndarray:
        """Fiber norms: quadrature of |ell(., omega)|^2 against the
        first-coordinate measure (computed on first use)."""
        return self.power_sums(self.weights)

    def power_sums(self, *row_factors) -> np.ndarray:
        """sum_k |ell(z_k, omega_i)|^2 f_1[k] f_2[k] ... for every omega_i,
        with f_1, f_2, ... the ``row_factors`` (each one value per node).

        The terms are formed and summed over k in order, the bits of
        ``np.einsum("ki,k,...->i", |L|^2, f_1, ...)``, one block of
        ``_BLOCK_ROWS`` rows at a time and over the block's window alone:
        no array of the record's size is made.  The dtype is complex when
        a factor is.

        A block that is empty (``live``) or where some factor is zero on
        every row adds only signed zeros, since no product of a finite
        record and factors in the supported range (``symbols``) overflows,
        so it is skipped, and so are the columns outside a block's window:
        the sum starts at +0, never holds -0, and adding +-0 leaves every
        value as it is.
        """
        count, n = len(self.weights), self.omegas.size
        acc = np.zeros(n, dtype=np.result_type(float, *row_factors))
        buf = np.empty(max(V.size for V in self.values), dtype=acc.dtype)
        for live, rows, cols, V in zip(self.live, _row_blocks(count),
                                       self.windows, self.values):
            fs = [f[rows] for f in row_factors]
            if not live or not all(f.any() for f in fs):
                continue
            t = buf[:V.size].reshape(V.shape)
            c = np.abs(V) if np.iscomplexobj(V) else V
            np.multiply(c, c, out=t)
            for f in fs:
                t *= f[:, None]
            # the running sum enters as the first term: the rows then add
            # up in order, as one reduction over k would add them
            t[0] += acc[cols]
            if t.shape[1] == 1 < n:
                # NumPy sums a lone column pairwise, not row after row
                acc[cols] = np.add.accumulate(t, axis=0)[-1]
            else:
                np.sum(t, axis=0, out=acc[cols])
        return acc

    def coverage(self, h: SampledFunction) -> float:
        """Share of the energy of h, sampled on the record's omegas, that the
        fibers carry: sum n(omega)|h(omega)|^2 / sum |h(omega)|^2 with n the
        fiber norm; 1 for h = 0.  Near 1 on the healthy range, near 0 where
        h lies outside the first-coordinate range; ``ValueError`` unless h's
        grid samples equal the record's omegas by value."""
        if not np.array_equal(self.omegas, h.grid.samples):
            raise ValueError(
                f"fiber record on {self.omegas.size} omegas in "
                f"[{self.omegas[0]:g}, {self.omegas[-1]:g}] does not match "
                f"the grid {h.grid!r}")
        # scaled exactly by 2^-e, 2^e the frexp scale of h's largest part,
        # so no square overflows or underflows: the ratio is scale-invariant
        v = np.array(h.values, dtype=complex)
        _ldexp(v, -_exponent(v))
        energy = np.abs(v) ** 2
        total = float(energy.sum())
        return float(self.norms @ energy) / total if total else 1.0


def _window_bounds(atom: Atom, omegas: np.ndarray):
    """(starts, stops), shape (2, blocks): per block of ``_BLOCK_ROWS``
    nodes, columns outside which the block of the record is +0, from the
    atom's ``exact_support``; None when the atom declares none or the
    omegas are not in increasing order.

    An entry is the profile at a rounded z omega (wavelets) or omega - z
    (windows), and rounding is monotone: fl(x) in [lo, hi] needs x in
    [prev(lo), next(hi)], prev and next the neighbouring floats.  So a
    block of nodes in [z_min, z_max] is +0 outside |omega| in
    [prev(lo) / z_max, next(hi) / z_min] (wavelets, z > 0) or omega in
    [z_min + prev(lo), z_max + next(hi)] (windows), each bound rounded and
    moved one float outward.  ``searchsorted`` finds the columns of the
    bands for every block at once; a band with no column adds none.
    """
    if (atom.exact_support is None
            or not np.all(omegas[:-1] <= omegas[1:])):
        return None
    lo, hi = np.nextafter(atom.exact_support, (-np.inf, np.inf))
    z = atom.g1.nodes
    starts = np.arange(0, z.size, _BLOCK_ROWS)
    z_min, z_max = np.minimum.reduceat(z, starts), np.maximum.reduceat(z, starts)
    with np.errstate(all="ignore"):  # a bound past the float range is inf
        if atom.case == "wavelet":
            inner = np.nextafter(lo / z_max, -np.inf)
            outer = np.nextafter(hi / z_min, np.inf)
            bands = ((-outer, -inner), (inner, outer))
        else:
            bands = ((np.nextafter(z_min + lo, -np.inf),
                      np.nextafter(z_max + hi, np.inf)),)
    first, last = np.full(starts.size, omegas.size), np.zeros(starts.size, int)
    for a, b in bands:
        left = np.searchsorted(omegas, a, "left")
        right = np.searchsorted(omegas, b, "right")
        some = left < right
        first[some] = np.minimum(first[some], left[some])
        last[some] = np.maximum(last[some], right[some])
    first = np.minimum(first, last)  # an empty window starts at its stop
    return np.stack([first, last])


def _lattice_record(atom: Atom, omegas: np.ndarray):
    """The record of a window on a lattice grid, a read-only strided view of
    one window vector (``Fibers``); None on any other grid."""
    z = atom.g1.nodes
    K, N = z.size, omegas.size
    if atom.case != "gabor" or N < 2:
        return None
    u = min(omegas[1] - omegas[0], z[1] - z[0])
    with np.errstate(all="ignore"):  # a value out of range fails a check
        a, b = omegas / u, z / u  # exact when u is a power of two
        p, q = a[1] - a[0], b[1] - b[0]
        if u != 2.0 ** (_exponent(u) - 1) or not all(
                abs(x) < 2.0 ** 52 and x % 1 == 0
                for x in (a[0], a[-1], b[0], b[-1], p, q)):
            return None
        p, q = int(p), int(q)
        m = p * (N - 1) + q * (K - 1) + 1
        if m >= K * N or any(
                not np.array_equal(x.view(np.int64), y.view(np.int64))
                for x, y in ((omegas, (a[0] + p * np.arange(N)) * u),
                             (z, (b[0] + q * np.arange(K)) * u))):
            return None
    v = atom.eval_time((a[0] - b[-1] + np.arange(m)) * u).conj().astype(
        atom.eval_time(np.zeros(1)).dtype, copy=False)
    # row k reads v[q (K - 1 - k) + p i]
    return np.lib.stride_tricks.as_strided(
        v[q * (K - 1):], (K, N), (-q * v.itemsize, p * v.itemsize),
        writeable=False)


def _integral(fn, edges) -> float:
    """Integral of a real fn from edges[0] to edges[-1], split at the edges
    between: one ``gauss_kronrod`` pass, its pieces summed."""
    e = np.asarray(edges, dtype=float)
    vals, _ = gauss_kronrod(lambda t, j: fn(t), e[:-1], e[1:],
                            lambda j: f"integral on [{e[j]:g}, {e[j + 1]:g}]")
    return float(np.sum(vals.real))


# -- catalog ------------------------------------------------------------------

def _shannon_profiles():
    c = 1.0 / math.sqrt(LN2)

    def freq(xi):
        band = (np.abs(xi) >= 1.0) & (np.abs(xi) <= 2.0)
        return band * c

    def time(x):
        out = np.empty_like(x)
        nz = x != 0
        xs = x[nz]
        out[nz] = c * (np.sin(4 * np.pi * xs) - np.sin(2 * np.pi * xs)) / (np.pi * xs)
        out[~nz] = 2.0 * c
        return out

    return time, freq, c


def _haar_profiles(c: float):
    def time(x):
        return (((x >= 0) & (x < 0.5)).astype(float)
                - ((x >= 0.5) & (x < 1.0)).astype(float)) * complex(c)

    def freq(xi):
        out = np.zeros_like(xi, dtype=complex)
        nz = xi != 0
        xs = xi[nz]
        out[nz] = c * (1.0 - np.exp(-1j * np.pi * xs)) ** 2 / (2j * np.pi * xs)
        return out

    def power(xi):
        # |freq|^2 = 4 c^2 sin^4(pi xi / 2) / (pi xi)^2: one real sine
        out = np.zeros_like(xi)
        nz = xi != 0
        xs = xi[nz]
        h = np.sin(0.5 * np.pi * xs)
        out[nz] = (2.0 * c * h * h / (np.pi * xs)) ** 2
        return out

    return time, freq, power


def _certify_support(atom: Atom):
    """Raise ``AdmissibilityError`` unless the fiber profile, conj psi_hat
    (wavelets, on +-|xi|) or conj phi (windows), is +0 at the floats next
    outside each end of the atom's ``exact_support`` and at probes past
    them: the record's windows (``Fibers``) leave out every entry there.
    The residual is the largest modulus found."""
    lo, hi = atom.exact_support
    below, above = np.nextafter([lo, hi], [-np.inf, np.inf])
    if atom.case == "wavelet":
        s = [above, 2.0 * hi, 16.0 * hi]
        if lo > 0:
            s += [below, 0.5 * lo, 0.0]
        probes, profile = np.array(s + [-x for x in s]), atom.eval_freq
    else:
        probes = np.array([below, lo - 1.0, lo - 16.0,
                           above, hi + 1.0, hi + 16.0])
        profile = atom.eval_time
    values = np.conj(profile(probes))
    if values.view(float).view(np.int64).any():
        raise AdmissibilityError(
            f"{atom.name}: profile is not +0 outside its exact support "
            f"[{lo:g}, {hi:g}]", float(np.max(np.abs(values))))


def _certify_real(atom: Atom):
    """Raise ``AdmissibilityError`` unless the wavelet's time samples are
    real, every imaginary part at most 1e-12: |psi_hat| is then even, so
    the admissibility residual and the profile table read one sign of xi
    for both.  The residual is the largest imaginary part."""
    imag_max = float(np.max(np.abs(atom.time_samples.values.imag)))
    if imag_max > 1e-12:
        raise AdmissibilityError(f"{atom.name}: wavelet must be real-valued",
                                 imag_max)


def make_wavelet(name: str, scale_grid: ScaleGrid | None = None) -> Atom:
    """Construct a catalog wavelet, verified admissible.

    Parameters
    ----------
    name : "shannon" or "haar"
    scale_grid : quadrature grid for the scale axis (default 2^-8..2^8, 512)
    """
    if name not in WAVELET_NAMES:
        raise ValueError(f"unknown wavelet {name!r}; catalog: {WAVELET_NAMES}")
    g1 = scale_grid if scale_grid is not None else ScaleGrid(
        *DEFAULT_SCALE_RANGE, DEFAULT_SCALE_COUNT)

    if name == "shannon":
        time_p, freq_p, norm = _shannon_profiles()
        power_p, support, zeros = None, (1.0, 2.0), ()
        exact = support
        tgrid = LineGrid.centered(8.0, 1024)
        fgrid = LineGrid.centered(4.0, 2048)
        healthy, ftol = (2.0 ** -4, 4.0), 1e-6
    else:
        support = (2.0 ** -12, 2.0 ** 12)
        # the profile's zeros in the support: the even integers
        zeros = np.arange(2.0, support[1], 2.0)
        power1 = _haar_profiles(1.0)[2]
        raw = _integral(lambda s: power1(s) / s,
                        [support[0], *zeros, support[1]])
        norm = 1.0 / math.sqrt(raw)
        time_p, freq_p, power_p = _haar_profiles(norm)
        exact = None  # the support truncates the profile where it is small
        tgrid = LineGrid.centered(2.0, 1024)
        fgrid = LineGrid.centered(32.0, 4096)
        # default-grid fiber norms carry the scale-truncation tail, O(1e-4)
        healthy, ftol = (2.0 ** -2, 4.0), 1e-3

    atom = Atom("wavelet", name,
                SampledFunction(tgrid, time_p(tgrid.samples)),
                SampledFunction(fgrid, freq_p(fgrid.samples)),
                norm, g1, time_p, freq_p, power_p,
                freq_support=support, profile_breakpoints=zeros,
                healthy_range=healthy, fiber_tol=ftol, exact_support=exact)

    # checked first: the residual reads xi = 1 alone, which needs a real atom
    _certify_real(atom)
    residual, tol = atom.admissibility_residual(), 1e-6
    if residual > tol:
        raise AdmissibilityError(
            f"{name}: admissibility tolerance {tol:g} not met", residual)
    if exact is not None:
        _certify_support(atom)
    return atom


def make_window(name: str, translation_grid: LineGrid | None = None) -> Atom:
    """Construct a catalog window with unit L2 norm (to 1e-10).

    gaussian: phi(x) = 2^(1/4) exp(-pi x^2); rect: phi = indicator of [0, 1).
    The rect indicator is right-open so that on grids aligned with the unit
    interval the discrete norm and fiber counts are exact.
    """
    if name not in WINDOW_NAMES:
        raise ValueError(f"unknown window {name!r}; catalog: {WINDOW_NAMES}")
    lo, hi = DEFAULT_TRANSLATION_RANGE
    g1 = translation_grid if translation_grid is not None else LineGrid(
        lo, (hi - lo) / DEFAULT_TRANSLATION_COUNT, DEFAULT_TRANSLATION_COUNT)

    if name == "gaussian":
        norm = 2.0 ** 0.25

        def time(x):
            return norm * np.exp(-np.pi * x ** 2)

        freq = time  # self-dual in this convention
        tgrid = LineGrid.centered(8.0, 1024)
        fgrid = LineGrid.centered(8.0, 1024)
        tsupport = (-6.5, 6.5)
        exact = None  # the support truncates the window where it is small
        l2sq = _integral(lambda x: np.abs(time(x)) ** 2, tsupport)
    else:
        norm = 1.0

        def time(x):
            return ((x >= 0) & (x < 1.0)).astype(float)

        def freq(xi):
            out = np.ones_like(xi, dtype=complex)
            nz = xi != 0
            xs = xi[nz]
            out[nz] = np.exp(-1j * np.pi * xs) * np.sin(np.pi * xs) / (np.pi * xs)
            return out

        tgrid = LineGrid(-2.0, 1.0 / 256, 1024)
        fgrid = LineGrid.centered(16.0, 2048)
        tsupport = exact = (0.0, 1.0)
        l2sq = 1.0

    residual, tol = abs(math.sqrt(l2sq) - 1.0), 1e-10
    if residual > tol:
        raise AdmissibilityError(f"{name}: unit-norm tolerance {tol:g} not met",
                                 residual)
    atom = Atom("gabor", name,
                SampledFunction(tgrid, time(tgrid.samples)),
                SampledFunction(fgrid, freq(fgrid.samples)),
                norm, g1, time, freq,
                time_support=tsupport, healthy_range=(-8.0, 8.0),
                fiber_tol=1e-6, exact_support=exact)
    if exact is not None:
        _certify_support(atom)
    return atom


@cache
def _catalog(case: str, name: str) -> Atom:
    """The verified catalog entry of (case, name) on the default grid, its
    profile table built: one per process, never handed out."""
    atom = make_wavelet(name) if case == "wavelet" else make_window(name)
    atom._profile_table
    return atom


def make_atom(case: str, name: str) -> Atom:
    """The catalog atom of ``name``, dispatched by case tag.

    The first call per (case, name) builds and verifies the entry; every
    call returns a new ``Atom`` that shares the entry's read-only parts
    (samples, profiles, grid, normalization, ``profile_breakpoints`` and
    ``_profile_table``) and starts with no fiber record, so the record it
    keeps (``Atom.fibers``) is collected with it.
    """
    atom = copy.copy(_catalog(case, name))
    atom._last_fibers = None
    return atom
