"""Phase-plane fields and the transform chain.

The analysis transform maps a signal to a field over the product grid
(g1 x g2): scales x translations in the wavelet case, translations x
modulations in the Gabor case.  A fiberwise Fourier transform along the
second axis carries analysis fields onto the diagonal plane (z, omega) where
they factor as h(omega) * ell(z, omega); projecting out the unit-norm fiber
profile then lands in L2 of the second coordinate alone.  The composition is
the diagonalizing (Bargmann-type) transform used by the operator builders.

By the Calderon and Gabor reproducing formulas, analysis is the adjoint of
the diagonalizing transform applied to the signal's omega side h:
``analyze`` is ``bargmann_adjoint`` of h.  The omega side, the axis-2 sign
pairing that makes this hold (asserted by tests) and the analysis axis are
facts of the atom's first-axis action (``grids``: ``omega_side``,
``axis2_forward`` and ``axis2_backward``, ``analysis_axis``).

Both directions meet in the fiber matrix ell(z, omega) of the atom on an
omega grid.  Every function here reads it as the atom's ``atoms.Fibers``
record on that grid, ``Atom.fibers``: calls on one grid share one fiber
matrix.  The record is float64 for the real catalog profiles (gaussian,
rect, shannon) and complex128 otherwise; fields are always complex128.
Each block of ``atoms._BLOCK_ROWS`` rows of the record is +0 outside one
column window (``Fibers.windows``): the whole row for most records, and
for an atom whose ``support`` is exact (``support_is_exact``: shannon,
rect) only the columns where the block can be nonzero.  The chain reads each block's entries in its
window alone (``Fibers.window``) and never a K x N record.

``_stream`` is the one implementation of the chain: ``bargmann``,
``bargmann_adjoint`` (so ``analyze``), ``round_trip``, ``round_trips`` and
the slow path of ``operators.filter_signal`` all run it.  It takes the
embedding, backward axis-2 transform, symbol mask, forward transform and
fiber projection on blocks of ``atoms._BLOCK_ROWS`` first-axis rows.  A call
that returns a function on the second axis never holds a K x N field or
mask, and ``bargmann_adjoint`` holds its field as the one array of its
size.  Its two DFT sandwiches (``fourier._sandwich``) are made first, and a
second-axis grid they cannot pair (another count or step) raises
``ValueError`` before any field or block buffer is made.  Row transforms do
not depend on the block they sit in, so analysis fields have the bits of the
same steps on the whole array; a projection sums its blocks in turn, which
moves it at rounding (below 1e-15 relative, as property tests pin) against
one quadrature of the whole field.  None of these functions writes into its
input.  ``round_trip`` is the reproducing formula in one pass: each block of
an analysis field is formed, its row energies taken for the field's norm,
and carried back at once, with the bits of ``bargmann_adjoint``, then
``weighted_norm``, then ``bargmann``, and no field held.  ``round_trips``
runs a batch of such round trips on one grid in one pass, each output with
the bits of its own ``round_trip``.

A band-limited wavelet (shannon) or a compactly supported window (rect) has
whole blocks of first-axis rows where the fiber record is exactly +0: the
record's *empty* blocks, ``Fibers.live``.  ``_stream`` does not transform them.
With h, the rows of an empty block all embed to one row of signed zeros, which
a returned field transforms once per call and copies into its rows; a
projection leaves the block out (its terms are signed zeros, its row energies
+0).  From a field, it skips a block whose output fibers are empty.  On shannon
this skips 2 or 3 of the 8 blocks of the benchmark's filters and of
``verify transforms``.  A slow filter skips each block that its symbol mask
(``SymbolSpec.cell_field``, the seam) zeroes, so its cost follows the blocks
the symbol touches.  Every output keeps its bits, signs of zero included: a
skipped block is finite, since its inputs are in the supported range of
``symbols``, which ``analyze``, ``bargmann_adjoint``, ``round_trip`` and
``bargmann`` check on theirs.

On two CPUs ``_stream`` shares its blocks between the caller and one pooled
worker thread, which take parts from one queue in order; a part the worker
has not started when the caller is free runs on the caller.  A projection
without a symbol mask (``bargmann``, ``round_trips``) hands out whole blocks
in one hand-off, the blocks of every function of a batch: the thread that
takes a block runs all of it, the projection GEMV included, in a block
buffer of its own, and each function's projections are summed in block
order as soon as the parts before them are done, so only a few are held.  A
masked projection (the slow filter) and a returned field split each block
into its two row halves, and the caller evaluates the symbol and runs a
masked projection's GEMV, in block order; a whole-block split there would
hold a second block per CPU, 4 MiB at N = 4096.  Every pass works on each
row alone and every sum runs in block order, so every output keeps its
bits.  The part count is the CPUs
of the process's affinity mask, at most 2 (``_PARTS``), and rows shorter
than ``_SPLIT_COLUMNS`` samples are not split.  Restricting the affinity
(``taskset -c 0``) is the only way to keep the chain on one CPU: BLAS thread
settings do not govern it.  A multi-threaded BLAS competes with the split for
the second CPU, since after each block's projection GEMV its threads wait
busily for more work: on a 2-CPU machine under OpenBLAS's default two
threads the half-block split took ``bargmann`` at N = 1024 from 2.9 to
3.3 ms (``analyze`` from 2.9 to 1.6 ms), and with one BLAS thread, as the
benchmark and CI run, from 3.3 to 2.4 ms.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .atoms import Atom, _BLOCK_ROWS, _row_blocks
from .fourier import _sandwich, fourier
from .grids import LineGrid, SampledFunction, action_of, induced_grid
from .symbols import RANGE_EXPONENT, _in_range

__all__ = [
    "PhasePlaneField",
    "analyze",
    "bargmann",
    "bargmann_adjoint",
    "random_bandlimited",
    "round_trip",
    "round_trips",
]


class PhasePlaneField:
    """Analysis field on a product grid with the case-dependent plane
    measure: the second axis is the translation (wavelets) or modulation
    (windows) axis."""

    def __init__(self, case: str, g1, g2: LineGrid, values):
        self._bind(case, g1, g2, values)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def _of_finite(cls, case: str, g1, g2: LineGrid,
                   values: np.ndarray) -> "PhasePlaneField":
        """A field of complex ``values`` whose finiteness the caller has
        checked (``_stream``, block by block): no second pass over them."""
        field = cls.__new__(cls)
        field._bind(case, g1, g2, values)
        return field

    def _bind(self, case, g1, g2, values):
        grid = action_of(case).grid
        if not isinstance(g1, grid):
            raise ValueError(f"{case} fields need a {grid.__name__} first axis")
        values = np.asarray(values, dtype=complex)
        if values.shape != (g1.count, g2.count):
            raise ValueError(
                f"field shape {values.shape} does not match grids "
                f"({g1.count}, {g2.count})")
        self.case = case
        self.g1 = g1
        self.g2 = g2
        self.values = values

    def weighted_norm(self) -> float:
        """L2 norm under the product measure (first-axis measure x Riemann):
        ``_weighted_norm`` of the ``_row_energies``, no field-sized array."""
        return _weighted_norm(self.g1, self.g2, _row_energies(
            np.ascontiguousarray(self.values)))

    def copy_with(self, values, g2=None) -> "PhasePlaneField":
        return PhasePlaneField(self.case, self.g1,
                               self.g2 if g2 is None else g2, values)

    def __repr__(self):
        return f"PhasePlaneField({self.case}, {self.g1!r} x {self.g2!r})"


def analyze(atom: Atom, f: SampledFunction) -> PhasePlaneField:
    """Analysis transform: inner products of f with the transported atoms.

    By the reproducing formula it is the adjoint of the diagonalizing
    transform applied to the omega side of f.  The second axis is f's own
    grid for wavelets (translations) and its induced grid for windows
    (modulations).  A signal out of the supported range of ``symbols``
    raises ``ValueError``.
    """
    _in_range(f.values, "signal")
    return bargmann_adjoint(atom, atom.action.omega_side(f),
                            out_grid=atom.action.analysis_axis(f.grid))


def _check_first_axis(atom: Atom, field: PhasePlaneField):
    """Reject a field whose first axis differs from the atom's grid (kind,
    count or nodes): the fiber quadrature runs on the atom's grid."""
    g1 = atom.g1
    # array_equal is False on a count mismatch too
    if type(field.g1) is not type(g1) or not np.array_equal(field.g1.nodes,
                                                            g1.nodes):
        raise ValueError(f"field first axis {field.g1!r} is not the atom's "
                         f"grid {g1!r}")


def _require_finite(a: np.ndarray):
    """The ``ValueError`` of a non-finite field unless every entry of the
    complex C-contiguous ``a`` is finite (checked on its float view)."""
    if not np.isfinite(a.view(float)).all():
        raise ValueError("field contains non-finite values")


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# threads that take ``_stream``'s parts at once, capped at 2: the only
# count measured
_PARTS = min(2, _cpus())
# the shortest rows that ``_stream`` splits: half a block must outlast its
# hand-off and the interpreter-lock switches of two threads.  On a 2-CPU
# EPYC, splitting rows of 256 samples slowed ``bargmann`` and the slow
# filter by up to 40 %; at 512 samples the calls ran up to 40 % faster
_SPLIT_COLUMNS = 512


def _new_worker():
    """A fresh pool of one thread, which starts on the first submit.  A
    forked child has no thread of its parent's pool, which would never run
    the child's tasks, so the child takes a new one."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1,
                                 thread_name_prefix="tfloc-stream")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _parts(k: int, rows: slice, block: np.ndarray, mask) -> list:
    """(rows, block rows, mask rows) of each of the ``k`` row parts of a
    block, one part for a one-row block.  A mask of one row (a
    second-variable symbol's) or of no rows broadcasts to every part."""
    n = rows.stop - rows.start
    k = min(k, n)
    cuts = [n * i // k for i in range(k + 1)]
    whole = mask is None or np.ndim(mask) < 2 or len(mask) == 1
    return [(slice(rows.start + a, rows.start + b), block[a:b],
             mask if whole else mask[a:b]) for a, b in zip(cuts, cuts[1:])]


def _take(todo: queue.SimpleQueue):
    """Run the parts of ``todo`` until it is empty: (index, exception) of a
    part that raised, else None.  A part that raises empties the queue, so
    the other thread stops after the part it is running: the parts are
    taken in order, so every part before the failing one has been taken,
    and the lowest failing part still runs."""
    while True:
        try:
            i, passes, part = todo.get_nowait()
        except queue.Empty:
            return None
        try:
            passes(*part)
        except Exception as exc:
            try:
                while True:
                    todo.get_nowait()
            except queue.Empty:
                return i, exc


def _run_parts(k: int, passes, parts: list):
    """``passes(*part)`` for every part (a block's half, or a whole block
    of one function of a batch): with ``k`` = 2 CPUs, on the caller and on
    the pooled worker at once; with 1, in order on the caller.

    The two threads take the parts from one queue, in order, so a part the
    worker has not started when the caller is free runs on the caller: a
    worker that starts late costs at most its hand-off.  The worker runs in
    a copy of the caller's ``contextvars`` context, which holds NumPy's
    ``errstate``.  A part that raises empties the queue (``_take``), so the
    other thread stops after the part it is running; once both threads are
    done, the exception of the first part that raised is raised in the
    caller: the one a serial run raises.  The task handed to the worker
    holds the queue and the context copy alone, and the queue is empty when
    both threads are done, so no array outlives the call in a task the
    worker has yet to drop.
    """
    if k == 1 or len(parts) < 2:
        for part in parts:
            passes(*part)
        return
    todo = queue.SimpleQueue()
    for i, part in enumerate(parts):
        todo.put((i, passes, part))
    try:
        task = _WORKER.submit(contextvars.copy_context().run, _take, todo)
    except RuntimeError:
        # no thread can start (the interpreter is shutting down, as in an
        # atexit handler): the caller runs every part
        task = None
    try:
        mine = _take(todo)
    finally:
        # a task the worker never started is cancelled: the caller ran its
        # parts.  Otherwise wait for it, also when the caller raised
        theirs = None if task is None or task.cancel() else task.result()
    failed = [f for f in (mine, theirs) if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def _stream(atom: Atom, g2: LineGrid, *,
            h: SampledFunction | list | None = None,
            field: PhasePlaneField | None = None, spec=None,
            out_grid: LineGrid | None = None,
            energy: np.ndarray | None = None) -> np.ndarray:
    """The transform chain on blocks of ``_BLOCK_ROWS`` first-axis rows.

    A block enters as the embedding h(omega) * ell(z, omega) carried by the
    backward axis-2 transform onto ``g2`` (``h`` given) or as rows of
    ``field``, whose second axis is ``g2``.  Without ``out_grid`` the blocks
    are the rows of the returned K x g2.count field.  With ``out_grid`` a
    block is multiplied by the symbol ``spec`` (a ``SymbolSpec``, if given)
    on its rows' cells, ``spec.cell_field``, carried by the forward transform
    onto ``out_grid`` and projected against the fibers there, and the
    blocks' projections, summed in block order, are returned: values on
    ``out_grid``.  With ``h``, ``out_grid`` and no symbol the chain is the
    fused round trip (``round_trips``), and ``h`` may be a list of
    functions on one grid, a batch: their values, one row each, are
    returned.  ``energy`` (a batch's count x K floats), if given, receives
    each row's energy sum |W[k, j]|^2 of each function's field W between
    the two transforms, as ``PhasePlaneField.weighted_norm`` takes them.

    Each transform is a DFT core between two phase diagonals, the post-phase
    carrying the grid step (``fourier._sandwich``).  The diagonals depend
    on the column alone, so the blocks meet only the cores, and each
    diagonal rides on a vector the chain applies anyway:

    - the backward pre-phase on h, formed per part: the embedding is
      L * (h * pre_b) with L the fiber record, one multiply of the block;
    - the forward pre-phase on the copy of ``field``'s rows into a block;
    - between the two cores, the backward post-phase, times the forward
      pre-phase when a masked forward transform follows.  The round trip
      applies the two one after the other, so its field rows, and thus its
      output, have the bits of ``bargmann_adjoint`` and then ``bargmann``
      on every grid;
    - the forward post-phase on the summed projection, an out_grid vector.

    On centred power-of-two grids every phase is +-1 and every step a power
    of two, so this moves no bit against the diagonals applied to every
    block, except where a projection's terms are subnormal.

    The chain splits its work between the caller and one pooled worker
    thread, ``_run_parts``, when ``_PARTS`` = 2 CPUs and the rows hold at
    least ``_SPLIT_COLUMNS`` samples; otherwise the caller runs every part
    in order.  Every pass works on each row alone, so either way every
    output keeps its bits.  The parts are:

    - an unmasked projection (``bargmann``, ``round_trips``): whole
      blocks, every live block of every function of a batch in one call,
      function by function.  The thread that takes a block runs its whole
      chain in a block buffer of its own, the projection GEMV
      ``weights[rows] @ block`` included, into the block's own vector.
      Under a lock, it then sums into the outputs every vector done up to
      the first part still running, in part order: each function's blocks
      in block order, the bits of the serial sum, with only the vectors
      after a running part held.  Two CPUs hold two block buffers, both
      made by the caller;
    - a masked projection (the slow filter): the two row halves of each
      block, one call per block, in the caller's one block buffer.  The
      caller evaluates the symbol and runs the GEMV, in block order.  A
      symbol mask with a row per node (separable or general symbols) is
      held until the block's projection;
    - a returned field: the two row halves of every live block, in one
      call, in the field's own rows.

    The caller also transforms a returned field's empty row.  A complex
    record's projection takes the conjugate of the block's fiber rows, one
    block more per thread.

    A block that is not finite after its last transform raises the
    ``ValueError`` of a non-finite ``PhasePlaneField``, so the returned
    field is finite; a symbol that is not finite raises
    ``cell_field``'s.  With the split, the error raised is the lowest
    block's (of a batch, the first function's), as in a serial run.

    Each block reads the record's entries in its window alone
    (``Fibers.window``), and every output keeps the bits of the same chain
    on the dense record:

    - the embedding sets the columns outside the window to +0, copies the
      window's entries in (a real record's cast to complex in place, so no
      cast buffer is made) and multiplies the whole block by h * pre_b:
      outside the window it holds the signed-zero row (+0) * (h * pre_b),
      the bits of the dense record times h * pre_b;
    - the projection sets the columns outside the window to +0 and
      multiplies the window by the record's conjugate, and the GEMV keeps
      the block's full width.  Each column of the GEMV is its own sum, and
      one of +-0 terms adds +-0 to the running sum, which never holds -0,
      so no bit moves; a GEMV over the window's columns alone would run
      another BLAS kernel, and in a prototype it moved the golden
      ``transforms-shannon-64.json``.

    Blocks of empty fiber rows (``Fibers.live``) are skipped, and every
    output keeps its bits, signs of zero included:

    - with ``h``, every row of a block whose input fibers are empty embeds
      to the same row of signed zeros, (+0) * (h * pre_b).  A returned
      field transforms it once per call, through the same core and
      diagonal, and copies it into each such row (a +0 fill would drop the
      signs of its zeros).  A projection (onto h's grid, whose fibers are
      the input's) skips the block: its terms are signed zeros, adding +-0
      to the running sum, which starts at +0, changes no bit, and its row
      energies are +0.  The symbol is still evaluated on every block, so a
      symbol not finite on a skipped block raises.
    - from ``field`` (``bargmann``'s path: ``out_grid`` and no symbol), a
      block whose output fibers are empty projects to signed zeros and is
      skipped.
    - with ``h`` and a symbol, a block whose mask has no nonzero entry is
      skipped, embedding, both cores and projection: the block is finite
      after its backward transform, the mask makes it +-0, and so are its
      projection terms.
    """
    g1 = atom.g1
    count = g1.count
    k = _PARTS if g2.count >= _SPLIT_COLUMNS else 1  # CPUs that take parts
    whole = out_grid is not None and spec is None  # parts are whole blocks
    batch = h if isinstance(h, list) else [h]  # [None] from a field
    parts = []  # the parts of one _run_parts call after the loop
    # the sandwiches check that their grids pair (module docstring)
    if out_grid is not None:
        forward = _sandwich(g2, atom.action.axis2_forward, out_grid)
    if h is not None:
        backward = _sandwich(batch[0].grid, atom.action.axis2_backward, g2)
    if out_grid is None:
        out = np.empty((count, g2.count), dtype=complex)
    else:
        fibers_out = atom.fibers(out_grid.samples)
        weights = g1.measure_weights
        acc = np.zeros((len(batch), out_grid.count), dtype=complex)
        shape = (min(_BLOCK_ROWS, count), g2.count)
        # block buffers no thread is using: a masked projection's one, and
        # an unmasked one's, one per thread, made by the caller once its
        # parts are known, so that a block never sits in the worker's heap
        buffers = [] if whole else [np.empty(shape, dtype=complex)]
        # an unmasked projection's parts done after one still running, the
        # parts summed into acc, and the lock of the two
        done, drained, lock = {}, 0, threading.Lock()
    if h is not None:
        fibers_in = atom.fibers(batch[0].grid.samples)
        folded = spec is not None
        diag = backward.post * forward.pre if folded else backward.post
        empty_row = None  # the transformed embedding of an empty block's row

    def passes(rows, block, mask, s=0):
        """The row-wise passes on ``rows`` of function ``s``, in
        ``block``."""
        if h is None:
            np.multiply(field.values[rows], forward.pre, out=block)
        else:
            # the record's block, cast to complex in place, times h * pre_b,
            # formed per part: a batch holds no copy of its functions
            cols, V = fibers_in.window(rows)
            block[:, :cols.start] = 0.0
            block[:, cols.stop:] = 0.0
            block[:, cols] = V
            block *= batch[s].values * backward.pre
            backward.core(block)
            np.multiply(diag, block, out=block)
            if energy is not None:
                energy[s, rows] = _row_energies(block)
            if out_grid is not None and not folded:
                np.multiply(block, forward.pre, out=block)
        if out_grid is not None:
            if mask is not None:
                block *= mask
            forward.core(block)
        _require_finite(block)
        if out_grid is not None:
            # conj() of a real record is the record; of a complex one, a
            # temporary of the part's size
            cols, V = fibers_out.window(rows)
            block[:, :cols.start] = 0.0
            block[:, cols.stop:] = 0.0
            block[:, cols] *= V.conj()

    def project(i, s, rows):
        """Part ``i``, block ``rows`` of function ``s``: its whole chain and
        projection in a free buffer (each thread holds one at a time, so one
        is free), then every projection done up to the first part still
        running summed into ``acc`` in part order."""
        nonlocal drained
        buf = buffers.pop()
        block = buf[:rows.stop - rows.start]
        passes(rows, block, None, s)
        projection = weights[rows] @ block
        buffers.append(buf)
        with lock:
            done[i] = s, projection
            while drained in done:
                t, summand = done.pop(drained)
                acc[t] += summand
                drained += 1

    for b, rows in enumerate(_row_blocks(count)):
        mask = None
        if spec is not None:
            mask = spec.cell_field(g1, g2, rows)
        if h is None:
            if not fibers_out.live[b]:
                continue
        elif spec is not None and not mask.any():
            continue
        elif not fibers_in.live[b]:
            if out_grid is not None:
                if energy is not None:
                    energy[:, rows] = 0.0
                continue
            if empty_row is None:
                empty_row = np.multiply(np.zeros((1, 1)),
                                        h.values * backward.pre)
                backward.core(empty_row)
                np.multiply(diag, empty_row, out=empty_row)
                _require_finite(empty_row)
            out[rows] = empty_row
            continue
        if out_grid is None:
            parts += _parts(k, rows, out[rows], mask)
        elif whole:
            parts.append(rows)
        else:
            block = buffers[0][:rows.stop - rows.start]
            _run_parts(k, passes, _parts(k, rows, block, mask))
            acc += weights[rows] @ block
    if out_grid is None:
        _run_parts(k, passes, parts)
        return out
    if whole:
        # each function's live blocks in block order, function by function
        parts = [(i, s, rows) for i, (s, rows) in enumerate(
            (s, rows) for s in range(len(batch)) for rows in parts)]
        buffers += [np.empty(shape, dtype=complex)
                    for _ in range(min(k, len(parts)))]
        _run_parts(k, project, parts)
    acc *= forward.post
    # a zero projection is +0, as a sum of the blocks' terms gives it; a
    # negative post-phase would leave it -0, which a CSV writes as "-0"
    acc += 0.0
    _require_finite(acc)
    return acc if isinstance(h, list) else acc[0]


def _row_energies(block: np.ndarray) -> np.ndarray:
    """sum_j |block[k, j]|^2 of each row of the complex C-contiguous
    ``block``: the dot product of its float view with itself."""
    v = block.view(float)
    return np.einsum("ij,ij->i", v, v)


def _weighted_norm(g1, g2: LineGrid, energy: np.ndarray) -> float:
    """sqrt(sum_k w_k step E_k) of a field on g1 x g2 with row energies E_k."""
    return float(np.sqrt(np.sum(g1.measure_weights * (energy * g2.step))))


def bargmann(atom: Atom, field: PhasePlaneField,
             out_grid: LineGrid | None = None) -> SampledFunction:
    """Diagonalizing transform: axis-2 Fourier then fiber projection.

    On analysis fields this is an isometry onto L2 of the second coordinate;
    composed with ``analyze`` it returns the signal's omega side, f_hat in
    the wavelet case and f itself in the Gabor case.  It streams the field
    through ``_stream`` a block of rows at a time, so besides its result it
    holds one block; ``field`` is left unchanged.  A field above 2^(2B),
    past what a signal in the supported range of ``symbols`` analyzes to,
    raises ``ValueError``.
    """
    _check_first_axis(atom, field)
    _in_range(field.values, "field", exponent=2 * RANGE_EXPONENT)
    out = induced_grid(field.g2) if out_grid is None else out_grid
    return SampledFunction(out, _stream(atom, field.g2, field=field,
                                        out_grid=out))


def bargmann_adjoint(atom: Atom, f: SampledFunction,
                     out_grid: LineGrid | None = None) -> PhasePlaneField:
    """Adjoint of ``bargmann``: embedding then backward axis-2 transform.

    ``_stream`` embeds and transforms a block of rows at a time in the
    field's own array, and checks each block's finiteness, so the field is
    the one array of its size the call allocates and no second pass over it
    checks it.  A function above 2^(2B), past the omega side of a signal in
    the supported range of ``symbols``, raises ``ValueError``.
    """
    _in_range(f.values, "omega-side function", exponent=2 * RANGE_EXPONENT)
    out = induced_grid(f.grid) if out_grid is None else out_grid
    return PhasePlaneField._of_finite(atom.case, atom.g1, out,
                                      _stream(atom, out, h=f))


def round_trip(atom: Atom, h: SampledFunction,
               field_grid: LineGrid | None = None
               ) -> tuple[SampledFunction, float]:
    """``bargmann`` of ``bargmann_adjoint`` of h, back onto h's grid, and
    the field's ``weighted_norm``, in one streamed pass that holds no field:
    ``round_trips`` of the one function h.

    The field is ``bargmann_adjoint(atom, h, out_grid=field_grid)``, on the
    second axis ``field_grid`` (default ``induced_grid(h.grid)``); for h the
    omega side of a signal f on f's grid (the action's ``omega_side``) and
    ``field_grid = atom.action.analysis_axis(f.grid)``, it is
    ``analyze(atom, f)``.  Each block of its rows is formed, its row
    energies taken, and it is carried back at once (``_stream``), with the
    bits of the two calls and of ``PhasePlaneField.weighted_norm``: the
    reproducing formula (Calderon for wavelets, Gabor for windows) checked
    without the K x N field.  A function above 2^(2B) raises
    ``bargmann_adjoint``'s ``ValueError``.  No field is held for
    ``bargmann``'s range check: a block that a transform overflows raises
    the non-finite field's.
    """
    return round_trips(atom, [h], field_grid)[0]


def round_trips(atom: Atom, hs: list, field_grid: LineGrid | None = None
                ) -> list[tuple[SampledFunction, float]]:
    """``round_trip`` of each omega-side function of ``hs``, all on one
    grid, in one ``_stream`` call: every output has the bits of its own
    ``round_trip`` call.

    The (function, block) parts of the whole batch share one hand-off to
    the worker thread on two CPUs, and each function's block projections
    are summed in block order as soon as the blocks before them are.  A
    function above 2^(2B) raises before any is transformed, and a block
    that is not finite raises the error of the first function's first such
    block, as one call after another does.  Functions on other grids
    (start, step or count) raise ``ValueError``.
    """
    if not hs:
        return []
    grid = hs[0].grid
    for h in hs:
        if (h.grid.start, h.grid.step, h.grid.count) != (
                grid.start, grid.step, grid.count):
            raise ValueError(f"round trips on {h.grid!r} and {grid!r}: "
                             "one grid per call")
        _in_range(h.values, "omega-side function",
                  exponent=2 * RANGE_EXPONENT)
    g2 = induced_grid(grid) if field_grid is None else field_grid
    energy = np.empty((len(hs), atom.g1.count))
    back = _stream(atom, g2, h=list(hs), out_grid=grid, energy=energy)
    return [(SampledFunction(grid, b), _weighted_norm(atom.g1, g2, e))
            for b, e in zip(back, energy)]


def random_bandlimited(grid: LineGrid, seed: int) -> SampledFunction:
    """Unit-norm random signal whose spectrum sits in +/- [0.25, 4].

    The band matches the documented healthy range of the catalog atoms,
    where fiber norms are within tolerance of 1; transform isometry
    statements are quoted for this class.
    """
    rng = np.random.default_rng(seed)
    fgrid = induced_grid(grid)
    xs = np.abs(fgrid.samples)
    mask = (xs >= 0.25) & (xs <= 4.0)
    spec = np.zeros(grid.count, dtype=complex)
    k = int(mask.sum())
    spec[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    f = fourier(SampledFunction(fgrid, spec), "inverse", out_grid=grid)
    n = f.norm()
    return SampledFunction(grid, f.values / n)
