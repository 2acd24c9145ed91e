"""CSV and JSON export/import.

All writers are atomic (write to a temporary file in the target directory,
then rename), so failed runs never leave partial outputs.  Floats are
rendered with ``%.17g`` (full double precision), which reads back to the
double whose repr JSON writes, so a CSV field and a JSON number of one value
agree; JSON objects are written with sorted keys, making repeated runs
byte-identical.

Every CSV goes through ``write_table``'s block writer, which formats a
table in blocks of ``_BLOCK_ROWS`` rows with the bytes of formatting every
row in turn, holding memory bounded by one block.  It keys each column of
a block on the number of distinct bit patterns it holds: a column of
mostly distinct numbers (samples, field values) is formatted with the
block's rows in one ``%`` pass; a column that repeats values (the zeros of
a real table's imaginary part, a Toeplitz kernel's lags) is formatted once
per distinct value, and its texts are carried into the next block, so a
value repeated in neighbouring blocks is formatted once.  Fields and
kernels format their node columns once per table from the grid nodes and
hand the writer one block of rows at a time, gathered from the matrix, so
exporting one holds no column of the table's length.

``read_signal_csv`` parses with numpy's C reader, which converts each field
with the correctly rounded conversion ``float()`` uses.  Input the C reader
refuses or reads as non-finite, or might read otherwise (quotes, bytes
outside printable ASCII, lines over the csv field limit), is read row by
row with the csv module instead, so it reads, or fails with the message
naming the file and the line, exactly as the row loop alone would.

Formats
-------
signal        header ``x,re,im``
field         header ``z,omega,re,im``
gamma         header ``xi,re,im``
kernel        header ``xi,omega,re,im``
cloud         header ``xi,z1,...,zm``
atom          time samples as a signal CSV plus a metadata sidecar: case,
              name, time_grid, healthy_range, fiber_tol, g1
Every CSV gets a JSON sidecar at ``<path>.meta.json`` recording provenance.
An exporter writes the keys its object carries (``export_gamma``: atom,
symbol, rule, unbounded, grid; ``export_kernel``: atom, kind, symbol, grid;
``export_cloud``: atom, partition, m, grid), and the caller's ``metadata``
adds the keys of its configuration.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import tempfile

import numpy as np

from .grids import LineGrid, SampledFunction, action_of

__all__ = [
    "write_json",
    "sidecar_path",
    "write_table",
    "write_signal_csv",
    "read_signal_csv",
    "export_atom",
    "import_atom",
    "export_field",
    "export_gamma",
    "export_kernel",
    "export_cloud",
]


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file that is renamed to ``path`` on success."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj):
    """Write ``obj`` as sorted, indented JSON, converting nothing: every
    report and sidecar is made of Python values where its numbers are
    made, and a numpy bool, integer or array raises ``TypeError``."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    with _atomic_open(path) as fh:
        fh.write(text + "\n")


def sidecar_path(path: str) -> str:
    return f"{path}.meta.json"


# rows formatted together by write_table: enough that a repeated value is
# formatted once for thousands of rows, few enough that a block's texts stay
# a few MiB whatever the table's length
_BLOCK_ROWS = 16384


def _texts(values, sep: str) -> np.ndarray:
    """``%.17g`` text of every number of ``values``, ``sep`` appended."""
    fmt = "%.17g" + sep
    return np.array(list(map(fmt.__mod__, values.tolist())), dtype=object)


def _repeated_texts(distinct: np.ndarray, sep: str, carried) -> np.ndarray:
    """Texts of a block's sorted distinct bit patterns: those the column's
    previous block ``carried`` (its patterns and texts) are taken from it,
    the others formatted."""
    texts = np.empty(distinct.size, dtype=object)
    fresh = np.ones(distinct.size, dtype=bool)
    if carried is not None:
        known, known_texts = carried
        at = np.searchsorted(known, distinct).clip(max=known.size - 1)
        fresh = known[at] != distinct
        texts[~fresh] = known_texts[at[~fresh]]
    texts[fresh] = _texts(distinct[fresh].view(float), sep)
    return texts


def _block_text(columns, carried: dict) -> str:
    """One block of the table, its equal-length columns, as CSV text.

    Each cell's text ends in its separator.  A string column (labels)
    gets its separator appended; an object column (a grid table's node
    texts) already holds its cells' texts.  A number column whose bit
    patterns are mostly distinct is formatted with the block's rows in one
    ``%`` pass.  A column that repeats values is formatted once per
    distinct bit pattern, so -0.0 and 0.0, and every nan and inf, keep the
    text they would get alone; its patterns and texts are kept in
    ``carried``, by column index, for the next block.  The cells are freed
    on return, before the caller writes the text and the file encodes it,
    so one block's cells and its encoded copy are never held together.
    """
    rows = len(columns[0])
    seps = [","] * (len(columns) - 1) + ["\n"]
    cells = np.empty((rows, len(columns)), dtype=object)
    formats = []
    for j, (col, sep) in enumerate(zip(columns, seps)):
        if col.dtype.kind == "U":
            col = col.astype(object) + sep
        if col.dtype.kind == "O":
            cells[:, j] = col
            formats.append("%s")
            continue
        values = np.ascontiguousarray(col, dtype=float)
        bits = values.view(np.int64)
        ordered = np.sort(bits)
        if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > rows:
            carried.pop(j, None)
            cells[:, j] = values
            formats.append("%.17g" + sep)
            continue
        distinct, index = np.unique(bits, return_inverse=True)
        texts = _repeated_texts(distinct, sep, carried.get(j))
        carried[j] = (distinct, texts)
        cells[:, j] = texts.take(index)
        formats.append("%s")
    if all(f == "%s" for f in formats):
        return "".join(cells.ravel().tolist())
    return "".join(formats) * rows % tuple(cells.ravel().tolist())


def _write_blocks(path: str, header: list[str], rows: int, block,
                  metadata: dict | None):
    """The CSV writer: ``block(start, stop)`` gives the columns of rows
    ``start:stop``, asked for one ``_BLOCK_ROWS`` block at a time, so a
    caller can build each block's columns when it is written."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        carried = {}
        for start in range(0, rows, _BLOCK_ROWS):
            fh.write(_block_text(block(start, min(start + _BLOCK_ROWS, rows)),
                                 carried))
    if metadata is not None:
        write_json(sidecar_path(path), metadata)


def write_table(path: str, header: list[str], columns,
                metadata: dict | None = None):
    """Write equal-length columns as CSV rows.

    Numbers (bool, int or float columns) are rendered with ``%.17g``;
    string columns (row labels) are written as they are.  Rows are
    formatted in blocks of ``_BLOCK_ROWS`` (see ``_block_text``), with the
    same bytes as formatting row by row.
    Columns of unequal length, or of another dtype (complex among them),
    raise ``ValueError`` before any file is opened.  With ``metadata`` a
    JSON sidecar is written too.
    """
    columns = [np.asarray(c) for c in columns]
    shapes = [c.shape for c in columns]
    if any(len(sh) != 1 for sh in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"columns must be 1-D of one length, got shapes "
                         f"{shapes}")
    for c in columns:
        if c.dtype.kind not in "biufU":
            raise ValueError(f"cannot write a column of dtype {c.dtype}: "
                             "expected bool, int, float or str")
    rows = shapes[0][0] if shapes else 0
    _write_blocks(path, header, rows,
                  lambda start, stop: [c[start:stop] for c in columns],
                  metadata)


def _write_grid_table(path: str, header: list[str], nodes1, nodes2, values,
                      metadata: dict):
    """A matrix as rows ``nodes1[i], nodes2[j], re, im`` in row-major
    order, through ``_write_blocks``.  The node texts are formatted once
    per table and each block's columns gathered by row index when it is
    written, so no column of the table's length is ever made."""
    n2 = values.shape[1]
    texts1 = _texts(np.asarray(nodes1, dtype=float), ",")
    texts2 = _texts(np.asarray(nodes2, dtype=float), ",")

    def block(start, stop):
        i, j = np.divmod(np.arange(start, stop), n2)
        v = values[i, j]
        return [texts1[i], texts2[j], v.real, v.imag]

    _write_blocks(path, header, values.size, block, metadata)


def _grid_meta(grid) -> dict:
    """The grid's ``params`` and their values."""
    return {key: getattr(grid, key) for key in grid.params}


# -- signals -----------------------------------------------------------------

def write_signal_csv(path: str, f: SampledFunction, metadata: dict | None = None):
    write_table(path, ["x", "re", "im"],
                [f.grid.samples, f.values.real, f.values.imag], metadata)


# bytes the C reader may read otherwise than the csv module and float():
# quotes, non-ASCII, and control characters other than the line ends (the C
# reader takes \x1c-\x1f as padding, float() refuses them)
_C_REFUSED = np.ones(256, dtype=bool)
_C_REFUSED[[10, 13, *range(32, 127)]] = False
_C_REFUSED[ord('"')] = True


def _check_header(path: str, reader):
    """Read the header row of a signal CSV and check that it is x,re,im."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path}: line 1: {exc}") from None
    if header is None or [h.strip() for h in header[:3]] != ["x", "re", "im"]:
        raise ValueError(f"{path}: expected header 'x,re,im', got {header}")


def _undecodable(path: str) -> ValueError:
    """The error naming the file and the line of the first byte of ``path``
    that does not decode as UTF-8, its lines ended as the csv reader ends
    them (LF, CRLF or CR)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ValueError(f"{path}: line {line}: byte "
                          f"0x{data[exc.start]:02x} does not decode as UTF-8")
    return ValueError(f"{path}: does not decode as UTF-8")


@contextlib.contextmanager
def _utf8_text(path: str):
    """``path`` opened as UTF-8 text for the csv reader.  A byte that does
    not decode raises the ``ValueError`` of ``_undecodable``: the text
    reader decodes ahead of the rows, so its own error names no line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _undecodable(path) from None


def _parsed_rows(path: str) -> np.ndarray | None:
    """The x, re, im fields of a signal CSV as an (n, 3) array, parsed by
    numpy's C reader with the correctly rounded conversion ``float()``
    uses; ``None`` for input the C reader refuses or reads as non-finite,
    and for input it might read otherwise than ``_csv_rows``: quotes,
    bytes outside printable ASCII and line ends, and lines as long as the
    csv field limit or longer.  A byte that does not decode as UTF-8 raises
    ``ValueError`` naming the file and its line."""
    with _utf8_text(path) as fh:
        _check_header(path, csv.reader(fh))
        body = fh.read()
    codes = np.frombuffer(body.encode(), dtype=np.uint8)
    lines = np.diff(np.flatnonzero(codes == 10), prepend=-1,
                    append=codes.size)
    if (_C_REFUSED[codes].any() or lines.max() > csv.field_size_limit()
            or not body.strip()):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", usecols=(0, 1, 2),
                          comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if np.isfinite(rows).all() else None


def _csv_rows(path: str) -> np.ndarray:
    """The x, re, im fields of a signal CSV as an (n, 3) array, read row
    by row with the csv module and ``float()``: blank rows are skipped and
    fields past the third ignored.  A missing, non-numeric or non-finite
    field, a row the csv module cannot split, or a byte that does not
    decode as UTF-8 raises ``ValueError`` naming the file and the line."""
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        _check_header(path, reader)
        rows = []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) < 3:
                    raise ValueError(f"expected 3 fields x,re,im, got {len(row)}")
                x, re, im = float(row[0]), float(row[1]), float(row[2])
                if not (math.isfinite(x) and math.isfinite(re)
                        and math.isfinite(im)):
                    raise ValueError(f"non-finite value in {row[:3]}")
                rows.append((x, re, im))
        except UnicodeDecodeError:
            raise  # named by _utf8_text
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, 3)


def read_signal_csv(path: str) -> SampledFunction:
    """Read a signal CSV (header ``x,re,im``) on a uniform grid.

    The rows are parsed by numpy's C reader; input it refuses, or might
    read otherwise, is read row by row with the csv module instead
    (``_csv_rows``), which gives the same values or the error naming the
    file and the line.  The step is taken from the end points,
    (x[n-1] - x[0]) / (n - 1), and every x must lie within 1e-9 step plus
    4 ulps of max |x| of that fit: the written samples carry their
    rounding, which exceeds any fraction of the step once |x| >> step.  A
    missing, non-numeric or non-finite field, or a row the csv module
    cannot split, raises ``ValueError`` naming the file and the line.
    """
    rows = _parsed_rows(path)
    if rows is None:
        rows = _csv_rows(path)
    n = rows.shape[0]
    if n < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    xs = rows[:, 0]
    step = (xs[-1] - xs[0]) / (n - 1)
    tol = 1e-9 * step + 4 * np.spacing(np.max(np.abs(xs)))
    if not step > 0 or np.max(np.abs(xs - (xs[0] + np.arange(n) * step))) > tol:
        raise ValueError(f"{path}: samples are not uniformly spaced")
    return SampledFunction(LineGrid(xs[0], step, n),
                           rows[:, 1] + 1j * rows[:, 2])


# -- atoms -------------------------------------------------------------------

def export_atom(path: str, atom):
    """Write the atom's time samples as a signal CSV, with the sidecar
    that ``import_atom`` rebuilds the atom from."""
    write_signal_csv(path, atom.time_samples, {
        "case": atom.case, "name": atom.name,
        "time_grid": _grid_meta(atom.time_samples.grid),
        "healthy_range": list(atom.healthy_range),
        "fiber_tol": atom.fiber_tol,
        "g1": {"kind": atom.g1.kind, **_grid_meta(atom.g1)}})


def _sidecar_value(sidecar: str, md, key: str):
    """The value of the dotted ``key`` of the atom sidecar ``md`` read from
    ``sidecar``; ``ValueError`` naming the sidecar and the first missing
    part of the key ("g1" when there is no g1)."""
    value, parts = md, key.split(".")
    for k, part in enumerate(parts):
        if not isinstance(value, dict) or part not in value:
            raise ValueError(f"{sidecar}: atom sidecar has no key "
                             f"{'.'.join(parts[:k + 1])!r}")
        value = value[part]
    return value


def import_atom(path: str):
    """Rebuild an atom from CSV samples and its sidecar.

    The atom is an ordinary ``Atom`` whose profiles are the linear
    interpolation of its samples (``SampledFunction.interp``, zero outside
    their grid): the time samples of the CSV and their forward transform
    (``fourier``).  The interpolant's nodes are its
    ``profile_breakpoints``, the positive frequency nodes for a wavelet and
    the time nodes for a window, so every quadrature over the profile splits
    at its kinks.  Its ``support`` is the time samples' grid for a window
    and, for a wavelet, ends at its last positive frequency node: the
    transform of its samples, real as the catalog's (``AdmissibilityError``
    otherwise), has an even modulus on it, so one profile table serves both
    signs of xi.  The support is not exact.

    Its ``fiber_tol`` is the larger of the sidecar's and the largest
    |fiber norm - 1| of its own record on 256 omegas spanning its healthy
    range (lo, hi), ``LineGrid(lo, (hi - lo) / 256, 256)``: the interpolant
    of a truncated or band-limited profile misses the catalog's tolerance
    (shannon's reads 3.3e-2, haar's 0.12).  Sidecar keys other than those
    ``export_atom`` writes are ignored.  A sidecar missing a key, or whose
    ``g1`` kind does not match its case (``grid.kind`` of the case's
    first-axis action: a scale grid for a wavelet, a line grid for a
    window), raises ``ValueError`` naming the sidecar.  Samples out of the
    supported range of ``symbols`` (a part above 2^256) raise ``ValueError``
    naming the CSV, before they are transformed.
    """
    from .atoms import Atom, Fibers, _certify_real
    from .fourier import fourier
    from .symbols import _in_range

    sidecar = sidecar_path(path)
    with open(sidecar) as fh:
        md = json.load(fh)
    get = functools.partial(_sidecar_value, sidecar, md)
    case, kind = get("case"), get("g1.kind")
    action = action_of(case)
    if kind != action.grid.kind:
        raise ValueError(f"{sidecar}: a {case} atom needs a g1 of kind "
                         f"{action.grid.kind!r}, got {kind!r}")
    g1 = action.grid(*(get(f"g1.{key}") for key in action.grid.params))
    time_samples = read_signal_csv(path)
    # checked before the transform, which a sample near the float maximum
    # overflows
    _in_range(time_samples.values, f"{path}: atom samples")
    freq_samples = fourier(time_samples, "forward")
    support, breakpoints = action.imported_support(
        time_samples.grid, freq_samples.grid.samples)
    atom = Atom(case, get("name"), time_samples, g1, time_samples.interp,
                freq_samples.interp, support, profile_breakpoints=breakpoints,
                healthy_range=tuple(get("healthy_range")),
                fiber_tol=get("fiber_tol"))
    if action.even:
        _certify_real(atom)
    lo, hi = atom.healthy_range
    omegas = LineGrid(lo, (hi - lo) / 256, 256).samples
    # norms past the float range read inf, and so does the tolerance
    with np.errstate(over="ignore"):
        norms = Fibers.of(atom, omegas).norms
    atom.fiber_tol = max(atom.fiber_tol, float(np.max(np.abs(norms - 1.0))))
    return atom


# -- library objects ----------------------------------------------------------

def export_field(path: str, field, metadata: dict | None = None):
    n1, n2 = field.values.shape
    # every field is an analysis field: its second axis is zeta2
    md = {"case": field.case, "g2_kind": "zeta2", "shape": [n1, n2]}
    md.update(metadata or {})
    _write_grid_table(path, ["z", "omega", "re", "im"], field.g1.nodes,
                      field.g2.samples, field.values, md)


def export_gamma(path: str, gf, metadata: dict | None = None):
    md = {"atom": gf.atom_name, "symbol": gf.symbol_descriptor,
          "rule": gf.rule, "unbounded": gf.unbounded,
          "grid": _grid_meta(gf.grid)}
    md.update(metadata or {})
    write_table(path, ["xi", "re", "im"],
                [gf.grid.samples, gf.values.real, gf.values.imag], md)


def export_kernel(path: str, km, metadata: dict | None = None):
    md = {"atom": km.atom_name, "kind": km.builder,
          "symbol": km.symbol_descriptor, "grid": _grid_meta(km.grid)}
    md.update(metadata or {})
    xs = km.grid.samples
    _write_grid_table(path, ["xi", "omega", "re", "im"], xs, xs, km.values, md)


def export_cloud(path: str, cloud, metadata: dict | None = None):
    md = {"atom": cloud.atom_name, "partition": cloud.partition_descriptor,
          "m": cloud.m, "grid": _grid_meta(cloud.xi_grid)}
    md.update(metadata or {})
    write_table(path, ["xi"] + [f"z{k + 1}" for k in range(cloud.m)],
                [cloud.xi_grid.samples, *cloud.points.T], md)
