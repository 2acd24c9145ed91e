"""CSV and JSON export/import.

All writers are atomic (write to a temporary file in the target directory,
then rename), so failed runs never leave partial outputs.  Floats are
rendered with ``%.17g`` (full double precision) and JSON objects are written
with sorted keys, making repeated runs byte-identical.

Every CSV goes through ``write_table``, which formats a table in blocks of
``_BLOCK_ROWS`` rows and each distinct value of a block's column once: the
grid columns of a field or kernel repeat a few values, and a Toeplitz
kernel repeats its lags.  The bytes are those of formatting every row in
turn, and the memory the writer holds is bounded by one block.  Fields and
kernels hand the writer one block of their rows at a time, gathered from
the matrix, so exporting one holds no column of the table's length.

Formats
-------
signal        header ``x,re,im``
field         header ``z,omega,re,im``
gamma         header ``xi,re,im``
kernel        header ``xi,omega,re,im``
cloud         header ``xi,z1,...,zm``
atom          time samples as a signal CSV plus a metadata sidecar
Every CSV gets a JSON sidecar at ``<path>.meta.json`` recording provenance.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import tempfile

import numpy as np

from .grids import LineGrid, SampledFunction, ScaleGrid

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


def _column_texts(col: np.ndarray, sep: str) -> np.ndarray:
    """Text of every value of one block of a column, ``sep`` appended.

    Numbers are formatted with ``%.17g`` once per distinct bit pattern, so
    -0.0 and 0.0, and every nan and inf, keep the text they would get
    alone; strings pass through as they are.
    """
    if col.dtype.kind == "U":
        return col.astype(object) + sep
    bits = np.ascontiguousarray(col, dtype=float).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    fmt = "%.17g" + sep
    texts = np.array(list(map(fmt.__mod__, distinct.view(float).tolist())),
                     dtype=object)
    return texts.take(index)


def _block_text(columns) -> str:
    """One block of the table, its equal-length columns, as CSV text.

    The cell texts are freed on return, before the caller writes the text
    and the file encodes it, so one block's texts and its encoded copy are
    never held together.
    """
    seps = [","] * (len(columns) - 1) + ["\n"]
    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, (col, sep) in enumerate(zip(columns, seps)):
        cells[:, j] = _column_texts(col, sep)
    return "".join(cells.ravel().tolist())


def _write_blocks(path: str, header: list[str], rows: int, block,
                  metadata: dict | None):
    """The CSV writer: ``block(start, stop)`` gives the columns of rows
    ``start:stop``, asked for one ``_BLOCK_ROWS`` block at a time, so a
    caller can build each block's columns when it is written."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            fh.write(_block_text(block(start, min(start + _BLOCK_ROWS, rows))))
    if metadata is not None:
        write_json(sidecar_path(path), metadata)


def write_table(path: str, header: list[str], columns,
                metadata: dict | None = None):
    """Write equal-length columns as CSV rows.

    Numbers (bool, int or float columns) are rendered with ``%.17g``;
    string columns (row labels) are written as they are.  Rows are
    formatted in blocks of ``_BLOCK_ROWS``, each distinct number of a
    block's column once, with the same bytes as formatting row by row.
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
    """A complex matrix as rows ``nodes1[i], nodes2[j], re, im`` in row-major
    order, through ``_write_blocks``: each block's columns are gathered when
    it is written, so no column of the table's length is ever made."""
    n2 = values.shape[1]

    def block(start, stop):
        i, j = np.divmod(np.arange(start, stop), n2)
        v = values[i, j]
        return [nodes1[i], nodes2[j], v.real, v.imag]

    _write_blocks(path, header, values.size, block, metadata)


def _grid_meta(grid: LineGrid) -> dict:
    return {"start": grid.start, "step": grid.step, "count": grid.count}


# -- signals -----------------------------------------------------------------

def write_signal_csv(path: str, f: SampledFunction, metadata: dict | None = None):
    write_table(path, ["x", "re", "im"],
                [f.grid.samples, f.values.real, f.values.imag], metadata)


def read_signal_csv(path: str) -> SampledFunction:
    """Read a signal CSV (header ``x,re,im``) on a uniform grid.

    The step is taken from the end points, (x[n-1] - x[0]) / (n - 1), and
    every x must lie within 1e-9 step plus 4 ulps of max |x| of that fit:
    the written samples carry their rounding, which exceeds any fraction of
    the step once |x| >> step.  A missing, non-numeric or non-finite field,
    or a row the csv module cannot split, raises ``ValueError`` naming the
    file and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        if header is None or [h.strip() for h in header[:3]] != ["x", "re", "im"]:
            raise ValueError(f"{path}: expected header 'x,re,im', got {header}")
        xs, vals = [], []
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
                xs.append(x)
                vals.append(re + 1j * im)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    xs = np.asarray(xs)
    n = xs.size
    step = (xs[-1] - xs[0]) / (n - 1)
    tol = 1e-9 * step + 4 * np.spacing(np.max(np.abs(xs)))
    if not step > 0 or np.max(np.abs(xs - (xs[0] + np.arange(n) * step))) > tol:
        raise ValueError(f"{path}: samples are not uniformly spaced")
    return SampledFunction(LineGrid(xs[0], step, n), np.asarray(vals))


# -- atoms -------------------------------------------------------------------

def export_atom(path: str, atom):
    g1 = atom.g1
    if isinstance(g1, ScaleGrid):
        g1md = {"kind": "scale", "u_min": g1.u_min, "u_max": g1.u_max,
                "count": g1.count}
    else:
        g1md = {"kind": "line", **_grid_meta(g1)}
    write_signal_csv(path, atom.time_samples, {
        "case": atom.case, "name": atom.name,
        "normalization": atom.normalization,
        "time_grid": _grid_meta(atom.time_samples.grid),
        "freq_grid": _grid_meta(atom.freq_samples.grid),
        "healthy_range": list(atom.healthy_range),
        "fiber_tol": atom.fiber_tol, "g1": g1md})


def import_atom(path: str):
    """Rebuild an atom from CSV samples and its sidecar.

    Imported atoms have no closed-form profiles; fiber evaluations fall back
    to linear interpolation of the stored samples (documented, lower
    accuracy).
    """
    from .atoms import Atom
    from .fourier import fourier

    with open(sidecar_path(path)) as fh:
        md = json.load(fh)
    time_samples = read_signal_csv(path)
    freq_samples = fourier(time_samples, "forward")
    g1md = md["g1"]
    if g1md["kind"] == "scale":
        g1 = ScaleGrid(g1md["u_min"], g1md["u_max"], g1md["count"])
    else:
        g1 = LineGrid(g1md["start"], g1md["step"], g1md["count"])
    return Atom(md["case"], md["name"], time_samples, freq_samples,
                md["normalization"], g1,
                freq_support=(1e-6, 1.0 / (2 * time_samples.grid.step)),
                time_support=(time_samples.grid.start,
                              time_samples.grid.stop),
                healthy_range=tuple(md["healthy_range"]),
                fiber_tol=md["fiber_tol"])


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
