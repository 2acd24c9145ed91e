"""CSV and JSON export/import.

All writers are atomic (write to a temporary file in the target directory,
then rename), so failed runs never leave partial outputs.  Floats are
rendered with ``%.17g`` (full double precision) and JSON objects are written
with sorted keys, making repeated runs byte-identical.

Formats
-------
signal        header ``x,re,im``
field         header ``z,omega,re,im``
gamma         header ``xi,re,im``
kernel        header ``xi,omega,re,im``
matrix        header ``i,j,re,im``
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
    "atomic_write_text",
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
    "export_matrix",
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


def atomic_write_text(path: str, text: str):
    """Write text to ``path`` via a temporary file and atomic rename."""
    with _atomic_open(path) as fh:
        fh.write(text)


def _json_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_json(path: str, obj):
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2,
                                       default=_json_default) + "\n")


def sidecar_path(path: str) -> str:
    return f"{path}.meta.json"


def write_table(path: str, header: list[str], columns,
                metadata: dict | None = None):
    """Write equal-length columns as CSV rows, formatted one row at a time.

    Numbers are rendered with ``%.17g``; string columns (row labels) are
    written as they are.  With ``metadata`` a JSON sidecar is written too.
    """
    fmt = ",".join("%s" if np.asarray(c).dtype.kind == "U" else "%.17g"
                   for c in columns) + "\n"
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in zip(*columns))
    if metadata is not None:
        write_json(sidecar_path(path), metadata)


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
    write_signal_csv(path, atom.time_samples, atom.to_metadata())


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
    md = {"case": field.case, "g2_kind": field.g2_kind, "shape": [n1, n2]}
    md.update(metadata or {})
    write_table(path, ["z", "omega", "re", "im"],
                [np.repeat(field.g1.nodes, n2), np.tile(field.g2.samples, n1),
                 field.values.real.ravel(), field.values.imag.ravel()], md)


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
    xs, n = km.grid.samples, km.grid.count
    write_table(path, ["xi", "omega", "re", "im"],
                [np.repeat(xs, n), np.tile(xs, n),
                 km.values.real.ravel(), km.values.imag.ravel()], md)


def export_matrix(path: str, M, metadata: dict | None = None):
    md = {"atom": M.atom_name, "builder": M.builder,
          "symbol": M.symbol_descriptor, "hermitian": M.is_hermitian,
          "grid": _grid_meta(M.grid)}
    md.update(metadata or {})
    n = M.grid.count
    idx = np.arange(n)
    write_table(path, ["i", "j", "re", "im"],
                [np.repeat(idx, n), np.tile(idx, n),
                 M.values.real.ravel(), M.values.imag.ravel()], md)


def export_cloud(path: str, cloud, metadata: dict | None = None):
    md = {"atom": cloud.atom_name, "partition": cloud.partition_descriptor,
          "m": cloud.m, "grid": _grid_meta(cloud.xi_grid)}
    md.update(metadata or {})
    write_table(path, ["xi"] + [f"z{k + 1}" for k in range(cloud.m)],
                [cloud.xi_grid.samples, *cloud.points.T], md)
