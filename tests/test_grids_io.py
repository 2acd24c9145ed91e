import ast
import csv
import json
import math
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import SYMBOL_POOLS

from tfloc import io as tio
from tfloc.algebra import Partition, PartitionCloud
from tfloc.cli import VERIFY_SUITES, main
from tfloc.fields import PhasePlaneField, analyze, random_bandlimited
from tfloc.atoms import (WAVELET_NAMES, WINDOW_NAMES, make_atom,
                         make_wavelet, make_window)
from tfloc.fourier import fourier
from tfloc.grids import (DILATION, TRANSLATION, LineGrid, SampledFunction,
                         ScaleGrid, action_of, induced_grid)
from tfloc.io import (_BLOCK_ROWS, _write_blocks, export_cloud, export_field,
                      export_gamma, export_kernel, import_atom,
                      read_signal_csv, sidecar_path, write_json,
                      write_signal_csv, write_table)
from tfloc.kernels import GammaFunction, overlap_kernel
from tfloc.operators import OperatorMatrix, default_operator_grid
from tfloc.symbols import parse_symbol


# -- first-axis actions ------------------------------------------------------

@pytest.mark.parametrize("case, name", [("wavelet", "shannon"),
                                        ("wavelet", "haar"),
                                        ("gabor", "gaussian"),
                                        ("gabor", "rect")])
def test_each_first_axis_action_states_its_facts(case, name):
    # each fact of an action against its closed form, stated here without
    # the action: the paper's dilation z xi (wavelets) and translation
    # xi - z (windows) of one atom over the first coordinate z
    action, atom = action_of(case), make_atom(case, name)
    dilation = case == "wavelet"
    assert action is (DILATION if dilation else TRANSLATION)
    assert atom.action is action and atom.case == action.case == case
    assert repr(action) == ("DILATION" if dilation else "TRANSLATION")
    with pytest.raises(AttributeError):
        action.case = "other"
    # the first-axis grid: its kind, the sidecar's name of it, the default
    assert type(atom.g1) is action.grid is (ScaleGrid if dilation
                                             else LineGrid)
    assert action.grid.kind == ("scale" if dilation else "line")
    assert np.array_equal(action.default_g1().nodes, atom.g1.nodes)
    # the fiber: sqrt(z) conj(psi_hat(z w)) or conj(phi(w - z)), bitwise
    z, w = atom.g1.nodes[::37], np.linspace(-3.0, 3.0, 25)
    out = np.empty((z.size, w.size), atom._fiber_dtype())
    action.fiber_block(atom, z, w, out)
    ref = (np.sqrt(z)[:, None] * np.conj(atom.freq_profile(z[:, None] * w))
           if dilation else np.conj(atom.time_profile(w - z[:, None])))
    assert out.tobytes() == ref.astype(out.dtype).tobytes()
    assert action.profile(atom) == (atom.eval_freq if dilation
                                    else atom.eval_time)
    # the table's density, panels and argument, and its inverse
    t = np.linspace(0.25, 3.0, 12)
    dens = (np.abs(atom.freq_profile(t)) ** 2 / t if dilation
            else np.abs(atom.time_profile(t)) ** 2)
    assert np.allclose(action.density(atom, t), dens, rtol=1e-14, atol=0)
    cuts = action.panel_cuts(0.3, 40.0)
    assert np.array_equal(cuts, [0.5, 1, 2, 4, 8, 16, 32] if dilation
                          else np.arange(1.0, 41.0))
    xs, ends = np.array([-2.5, 0.0, 1.5]), np.array([0.5, 2.0])
    live, x = action.table_argument(xs, ends)
    arg = (np.abs(xs)[:, None] * ends if dilation else xs[:, None] - ends)
    assert np.array_equal(x, arg[live])
    assert np.array_equal(xs[live], xs[xs != 0] if dilation else xs)
    with np.errstate(divide="ignore"):
        back = action.coordinate(x, xs[live][:, None])
    assert np.allclose(back, ends, rtol=1e-15, atol=0)
    # the difference of a table read at a < b is the table over [a, b]:
    # the argument rises with z under dilation and falls under translation
    P = x  # a table that is the argument itself
    assert np.all(action.table_difference(P, 0, 1) > 0)
    # the support probes lie outside the support, on both signs of xi for
    # a dilation, whose profile is even
    lo, hi = atom.support
    below, above = np.nextafter([lo, hi], [-np.inf, np.inf])
    probes = np.array(action.support_probes(lo, hi, below, above))
    outside = np.abs(probes) if dilation else probes
    assert np.all((outside < lo) | (outside > hi))
    assert action.even is dilation and action.exact_lattice is not dilation
    # the axis-2 pairing, the omega side and the analysis axis
    assert (action.axis2_forward, action.axis2_backward) == (
        ("forward", "inverse") if dilation else ("inverse", "forward"))
    grid = LineGrid.centered(8.0, 64)
    f = random_bandlimited(grid, seed=3)
    h = action.omega_side(f)
    assert np.array_equal(h.values, fourier(f, "forward").values
                          if dilation else f.values)
    assert np.array_equal(action.omega_side(h, back_to=grid).values,
                          fourier(h, "inverse", out_grid=grid).values
                          if dilation else h.values)
    axis = action.analysis_axis(grid)
    assert axis.samples.tolist() == (grid if dilation
                                     else induced_grid(grid)).samples.tolist()
    # the difference lattice, the operator window and the CLI's defaults
    assert action.lattice_sign == (1 if dilation else -1)
    window = action.operator_grid(64)
    assert (window.start, window.stop) == ((2.0 ** -4, 2.0 ** -4 + 4.0)
                                           if dilation else (-8.0, 8.0))
    assert action.default_atom in (WAVELET_NAMES if dilation
                                   else WINDOW_NAMES)
    g1_lo, g1_hi = ((atom.g1.u_min, atom.g1.u_max) if dilation
                    else (atom.g1.start, atom.g1.stop))
    assert all(g1_lo < c < g1_hi for c in action.default_cuts)
    # the verify algebra pool of the action: the acceptance suite's pool
    assert [s.descriptor for s in VERIFY_SUITES["algebra"].symbols[action]] \
        == [s.descriptor for s in SYMBOL_POOLS[action.case]]
    assert action.describe(atom.g1) == (
        "scales [0.00390625, 256]" if dilation else "translations [-16, 16)")


def test_an_atom_takes_its_actions_grid_kind(gaussian):
    # a first-axis grid of the other kind is refused when the atom is
    # built, as a field's is: the wavelet catalog on a line grid, and back
    with pytest.raises(ValueError,
                       match="wavelet atoms need a ScaleGrid first axis"):
        make_wavelet("shannon", LineGrid(0.125, 0.25, 64))
    with pytest.raises(ValueError,
                       match="gabor atoms need a LineGrid first axis"):
        make_window("gaussian", ScaleGrid(0.5, 2.0, 64))


@pytest.mark.parametrize("case", ["other", "", None, ["wavelet"],
                                  {"case": "gabor"}])
def test_an_unknown_case_has_no_action(case):
    # what a sidecar's JSON can hold, unhashable values included
    with pytest.raises(ValueError, match="unknown case"):
        action_of(case)


def test_no_scope_outside_the_actions_compares_a_case_string(scopes_where):
    # the Calderon/Gabor choice is stated once, by the first-axis actions:
    # outside grids.py and the CLI's argument parser no scope compares a
    # value with "gabor" or "wavelet"
    def compares_a_case(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Constant) and n.value in ("gabor", "wavelet")
            for side in (node.left, *node.comparators)
            for n in ast.walk(side))

    allowed = ("grids.py:", "cli.py:build_parser", "cli.py:_add_common")
    assert [scope for scope in scopes_where(compares_a_case)
            if not scope.startswith(allowed)] == []


def test_line_grid_validation():
    with pytest.raises(ValueError):
        LineGrid(0.0, -1.0, 8)
    with pytest.raises(ValueError):
        LineGrid(0.0, 1.0, 1)
    # finite start and step whose last sample overflows: the error, with
    # no overflow warning before it
    with pytest.raises(ValueError, match="grid samples overflow"):
        LineGrid(1.0, 1e308, 3)
    g = LineGrid(-1.0, 0.5, 5)
    assert np.allclose(g.samples, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_scale_grid_weight_sum_invariant():
    for (lo, hi, n) in [(2.0 ** -8, 2.0 ** 8, 512), (0.1, 7.3, 33)]:
        g = ScaleGrid(lo, hi, n)
        total = float(np.sum(g.weights))
        assert abs(total - math.log(hi / lo)) <= 1e-12 * math.log(hi / lo)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] >= lo and g.nodes[-1] <= hi


def test_scale_grid_validation():
    with pytest.raises(ValueError):
        ScaleGrid(-1.0, 2.0, 16)
    with pytest.raises(ValueError):
        ScaleGrid(2.0, 1.0, 16)


# grid bounds and counts: any float (NaN, infinities and subnormals
# included), positive floats, and counts that are not whole numbers
_BOUNDS = st.floats(min_value=0.0) | st.floats()
_COUNTS = st.integers(-1, 40) | st.floats(-1.0, 40.0) | st.just(math.nan)


def _grid_or_none(make, count):
    """``make()``, a grid of ``count`` finite nodes and weights, or None
    for its ``ValueError``; no warning is raised either way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = make()
        except ValueError:
            return None
    assert isinstance(grid.count, int) and grid.count == count
    for a in (grid.nodes, grid.measure_weights,
              getattr(grid, "weights", grid.measure_weights)):
        assert a.shape == (count,) and np.all(np.isfinite(a))
    return grid


@settings(derandomize=True, database=None, deadline=None)
@given(start=st.floats(), step=_BOUNDS, count=_COUNTS)
@example(start=0.0, step=1.0, count=2.9)
@example(start=-1.7e308, step=1e307, count=34)
@example(start=0.0, step=5e-324, count=2)
def test_line_grid_and_its_induced_grid_are_finite_or_refused(start, step,
                                                              count):
    grid = _grid_or_none(lambda: LineGrid(start, step, count), count)
    if grid is not None:
        _grid_or_none(lambda: induced_grid(grid), count)


@settings(derandomize=True, database=None, deadline=None)
@given(half_width=_BOUNDS, count=_COUNTS)
@example(half_width=1.0, count=0)
@example(half_width=1.0, count=2.5)
def test_centered_grid_is_finite_or_refused(half_width, count):
    _grid_or_none(lambda: LineGrid.centered(half_width, count), count)


@settings(derandomize=True, database=None, deadline=None)
@given(u_min=_BOUNDS, u_max=_BOUNDS, count=_COUNTS)
@example(u_min=1e-320, u_max=1.0, count=4)
@example(u_min=1e-300, u_max=1e300, count=4)
@example(u_min=1.0, u_max=math.inf, count=4)
@example(u_min=5e-324, u_max=1e-300, count=2)
@example(u_min=1.0, u_max=2.0, count=2.5)
def test_scale_grid_is_finite_or_refused(u_min, u_max, count):
    # a log ratio ln(u_max / u_min) that is not finite, or measure weights
    # that overflow, raise instead of building inf and NaN weights
    _grid_or_none(lambda: ScaleGrid(u_min, u_max, count), count)


def test_sampled_function_norm_matches_direct_sum():
    grid = LineGrid(0.0, 0.25, 16)
    f = SampledFunction(grid, np.ones(16))
    assert abs(f.norm() - 2.0) <= 1e-14  # sqrt(16 * 0.25)


def test_sampled_function_interp_is_the_linear_interpolation_formula():
    # real, complex and zero-imaginary samples at points inside, on and
    # outside the grid: np.interp's values bit for bit, zero outside, and
    # float64 unless the imaginary part is nonzero
    grid = LineGrid(-1.5, 0.25, 13)
    xs = grid.samples
    x = np.concatenate([np.linspace(-3.0, 3.0, 101), xs,
                        [-1.5 - 1e-12, 1.5 + 1e-12]])
    outside = (x < -1.5) | (x > 1.5)
    assert outside.sum() == 52
    re, im = np.random.default_rng(3).standard_normal((2, 13))
    for values, real in [(re, True), (re + 1j * im, False), (re + 0j, True)]:
        got = SampledFunction(grid, values).interp(x)
        ref = np.interp(x, xs, re, left=0.0, right=0.0)
        if not real:
            ref = ref + 1j * np.interp(x, xs, im, left=0.0, right=0.0)
        assert got.dtype == (np.float64 if real else np.complex128)
        assert got.tobytes() == ref.tobytes() and not got[outside].any()


def test_reprs_name_their_objects(gaussian):
    g = LineGrid(0.0, 1.0, 2)
    reprs = [
        (g, "LineGrid(start=0, step=1, count=2)"),
        (Partition(gaussian, [0.0]), "partition[gabor]:[-16,0);[0,16)"),
        (PartitionCloud(g, np.full((2, 2), 0.5), "p", "atom"),
         "PartitionCloud(m=2, n=2)"),
        (PhasePlaneField("gabor", g, g, np.zeros((2, 2))),
         f"PhasePlaneField(gabor, {g!r} x {g!r})"),
        (SampledFunction(g, [1.0, 2.0]), f"SampledFunction({g!r})"),
        (GammaFunction(g, np.zeros(2), "atom", "symbol", "grid"),
         "GammaFunction(atom, symbol, rule=grid)"),
        (OperatorMatrix(g, np.eye(2), "test", "atom", "symbol"),
         "OperatorMatrix(test, atom, symbol, n=2)"),
    ]
    for obj, text in reprs:
        assert repr(obj) == text


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")

    def block(start, stop):
        # the temporary file exists and holds the header by now
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        _write_blocks(str(path), ["x"], 3, block, {"k": 1})
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_export_field_roundtrips_columns(tmp_path, gaussian):
    f = random_bandlimited(LineGrid.centered(8.0, 1024), seed=3)
    full = analyze(gaussian, f)
    # every 4th modulation from -8: the induced axis has step 1/16 from -32
    W = full.copy_with(full.values[:, 384::4][:, :64],
                       g2=LineGrid.centered(8.0, 64))
    assert np.array_equal(W.g2.samples, full.g2.samples[384::4][:64])
    path = str(tmp_path / "field.csv")
    export_field(path, W, metadata={"what": "spectrogram"})
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (W.g1.count * 64, 4)
    k, i = 37, 11
    idx = k * 64 + i
    assert rows[idx, 0] == W.g1.samples[k]
    assert abs(rows[idx, 2] + 1j * rows[idx, 3] - W.values[k, i]) == 0.0
    meta = json.loads(open(sidecar_path(path)).read())
    assert meta["shape"] == [512, 64] and meta["what"] == "spectrogram"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _exporter_case(kind):
    """(writer call, expected CSV text) for one exporter on awkward values."""
    rng = np.random.default_rng(17)
    grid = LineGrid(-0.75, 1.0 / 3.0, 4)
    xs = grid.samples
    vec = rng.standard_normal(4) * 1e3 + 1j * rng.standard_normal(4) * 1e-7
    vec[1] = complex(-0.0, 1.0 / 7.0)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pairs = [(i, j) for i in range(4) for j in range(4)]
    if kind == "signal":
        return (lambda p: write_signal_csv(p, SampledFunction(grid, vec)),
                _csv_text(["x", "re", "im"],
                          [(x, v.real, v.imag) for x, v in zip(xs, vec)]))
    if kind == "field":
        g1 = ScaleGrid(0.5, 4.0, 3)
        vals = mat[:3]
        field = PhasePlaneField("wavelet", g1, grid, vals)
        rows = [(g1.nodes[k], xs[i], vals[k, i].real, vals[k, i].imag)
                for k in range(3) for i in range(4)]
        return (lambda p: export_field(p, field),
                _csv_text(["z", "omega", "re", "im"], rows))
    if kind == "gamma":
        gf = GammaFunction(grid, vec, "gaussian", "const:1", "grid")
        return (lambda p: export_gamma(p, gf),
                _csv_text(["xi", "re", "im"],
                          [(x, v.real, v.imag) for x, v in zip(xs, vec)]))
    if kind == "kernel":
        km = OperatorMatrix(grid, mat, "overlap", "gaussian", "const:1")
        rows = [(xs[i], xs[j], mat[i, j].real, mat[i, j].imag)
                for i, j in pairs]
        return (lambda p: export_kernel(p, km),
                _csv_text(["xi", "omega", "re", "im"], rows))
    points = np.abs(rng.standard_normal((4, 3)))
    points /= points.sum(axis=1, keepdims=True)
    cloud = PartitionCloud(grid, points, "partition", "gaussian")
    return (lambda p: export_cloud(p, cloud),
            _csv_text(["xi", "z1", "z2", "z3"],
                      [(x, *pt) for x, pt in zip(xs, points)]))


@pytest.mark.parametrize("kind", ["signal", "field", "gamma", "kernel",
                                  "cloud"])
def test_exporter_bytes_pinned(tmp_path, kind):
    write, expected = _exporter_case(kind)
    path = tmp_path / f"{kind}.csv"
    write(str(path))
    assert path.read_bytes() == expected.encode()


# -- the table writer ------------------------------------------------------------

def _rows_text(header, columns) -> str:
    """The writer's output formatted one row at a time: the reference."""
    fmt = ",".join("%s" if np.asarray(c).dtype.kind == "U" else "%.17g"
                   for c in columns) + "\n"
    return ",".join(header) + "\n" + "".join(fmt % row
                                              for row in zip(*columns))


def _writer_cases():
    rng = np.random.default_rng(5)
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan,
                        -np.nan, 1.0, np.finfo(float).max, 0.1, 1e-300])
    yield pytest.param([special, special[::-1].copy()], id="special values")
    yield pytest.param([np.array(["gamma"] * 3 + ["eig"] * 2 + ["a,b"]),
                        rng.standard_normal(6), np.zeros(6)], id="labels")
    yield pytest.param([np.array([0, -3, 2 ** 53 + 1, 2 ** 62, -1]),
                        np.array([True, False, True, True, False]),
                        np.arange(5, dtype=np.int32),
                        np.float32([0.1, -0.5, 3.3, 0.0, 1e-40])],
                       id="int and bool")
    yield pytest.param([rng.standard_normal(1000) for _ in range(3)],
                       id="distinct")
    yield pytest.param([np.full(1000, 0.1), np.zeros(1000),
                        np.full(1000, -0.0)], id="equal")
    yield pytest.param([np.zeros(0), np.zeros(0)], id="no rows")
    yield pytest.param([np.array([np.pi]), np.array([-0.0])], id="one row")
    for rows in (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1):
        # runs of 7 and a cycle of 13 values straddle the block edge
        pool = rng.standard_normal(13)
        yield pytest.param([np.repeat(np.arange(rows // 7 + 1) / 3, 7)[:rows],
                            np.tile(pool, rows // 13 + 1)[:rows],
                            rng.standard_normal(rows)], id=f"{rows} rows")
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
    # 2.5 blocks: a column drawing on a pool that neighbouring blocks share
    # (texts carried across each block edge, and fresh ones), a column of
    # distinct values in blocks 0 and 2 and repeated ones in block 1, and a
    # column of distinct values, each with the special values scattered
    rows = 2 * _BLOCK_ROWS + _BLOCK_ROWS // 2
    block = np.arange(rows) // _BLOCK_ROWS
    shared = rng.standard_normal(4000)[1000 * block
                                       + rng.integers(0, 2000, rows)]
    switching = np.where(block == 1, np.round(rng.standard_normal(rows), 1),
                         rng.standard_normal(rows))
    distinct = rng.standard_normal(rows)
    for col in (shared, switching, distinct):
        col[rng.integers(0, rows, 60)] = np.resize(special, 60)
    yield pytest.param([shared, switching, distinct],
                       id="texts carried across blocks")
    # the spectrum table: a label column beside distinct numbers
    re, im = rng.standard_normal((2, 500))
    re[::50], im[7::50] = np.resize(special, 10), np.resize(special, 10)
    yield pytest.param([np.array(["gamma"] * 300 + ["eig"] * 200), re, im],
                       id="labels beside distinct")


@pytest.mark.parametrize("columns", _writer_cases())
def test_write_table_bytes_match_rows_formatted_one_at_a_time(tmp_path,
                                                             columns):
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "t.csv"
    write_table(str(path), header, columns)
    assert path.read_bytes() == _rows_text(header, columns).encode()


def test_write_table_memory_is_bounded_by_one_block(tmp_path):
    # 2^17 distinct rows of 4 floats, 8 blocks: the blocked writer peaks
    # near 6.6 MiB, a whole-table one near 53 MiB
    rows = 8 * _BLOCK_ROWS
    rng = np.random.default_rng(11)
    columns = [rng.standard_normal(rows) for _ in range(4)]
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_table(str(path), ["a", "b", "c", "d"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path) as fh:
        assert sum(1 for _ in fh) == rows + 1
    path.unlink()
    assert peak <= 8 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def _grid_columns(nodes1, nodes2, values):
    """The whole-length columns of a field or kernel table: the reference
    of the streamed exporters."""
    n1, n2 = values.shape
    return [np.repeat(nodes1, n2), np.tile(nodes2, n1),
            values.real.ravel(), values.imag.ravel()]


def test_streamed_exports_match_whole_columns(tmp_path):
    # 4 and 1.8 writer blocks: the exporters gather each block's rows from
    # the matrix; the bytes are those of the whole columns formatted row by
    # row
    rng = np.random.default_rng(23)
    grid = LineGrid.centered(8.0, 256)
    mat = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    mat[::7] = np.round(mat[::7], 2)  # repeated values within a block
    km = OperatorMatrix(grid, mat, "overlap", "gaussian", "const:1")
    g1, g2 = ScaleGrid(0.5, 4.0, 300), LineGrid(-1.3, 0.1, 99)
    field = PhasePlaneField("wavelet", g1, g2, np.resize(mat, (300, 99)))
    for name, export, header, cols in [
            ("kernel", lambda p: export_kernel(p, km), ["xi", "omega"],
             _grid_columns(grid.samples, grid.samples, mat)),
            ("field", lambda p: export_field(p, field), ["z", "omega"],
             _grid_columns(g1.nodes, g2.samples, field.values))]:
        path = tmp_path / f"{name}.csv"
        export(str(path))
        assert path.read_bytes() == _rows_text(header + ["re", "im"],
                                               cols).encode(), name


def test_export_kernel_memory_is_bounded_by_one_block(tmp_path, gaussian):
    # the gaussian overlap kernel at n = 512, 16 writer blocks, measured in
    # bytes against 16 n^2, a complex matrix's size (the real kernel held
    # as float64 is half that): about 0.63 of it (2.58 MiB); a block of
    # distinct random values reads 1.15.  Each of its 262,144 rows is the
    # %.17g text of its four values, so every float reads back to the bits
    # that JSON (repr) writes
    n = 512
    km = overlap_kernel(gaussian, default_operator_grid("gabor", n))
    path = tmp_path / "kernel.csv"
    tracemalloc.start()
    try:
        export_kernel(str(path), km)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    units = peak / (16 * n * n)
    assert units <= 1.2, f"peak {units:.2f} x 16 n^2 bytes"
    xs = km.grid.samples
    assert path.read_bytes() == _rows_text(
        ["xi", "omega", "re", "im"], _grid_columns(xs, xs, km.values)).encode()
    path.unlink()


@pytest.mark.parametrize("columns,match", [
    ([np.zeros(3), np.zeros(5)], r"shapes \[\(3,\), \(5,\)\]"),
    ([np.zeros((2, 2)), np.zeros((2, 2))], "1-D"),
    ([np.zeros(3), np.ones(3) * 1j], "complex128"),
])
def test_write_table_rejects_malformed_columns(tmp_path, columns, match):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=match):
        write_table(str(path), ["a", "b"], columns, metadata={"x": 1})
    assert list(tmp_path.iterdir()) == []


# -- signal CSV reader ----------------------------------------------------------

@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """One directory for the hypothesis reader tests: each example writes
    its files over the last example's, so a test makes one directory, not
    one per example."""
    return tmp_path_factory.mktemp("csv")


def _csv_grids():
    """Grids far from zero relative to their step: |start| up to 1e6, step
    from 1e-6 to 10, up to 4096 samples."""
    magnitude = st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)
    start = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    step = st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e)
    return st.builds(LineGrid, start, step, st.integers(2, 4096))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(grid=_csv_grids(), seed=st.integers(0, 2 ** 16))
@example(grid=LineGrid(1e4, 1e-4, 1024), seed=0)
@example(grid=LineGrid(1e6, 1e-6, 100), seed=0)
@example(grid=LineGrid(1e3, 1e-3, 4096), seed=0)
def test_signal_csv_reader_reads_what_the_writer_wrote(csv_dir, grid, seed):
    # the written samples carry their rounding: the reader takes the step
    # from the end points and forgives 4 ulps of max |x| on top of 1e-9 step
    path = str(csv_dir / "written.csv")
    rng = np.random.default_rng(seed)
    n = grid.count
    f = SampledFunction(grid, rng.standard_normal(n)
                        + 1j * rng.standard_normal(n))
    write_signal_csv(path, f)
    back = read_signal_csv(path)
    assert np.array_equal(back.values, f.values)
    ulp = np.spacing(np.max(np.abs(grid.samples)))
    assert np.max(np.abs(back.grid.samples - grid.samples)) <= 4 * ulp
    # one interior sample moved by 1e-6 step is still rejected, wherever
    # that move is well above the rounding of the samples
    if n >= 3 and 1e-6 * grid.step > 16 * ulp:
        xs = grid.samples.copy()
        xs[n // 2] += 1e-6 * grid.step
        write_table(path, ["x", "re", "im"], [xs, f.values.real, f.values.imag])
        with pytest.raises(ValueError, match="uniformly spaced"):
            read_signal_csv(path)


def test_signal_csv_binary_step_reads_back_exactly(tmp_path):
    # a step exact in binary gives back the written grid bit for bit
    path = str(tmp_path / "f.csv")
    grid = LineGrid.centered(16.0, 4096)
    write_signal_csv(path, SampledFunction(grid, np.ones(4096)))
    back = read_signal_csv(path).grid
    assert (back.start, back.step) == (grid.start, grid.step)
    assert np.array_equal(back.samples, grid.samples)


# -- the C reader against the csv-module row loop -----------------------------

_PADS = [" ", "  ", "\t", "\x0c", "\x1c", "\xa0"]
_FIELD_VARIATIONS = ("pad", "quote", "underscore", "bad")
_ROW_VARIATIONS = ("extra", "short", "blank", "spaces")


def _varied_field(draw, text, kind):
    """``text`` padded, quoted, with an underscore between two digits, or
    replaced by a field the row loop refuses, by ``kind``; else as it is."""
    if kind == "pad":
        return (draw(st.sampled_from(_PADS)) + text
                + draw(st.sampled_from(_PADS + [""])))
    if kind == "quote":
        return f'"{text}"'
    if kind == "underscore":
        at = [k for k in range(1, len(text))
              if text[k - 1].isdigit() and text[k].isdigit()]
        return text[:at[0]] + "_" + text[at[0]:] if at else text
    if kind == "bad":
        # "\udcff" is written as the byte 0xff, which does not decode
        return draw(st.sampled_from(["nan", "-inf", "1e400", "abc", "",
                                     "0x10", "1\x00", "\udcff1"]))
    return text


@st.composite
def _signal_texts(draw):
    """A signal CSV as a hand-made file may hold it.  Each file takes up to
    three variations, applied to about a quarter of its fields or rows:
    padded, quoted or underscored fields, fields the row loop refuses,
    extra columns, short, blank and blank-looking rows, a field at the csv
    field limit, CRLF line ends, or LF, CRLF and CR mixed."""
    varied = draw(st.sets(st.sampled_from(
        _FIELD_VARIATIONS + _ROW_VARIATIONS + ("long", "crlf", "mixed")),
        max_size=3))

    def vary(choices):
        options = sorted(varied.intersection(choices))
        if options and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(options))
        return None

    header = draw(st.sampled_from(["x,re,im"] * 8 + [" x , re ,im",
                                                     "x,re,im,extra",
                                                     '"x",re,im', "x,re"]))
    start = draw(st.sampled_from([0.0, -1.0, 1e3]))
    step = draw(st.sampled_from([0.25, 0.1, 1 / 3]))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, 0.1]))
    lines = [header]
    for k in range(draw(st.integers(0, 8))):
        fields = [f"{start + k * step:.17g}",
                  *(repr(draw(values)) for _ in range(2))]
        fields = [_varied_field(draw, f, vary(_FIELD_VARIATIONS))
                  for f in fields]
        row = vary(_ROW_VARIATIONS)
        if row == "extra":
            fields += draw(st.sampled_from([["7"], ["", "a b"], ['"q,r"']]))
        elif row == "short":
            fields = fields[:draw(st.integers(1, 2))]
        elif row is not None:
            lines.append("" if row == "blank" else "  ")
        lines.append(",".join(fields))
    if "long" in varied and len(lines) > 1:
        # a first field of the limit's length, one less or one more
        row = draw(st.integers(1, len(lines) - 1))
        pad = csv.field_size_limit() - len(lines[row].split(",")[0])
        lines[row] = " " * (pad + draw(st.integers(-1, 1))) + lines[row]
    text = ""
    for line in lines:
        if "mixed" in varied:
            text += line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
        else:
            text += line + ("\r\n" if "crlf" in varied else "\n")
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _read_signal(path):
    f = read_signal_csv(path)
    return (np.array([f.grid.start, f.grid.step]).tobytes(), f.grid.count,
            f.values.tobytes())


def _read_symbol(path):
    sym = parse_symbol(f"sampled:{path}")
    return sym.descriptor, sym(np.linspace(-2.0, 1004.0, 41)).tobytes()


def _read_atom(path):
    atom = import_atom(path)
    return (_read_signal(path), atom.time_samples.values.tobytes(),
            atom.eval_freq(np.linspace(-2.0, 2.0, 41)).tobytes(),
            atom.fiber_tol)


def _outcome(read, path):
    """What ``read(path)`` returns, or the message of its ``ValueError``."""
    try:
        return read(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _parsed(path):
    rows = tio._parsed_rows(path)
    return None if rows is None else (rows.shape, rows.tobytes())


def _looped(path):
    rows = tio._csv_rows(path)
    return rows.shape, rows.tobytes()


# the metadata of an atom sidecar: import_atom rebuilds an atom from it and
# the samples of the CSV beside it
_ATOM_META = {"case": "gabor", "name": "gaussian",
              "healthy_range": [-8.0, 8.0], "fiber_tol": 1e-6,
              "g1": {"kind": "line", "start": -16.0, "step": 0.0625,
                     "count": 512}}


def _without(md, key):
    """A deep copy of the sidecar ``md`` without its dotted ``key``."""
    md = json.loads(json.dumps(md))
    *parents, last = key.split(".")
    inner = md
    for part in parents:
        inner = inner[part]
    del inner[last]
    return md


_WAVELET_G1 = {"kind": "scale", "u_min": 2.0 ** -8, "u_max": 2.0 ** 8,
               "count": 512}


@pytest.mark.parametrize("top", [1.7e308, 1e300])
def test_import_atom_refuses_samples_out_of_range(tmp_path, top):
    # the samples are checked before their transform: 1.7e308 overflowed
    # it (a RuntimeWarning), and 1e300 imported with fiber_tol inf
    path = str(tmp_path / "atom.csv")
    write_signal_csv(path, SampledFunction(LineGrid(0.0, 0.25, 8),
                                           np.full(8, top)))
    write_json(sidecar_path(path), _ATOM_META)
    with pytest.raises(ValueError) as info:
        import_atom(path)
    assert str(info.value).startswith(
        f"{path}: atom samples exceeds the supported range")


@pytest.mark.parametrize("md, message", [
    *(pytest.param(_without(_ATOM_META, key), f"has no key '{key}'",
                   id=f"no-{key}")
      for key in ("case", "name", "healthy_range", "fiber_tol", "g1",
                  "g1.kind", "g1.start", "g1.step", "g1.count")),
    pytest.param(_without({**_ATOM_META, "case": "wavelet",
                           "g1": _WAVELET_G1}, "g1.u_max"),
                 "has no key 'g1.u_max'", id="no-g1.u_max"),
    pytest.param([], "has no key 'case'", id="not-an-object"),
    pytest.param({**_ATOM_META, "case": "wavelet"},
                 "a wavelet atom needs a g1 of kind 'scale', got 'line'",
                 id="wavelet-on-a-line-grid"),
    pytest.param({**_ATOM_META, "g1": _WAVELET_G1},
                 "a gabor atom needs a g1 of kind 'line', got 'scale'",
                 id="window-on-a-scale-grid"),
])
def test_import_atom_checks_its_sidecar(tmp_path, md, message):
    # a sidecar missing a key the atom is rebuilt from, or pairing a case
    # with the other case's first-coordinate grid, raises ValueError naming
    # the sidecar, before any atom is built
    path = str(tmp_path / "atom.csv")
    write_signal_csv(path, SampledFunction(LineGrid(0.0, 0.25, 4),
                                           np.ones(4)))
    write_json(sidecar_path(path), md)
    with pytest.raises(ValueError) as info:
        import_atom(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{sidecar_path(path)}: ")
    assert message in str(info.value)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=_signal_texts())
@example(text="x,re,im\r\n0,1,0\r\n\r\n 0.5 ,2,0,7\r\n1,3,1\r\n")
@example(text="x,re,im\n0,1,0\n0.5,\x1c2,0\n1,3,1\n")
@example(text="x,re,im\n0,1,0\n0.5,2_0,0\n1,3,1\n")
@example(text='x,re,im\n0,1,0\n0.5,2,0,"a\n1,3,1,"\n1,3,1\n')
@example(text="x,re,im\n0,1,0\n0.5," + " " * 131072 + "2,0\n1,3,1\n")
@example(text="x,re,im\n0,1,0\n\n")
@example(text="x,re,im\n" + "".join(f"{k},1,0\n" for k in range(2000))
         + "2000,\udcff1,0\n")  # past the first 8 KiB the file decodes
@pytest.mark.parametrize("read", [_read_signal, _read_symbol, _read_atom],
                         ids=["read_signal_csv", "sampled symbol",
                              "import_atom"])
def test_signal_csv_reader_matches_the_row_loop(csv_dir, read, text):
    # the C reader gives the bits of the csv-module row loop or refuses
    # the input, and read_signal_csv and its callers return what they
    # return with the row loop alone, or raise its message with the same
    # file and line
    path = str(csv_dir / "text.csv")
    with open(path, "w", newline="", errors="surrogateescape") as fh:
        fh.write(text)
    write_json(sidecar_path(path), _ATOM_META)
    fast = _outcome(_parsed, path)
    if fast is not None:
        assert fast == _outcome(_looped, path)
    got = _outcome(read, path)
    with mock.patch.object(tio, "_parsed_rows", return_value=None):
        assert got == _outcome(read, path)


def test_undecodable_names_the_file_alone_when_its_bytes_decode(tmp_path):
    # the text reader's decode failed, but the bytes read again decode: the
    # file changed between the two reads, and no line can be named
    path = tmp_path / "mended.csv"
    path.write_text("x,re,im\n0,1,0\n")
    err = tio._undecodable(str(path))
    assert type(err) is ValueError
    assert str(err) == f"{path}: does not decode as UTF-8"


@pytest.mark.parametrize("line, ends", [(3, "\n"), (3002, "\n"),
                                        (3002, "\r\n"), (3002, "\r")])
def test_undecodable_byte_names_the_file_and_its_line(tmp_path, capsys, line,
                                                      ends):
    # a byte 0xff in a 3,002-line signal CSV: on line 3 it is inside the
    # text reader's first 8 KiB chunk, which the header row decodes; on the
    # last line the reader has decoded past the rows the csv module has
    # read.  Either way filter exits 2 naming the file and the byte's line
    rows = ["x,re,im"] + [f"{(k - 1500) / 64!r},1,0" for k in range(3001)]
    rows[line - 1] = rows[line - 1].replace(",1,", ",\udcff1,")
    path = tmp_path / "bad.csv"
    path.write_bytes((ends.join(rows) + ends).encode("utf-8",
                                                     "surrogateescape"))
    out = tmp_path / "o.csv"
    assert main(["filter", "--symbol", "const:1", "--input", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"tfloc filter: error: {path}: line {line}: byte 0xff does not "
        "decode as UTF-8\n")
    assert not out.exists()
    for read in (tio._parsed_rows, tio._csv_rows):
        with pytest.raises(ValueError, match=f"bad.csv: line {line}: byte"):
            read(str(path))


def test_signal_csv_c_reader_takes_the_common_variations(tmp_path):
    # CRLF line ends, blank rows, extra columns and space padding are read
    # by the C reader, to the bits of the row loop; the first written by
    # the writer too
    path = str(tmp_path / "f.csv")
    f = random_bandlimited(LineGrid.centered(8.0, 64), seed=5)
    write_signal_csv(path, f)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    assert tio._parsed_rows(path).tobytes() == tio._csv_rows(path).tobytes()
    lines[1:] = [f" {ln} ,7" if k % 2 else ln + "\r\n"
                 for k, ln in enumerate(lines[1:])]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    rows = tio._parsed_rows(path)
    assert rows is not None and rows.tobytes() == tio._csv_rows(path).tobytes()
    back = read_signal_csv(path)
    assert back.values.tobytes() == f.values.tobytes()
