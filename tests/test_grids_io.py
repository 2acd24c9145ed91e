import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfloc.algebra import PartitionCloud
from tfloc.fields import PhasePlaneField, analyze, random_bandlimited
from tfloc.grids import LineGrid, SampledFunction, ScaleGrid
from tfloc.io import (_BLOCK_ROWS, _write_blocks, export_cloud, export_field,
                      export_gamma, export_kernel, read_signal_csv,
                      sidecar_path, write_signal_csv, write_table)
from tfloc.kernels import GammaFunction, overlap_kernel
from tfloc.operators import OperatorMatrix, default_operator_grid


def test_line_grid_validation():
    with pytest.raises(ValueError):
        LineGrid(0.0, -1.0, 8)
    with pytest.raises(ValueError):
        LineGrid(0.0, 1.0, 1)
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
    # the matrix; the bytes are those of the whole columns
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
        path, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}-ref.csv"
        export(str(path))
        write_table(str(ref), header + ["re", "im"], cols)
        assert path.read_bytes() == ref.read_bytes(), name


def test_export_kernel_memory_is_bounded_by_one_block(tmp_path, gaussian):
    # the 4 MiB gaussian overlap kernel at n = 512, 16 writer blocks: about
    # 0.57 times the matrix (2.4 with whole-length columns); a block of
    # distinct random values reads 1.15
    km = overlap_kernel(gaussian, default_operator_grid("gabor", 512))
    path = tmp_path / "kernel.csv"
    tracemalloc.start()
    try:
        export_kernel(str(path), km)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    units = peak / km.values.nbytes
    assert units <= 1.2, f"peak {units:.2f} x matrix"


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
def test_signal_csv_reader_reads_what_the_writer_wrote(tmp_path_factory, grid,
                                                       seed):
    # the written samples carry their rounding: the reader takes the step
    # from the end points and forgives 4 ulps of max |x| on top of 1e-9 step
    path = str(tmp_path_factory.mktemp("csv") / "f.csv")
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
