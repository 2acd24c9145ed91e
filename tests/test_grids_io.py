import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfloc.algebra import PartitionCloud
from tfloc.fields import PhasePlaneField, analyze, random_bandlimited
from tfloc.grids import LineGrid, SampledFunction, ScaleGrid, subgrid_indices
from tfloc.io import (export_cloud, export_field, export_gamma, export_kernel,
                      export_matrix, read_signal_csv, sidecar_path,
                      write_signal_csv, write_table)
from tfloc.kernels import GammaFunction
from tfloc.operators import (OperatorMatrix, build_direct,
                             default_operator_grid)
from tfloc.symbols import Symbol1D, SymbolSpec


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


def test_subgrid_indices():
    full = LineGrid(-8.0, 1.0 / 64, 1024)
    sub = LineGrid(-8.0, 1.0 / 16, 256)
    assert subgrid_indices(sub, full) == (0, 4)
    with pytest.raises(ValueError):
        subgrid_indices(LineGrid(-8.0, 0.3, 10), full)


def test_sampled_function_norm_matches_direct_sum():
    grid = LineGrid(0.0, 0.25, 16)
    f = SampledFunction(grid, np.ones(16))
    assert abs(f.norm() - 2.0) <= 1e-14  # sqrt(16 * 0.25)


def test_export_field_roundtrips_columns(tmp_path, gaussian):
    f = random_bandlimited(LineGrid.centered(8.0, 1024), seed=3)
    W = analyze(gaussian, f, g2=LineGrid.centered(8.0, 64))
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


def test_export_matrix_roundtrips_entries(tmp_path, gaussian):
    grid = default_operator_grid("gabor", 32)
    M = build_direct(gaussian,
                     SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)),
                     grid)
    path = str(tmp_path / "op.csv")
    export_matrix(path, M)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (1024, 4)
    got = rows[:, 2].reshape(32, 32) + 1j * rows[:, 3].reshape(32, 32)
    assert np.max(np.abs(got - M.values)) == 0.0
    meta = json.loads(open(sidecar_path(path)).read())
    assert meta["builder"] == "direct" and meta["hermitian"] is True


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
        field = PhasePlaneField("wavelet", g1, grid, vals, "zeta2")
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
    if kind == "matrix":
        M = OperatorMatrix(grid, mat, "direct", "gaussian", "x")
        rows = [(i, j, mat[i, j].real, mat[i, j].imag) for i, j in pairs]
        return (lambda p: export_matrix(p, M),
                _csv_text(["i", "j", "re", "im"], rows))
    points = np.abs(rng.standard_normal((4, 3)))
    points /= points.sum(axis=1, keepdims=True)
    cloud = PartitionCloud(grid, points, "partition", "gaussian")
    return (lambda p: export_cloud(p, cloud),
            _csv_text(["xi", "z1", "z2", "z3"],
                      [(x, *pt) for x, pt in zip(xs, points)]))


@pytest.mark.parametrize("kind", ["signal", "field", "gamma", "kernel",
                                  "matrix", "cloud"])
def test_exporter_bytes_pinned(tmp_path, kind):
    write, expected = _exporter_case(kind)
    path = tmp_path / f"{kind}.csv"
    write(str(path))
    assert path.read_bytes() == expected.encode()


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
