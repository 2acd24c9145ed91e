import math

import numpy as np
import pytest

from tfloc.fourier import _cis, fourier
from tfloc.grids import LineGrid, SampledFunction, induced_grid


def test_gaussian_fixed_point():
    grid = LineGrid.centered(8.0, 1024)
    f = SampledFunction(grid, np.exp(-np.pi * grid.samples ** 2) + 0j)
    fh = fourier(f, "forward")
    expected = np.exp(-np.pi * fh.grid.samples ** 2)
    assert np.max(np.abs(fh.values - expected)) <= 1e-8


def test_zero_maps_to_zero():
    grid = LineGrid.centered(4.0, 64)
    fh = fourier(SampledFunction(grid, np.zeros(64)))
    assert np.all(fh.values == 0)


def test_parseval_random_vs_direct_riemann():
    # oracle: direct Riemann-sum norms on both sides
    rng = np.random.default_rng(42)
    grid = LineGrid.centered(6.0, 512)
    vals = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    f = SampledFunction(grid, vals)
    fh = fourier(f)
    n_in = math.sqrt(float(np.sum(np.abs(vals) ** 2)) * grid.step)
    n_out = math.sqrt(float(np.sum(np.abs(fh.values) ** 2)) * fh.grid.step)
    assert abs(n_out - n_in) / n_in <= 1e-10


def test_unitarity_100_random_signals():
    rng = np.random.default_rng(7)
    grid = LineGrid.centered(6.0, 512)
    for _ in range(100):
        f = SampledFunction(grid, rng.standard_normal(512)
                            + 1j * rng.standard_normal(512))
        fh = fourier(f)
        assert abs(fh.norm() - f.norm()) / f.norm() <= 1e-10


def test_roundtrip_centered_grid():
    rng = np.random.default_rng(3)
    grid = LineGrid.centered(8.0, 256)
    f = SampledFunction(grid, rng.standard_normal(256)
                        + 1j * rng.standard_normal(256))
    back = fourier(fourier(f, "forward"), "inverse")
    assert (back.grid.start, back.grid.step, back.grid.count) == (
        grid.start, grid.step, grid.count)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_roundtrip_offset_grid_with_target():
    rng = np.random.default_rng(4)
    grid = LineGrid(0.0, 1.0 / 64, 128)  # not centered
    f = SampledFunction(grid, rng.standard_normal(128) + 0j)
    back = fourier(fourier(f, "forward"), "inverse", out_grid=grid)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_forward_against_direct_dft_sum():
    # oracle: literal O(n^2) Riemann sum of the defining integral
    rng = np.random.default_rng(5)
    grid = LineGrid.centered(4.0, 64)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    fh = fourier(SampledFunction(grid, vals))
    xs, xis = grid.samples, fh.grid.samples
    direct = (vals[None, :]
              * np.exp(-2j * np.pi * xis[:, None] * xs[None, :])).sum(axis=1) * grid.step
    assert np.max(np.abs(fh.values - direct)) <= 1e-10


def test_rejects_nonfinite():
    grid = LineGrid.centered(1.0, 8)
    bad = np.zeros(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fourier(SampledFunction(grid, bad))


def test_rejects_incompatible_out_grid():
    grid = LineGrid.centered(1.0, 16)
    f = SampledFunction(grid, np.ones(16))
    with pytest.raises(ValueError, match="step"):
        fourier(f, out_grid=LineGrid(0.0, 1.0, 16))


def test_induced_grid_is_involutive_on_centered_grids():
    grid = LineGrid.centered(8.0, 256)
    again = induced_grid(induced_grid(grid))
    assert (again.start, again.step, again.count) == (
        grid.start, grid.step, grid.count)


# -- phase factors ----------------------------------------------------------------

def test_cis_exact_at_quarter_turns():
    k = np.arange(-4096, 4097)
    assert np.array_equal(_cis(k / 4.0), (1j ** (k % 4)).astype(complex))
    # far from the origin too: x.25 and x.5 are exact up to 2^50 turns
    big = 2.0 ** np.arange(20, 51)
    assert np.array_equal(_cis(big + 0.25), np.full(big.size, 1j))
    assert np.array_equal(_cis(-(big + 0.5)), np.full(big.size, -1 + 0j))


def test_cis_within_two_ulp_of_exp_near_zero():
    t = np.linspace(-0.125, 0.125, 100_001)
    got, ref = _cis(t), np.exp(2j * np.pi * t)
    for part in ("real", "imag"):
        a, b = getattr(got, part), getattr(ref, part)
        assert np.all(np.abs(a - b) <= 2 * np.spacing(np.abs(b))), part


@pytest.mark.parametrize("k", [1, -1, 3, 1000, -65536, 2 ** 20, -2 ** 20])
def test_cis_periodic_bit_for_bit(k):
    # dyadic turns with 30 fractional bits: t + k is exact for |k| <= 2^20
    rng = np.random.default_rng(abs(k))
    t = rng.integers(-2 ** 30, 2 ** 30, 2000) / 2.0 ** 30
    assert np.array_equal(_cis(t + k), _cis(t))
