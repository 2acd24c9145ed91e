import math

import numpy as np
import pytest
from scipy.special import erf

from tfloc import algebra
from tfloc.algebra import (Partition, commutator_diagnostics,
                           default_partition_domain, evaluate_on_cloud,
                           partition_gammas, pool_commutator_diagnostics)
from tfloc.operators import (build_direct, default_operator_grid,
                             operator_norm)
from tfloc.symbols import Symbol1D, SymbolSpec

GABOR_GRID = default_operator_grid("gabor", 256)
WAVELET_GRID = default_operator_grid("wavelet", 128)


# -- partitions -----------------------------------------------------------------

def test_partition_validation():
    Partition("gabor", [[(-16.0, 0.0)], [(0.0, 16.0)]], (-16.0, 16.0))
    with pytest.raises(ValueError, match="gap|overlap"):
        Partition("gabor", [[(-16.0, -1.0)], [(0.0, 16.0)]], (-16.0, 16.0))
    with pytest.raises(ValueError, match="degenerate"):
        Partition("gabor", [[(-16.0, -16.0)], [(-16.0, 16.0)]], (-16.0, 16.0))
    with pytest.raises(ValueError, match="end"):
        Partition("gabor", [[(-16.0, 8.0)]], (-16.0, 16.0))
    with pytest.raises(ValueError, match="positive"):
        Partition("wavelet", [[(-1.0, 1.0)]], (-1.0, 1.0))


def test_partition_from_cuts():
    p = Partition.from_cuts("gabor", [0.0, 2.0], (-16.0, 16.0))
    assert p.m == 3
    assert p.pieces[1] == [(0.0, 2.0)]
    with pytest.raises(ValueError, match="inside"):
        Partition.from_cuts("gabor", [-20.0], (-16.0, 16.0))


# -- gamma vectors ------------------------------------------------------------------

def test_whole_domain_piece_gives_unit_coordinate(gaussian):
    part = Partition("gabor", [[default_partition_domain(gaussian)]],
                     default_partition_domain(gaussian))
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    assert np.max(np.abs(cloud.points - 1.0)) <= 1e-6


def test_split_at_zero_traces_erf_segment(gaussian):
    part = Partition.from_cuts("gabor", [0.0],
                               default_partition_domain(gaussian))
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    e = erf(math.sqrt(2 * math.pi) * GABOR_GRID.samples)
    ref = np.stack([0.5 * (1 - e), 0.5 * (1 + e)], axis=1)
    assert np.max(np.abs(cloud.points - ref)) <= 1e-6
    # the cloud lies on the segment z1 + z2 = 1 from (0,1) to (1,0)
    assert np.max(np.abs(cloud.points.sum(axis=1) - 1.0)) <= 1e-6


def test_coordinate_sums_unit_any_partition(gaussian, shannon):
    for atom, grid, cuts in [(gaussian, GABOR_GRID, [-3.0, 0.5, 4.0]),
                             (shannon, WAVELET_GRID, [0.5, 1.0, 32.0])]:
        part = Partition.from_cuts(atom.case, cuts,
                                   default_partition_domain(atom))
        cloud = partition_gammas(atom, part, grid)
        assert np.max(np.abs(cloud.points.sum(axis=1) - 1.0)) <= 1e-6


def test_simplex_constraint_enforced(gaussian):
    part = Partition.from_cuts("gabor", [0.0],
                               default_partition_domain(gaussian))
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    assert float(cloud.points.min()) >= -1e-8


def test_refinement_reproduces_coarse_coordinates(gaussian):
    # splitting one piece: the two refined coordinates sum to the coarse one;
    # the grid rule is exactly additive
    dom = default_partition_domain(gaussian)
    coarse = Partition.from_cuts("gabor", [0.0], dom)
    fine = Partition.from_cuts("gabor", [-2.0, 0.0], dom)
    c1 = partition_gammas(gaussian, coarse, GABOR_GRID, rule="grid")
    c2 = partition_gammas(gaussian, fine, GABOR_GRID, rule="grid")
    merged = np.stack([c2.points[:, 0] + c2.points[:, 1], c2.points[:, 2]],
                      axis=1)
    assert np.max(np.abs(merged - c1.points)) <= 1e-10


def test_cloud_refinement_converges(gaussian):
    # closure proxy under grid refinement: every coarse point persists in the
    # refined cloud (nested lattices, one-sided distance ~ 0) and the
    # symmetric fill distance halves per doubling.  A symmetric distance of
    # 1e-3 itself is out of reach at desk sizes: the curve is traversed at
    # unit-order speed, so the point gap is ~ sqrt(2)*step.
    from tfloc.operators import hausdorff_distance
    part = Partition.from_cuts("gabor", [0.0],
                               default_partition_domain(gaussian))
    clouds = [partition_gammas(gaussian, part, default_operator_grid("gabor", n))
              for n in (256, 512, 1024)]
    zs = [c.points[:, 0] + 1j * c.points[:, 1] for c in clouds]
    coarse_in_fine = float(np.max(np.min(
        np.abs(zs[0][:, None] - zs[1][None, :]), axis=1)))
    assert coarse_in_fine <= 1e-3
    d01 = hausdorff_distance(zs[0], zs[1])
    d12 = hausdorff_distance(zs[1], zs[2])
    assert d12 <= 0.65 * d01


# -- the function-algebra map ----------------------------------------------------------

def test_tau_constant_coefficients(gaussian):
    part = Partition.from_cuts("gabor", [0.0],
                               default_partition_domain(gaussian))
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    samples, sup = evaluate_on_cloud([1.0, 1.0], cloud)
    assert np.max(np.abs(samples - 1.0)) <= 1e-6
    assert abs(sup - 1.0) <= 1e-6


def test_tau_halfline_sup_approaches_one(gaussian):
    part = Partition.from_cuts("gabor", [0.0],
                               default_partition_domain(gaussian))
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    _, sup = evaluate_on_cloud([1.0, 0.0], cloud)
    assert sup >= 1.0 - 1e-3


def test_tau_isometry_against_operator_norm(gaussian, shannon):
    rng = np.random.default_rng(12)
    for atom, grid, cuts in [(gaussian, GABOR_GRID, [0.0]),
                             (shannon, WAVELET_GRID, [1.0])]:
        part = Partition.from_cuts(atom.case, cuts,
                                   default_partition_domain(atom))
        cloud = partition_gammas(atom, part, grid)
        for _ in range(5):
            coeffs = rng.standard_normal(part.m) + 1j * rng.standard_normal(part.m)
            _, sup = evaluate_on_cloud(coeffs, cloud)
            M = build_direct(atom, SymbolSpec.first_variable(
                Symbol1D.piecewise(part.pieces, coeffs)), grid)
            nm = operator_norm(M)
            assert abs(sup - nm) / nm <= 2e-3


# -- commutators ---------------------------------------------------------------------

def test_commutator_pool_all_pairs(gaussian):
    pool = [Symbol1D.indicator(-1.0, 1.0),
            Symbol1D.indicator(-math.inf, 0.0),
            Symbol1D.smooth_step(4.0),
            Symbol1D.gaussian_bump(8.0)]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            d = commutator_diagnostics(gaussian, pool[i], pool[j], GABOR_GRID)
            assert d["commutator_norm_rel"] <= 5e-3


def test_pool_builds_each_symbol_once(gaussian, monkeypatch):
    pool = [Symbol1D.indicator(-1.0, 1.0),
            Symbol1D.indicator(-math.inf, 0.0),
            Symbol1D.smooth_step(4.0)]
    grid = default_operator_grid("gabor", 64)
    calls = []

    def counting_build_direct(*args, **kwargs):
        calls.append(args[1].descriptor)
        return build_direct(*args, **kwargs)

    monkeypatch.setattr(algebra, "build_direct", counting_build_direct)
    diags = pool_commutator_diagnostics(gaussian, pool, grid, rule="grid")
    assert len(calls) == len(pool)
    assert sorted(diags) == [(0, 1), (0, 2), (1, 2)]
    # a pair alone gives the same numbers as the pair within the pool
    for (i, j), d in diags.items():
        pair = commutator_diagnostics(gaussian, pool[i], pool[j], grid,
                                      rule="grid")
        assert pair["commutator_norm_rel"] == d["commutator_norm_rel"]
        assert np.array_equal(pair["semi_commutator_values"],
                              d["semi_commutator_values"])


def test_semi_commutator_halfline_split_quarter(gaussian):
    # alpha1*alpha2 = 0, so the gap is gamma1*gamma2, maximal 1/4 at xi = 0
    d = commutator_diagnostics(gaussian,
                               Symbol1D.indicator(-math.inf, 0.0),
                               Symbol1D.indicator(0.0, math.inf),
                               GABOR_GRID)
    assert abs(d["semi_commutator_sup"] - 0.25) <= 1e-6
    assert d["commutator_norm_rel"] <= 5e-3


def test_semi_commutator_vanishes_for_constant(gaussian):
    d = commutator_diagnostics(gaussian, Symbol1D.indicator(-1.0, 1.0),
                               Symbol1D.constant(2.0), GABOR_GRID)
    assert d["semi_commutator_sup"] <= 1e-10


def test_semi_commutator_generic_nonzero(gaussian):
    # halflines separated by a gap: the product symbol vanishes while both
    # windows leak into the gap, leaving |gamma1*gamma2| ~ 3.5e-2 at the
    # midpoint
    d = commutator_diagnostics(gaussian, Symbol1D.indicator(-math.inf, 0.0),
                               Symbol1D.indicator(0.5, math.inf), GABOR_GRID)
    assert d["semi_commutator_sup"] > 0.01

