import math

import numpy as np
import pytest
from scipy.special import erf

from tfloc import algebra, cli, kernels
from tfloc.algebra import (Partition, commutator_diagnostics,
                           evaluate_on_cloud, partition_gammas,
                           semi_commutator)
from tfloc.atoms import make_atom
from tfloc.grids import LineGrid
from tfloc.kernels import gamma
from tfloc.operators import (build_direct, default_operator_grid,
                             operator_norm)
from tfloc.symbols import Symbol1D, SymbolSpec

GABOR_GRID = default_operator_grid("gabor", 256)
WAVELET_GRID = default_operator_grid("wavelet", 128)


# -- partitions -----------------------------------------------------------------

def test_partition_validation(gaussian, shannon):
    # the domain is the range of atom.g1: the translation range of the
    # gaussian window, the scale range of shannon (which excludes 0)
    lo, hi = gaussian.g1.start, gaussian.g1.stop
    for atom, cuts in [(gaussian, [lo - 1.0]), (gaussian, [hi]),
                       (gaussian, [lo]), (shannon, [0.0]),
                       (shannon, [shannon.g1.u_max * 2]),
                       (gaussian, [float("nan")])]:
        with pytest.raises(ValueError, match="strictly inside"):
            Partition(atom, cuts)
    for cuts in ([0.0, 0.0], [1.0, -1.0, 1.0]):
        with pytest.raises(ValueError, match="repeated"):
            Partition(gaussian, cuts)


def test_partition_from_cuts(gaussian, shannon):
    lo, hi = gaussian.g1.start, gaussian.g1.stop
    p = Partition(gaussian, [2.0, 0.0])
    assert p.m == 3 and p.case == "gabor" and p.domain == (lo, hi)
    assert p.pieces == [[(lo, 0.0)], [(0.0, 2.0)], [(2.0, hi)]]
    assert p.descriptor() == f"partition[gabor]:[{lo:g},0);[0,2);[2,{hi:g})"
    assert Partition(gaussian, []).pieces == [[(lo, hi)]]
    w = Partition(shannon, [1.0])
    assert w.domain == (shannon.g1.u_min, shannon.g1.u_max)
    assert w.descriptor() == "partition[wavelet]:[0.00390625,1);[1,256)"


# -- gamma vectors ------------------------------------------------------------------

def test_whole_domain_piece_gives_unit_coordinate(gaussian):
    part = Partition(gaussian, [])
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    assert np.max(np.abs(cloud.points - 1.0)) <= 1e-6


def test_split_at_zero_traces_erf_segment(gaussian):
    part = Partition(gaussian, [0.0])
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    e = erf(math.sqrt(2 * math.pi) * GABOR_GRID.samples)
    ref = np.stack([0.5 * (1 - e), 0.5 * (1 + e)], axis=1)
    assert np.max(np.abs(cloud.points - ref)) <= 1e-6
    # the cloud lies on the segment z1 + z2 = 1 from (0,1) to (1,0)
    assert np.max(np.abs(cloud.points.sum(axis=1) - 1.0)) <= 1e-6


def test_coordinate_sums_unit_any_partition(gaussian, shannon):
    for atom, grid, cuts in [(gaussian, GABOR_GRID, [-3.0, 0.5, 4.0]),
                             (shannon, WAVELET_GRID, [0.5, 1.0, 32.0])]:
        part = Partition(atom, cuts)
        cloud = partition_gammas(atom, part, grid)
        assert np.max(np.abs(cloud.points.sum(axis=1) - 1.0)) <= 1e-6


def test_simplex_constraint_enforced(gaussian):
    part = Partition(gaussian, [0.0])
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    assert float(cloud.points.min()) >= -1e-8


def test_refinement_reproduces_coarse_coordinates(gaussian):
    # splitting one piece: the two refined coordinates sum to the coarse
    # one, to the adaptive rule's error
    c1 = partition_gammas(gaussian, Partition(gaussian, [0.0]), GABOR_GRID)
    c2 = partition_gammas(gaussian, Partition(gaussian, [-2.0, 0.0]),
                          GABOR_GRID)
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
    part = Partition(gaussian, [0.0])
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
    part = Partition(gaussian, [0.0])
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    samples, sup = evaluate_on_cloud([1.0, 1.0], cloud)
    assert np.max(np.abs(samples - 1.0)) <= 1e-6
    assert abs(sup - 1.0) <= 1e-6


def test_tau_halfline_sup_approaches_one(gaussian):
    part = Partition(gaussian, [0.0])
    cloud = partition_gammas(gaussian, part, GABOR_GRID)
    _, sup = evaluate_on_cloud([1.0, 0.0], cloud)
    assert sup >= 1.0 - 1e-3


def test_tau_isometry_against_operator_norm(gaussian, shannon):
    rng = np.random.default_rng(12)
    for atom, grid, cuts in [(gaussian, GABOR_GRID, [0.0]),
                             (shannon, WAVELET_GRID, [1.0])]:
        part = Partition(atom, cuts)
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
    rel = commutator_diagnostics(gaussian, pool, GABOR_GRID)
    assert sorted(rel) == [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert max(rel.values()) <= 5e-3


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
    rel = commutator_diagnostics(gaussian, pool, grid)
    assert len(calls) == len(pool)
    assert sorted(rel) == [(0, 1), (0, 2), (1, 2)]


def test_algebra_commands_read_the_table_once_per_partition(monkeypatch,
                                                           tmp_path,
                                                           imported):
    # a cloud is one read of the atom's cumulative-profile table at the
    # partition's m + 1 edges and no gamma call: `verify algebra` (whose
    # only cloud is the partition's; its commutators read the grid rule) and
    # `tfloc algebra` alike, and an imported atom's cloud too
    calls, reads = [], []
    gamma, profile_at = algebra.gamma, kernels._profile_at

    def counting_gamma(atom, alpha, *args, **kwargs):
        calls.append(alpha.descriptor)
        return gamma(atom, alpha, *args, **kwargs)

    def counting_read(atom, xs, ends):
        reads.append(len(ends))
        return profile_at(atom, xs, ends)

    monkeypatch.setattr(kernels, "_profile_at", counting_read)
    for module in (algebra, kernels, cli):
        monkeypatch.setattr(module, "gamma", counting_gamma)
    out = str(tmp_path / "out")
    for case, cuts in (("gabor", [-1.0, 0.5, 4.0]), ("wavelet", [0.5, 2.0])):
        flag = "--cuts=" + ",".join(map(str, cuts))
        for argv, m in ((["verify", "algebra"], 2),
                        (["algebra", flag], len(cuts) + 1)):
            calls.clear(), reads.clear()
            assert cli.main([*argv, "--case", case, "--n", "64",
                             "--out", out]) == 0
            assert (calls, reads) == ([], [m + 1]), (argv, case)
    for case, name, cuts in (("gabor", "rect", [-1.0, 0.5]),
                             ("wavelet", "haar", [0.5, 2.0, 8.0])):
        atom = imported(make_atom(case, name))
        calls.clear(), reads.clear()
        partition_gammas(atom, Partition(atom, cuts),
                         default_operator_grid(case, 64))
        assert (calls, reads) == ([], [len(cuts) + 2]), name


_CLOUD_CUTS = {"gabor": [[], [0.0], [-1.0, 0.5], [-3.0, 0.5, 4.0]],
               "wavelet": [[], [1.0], [0.5, 2.0], [0.25, 1.0, 8.0]]}


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_cloud_coordinates_have_the_bits_of_their_gammas(atom_name, request,
                                                         imported):
    # each coordinate of the one-read cloud is its piece's adaptive gamma,
    # bit for bit (signed zeros included, by the int64 view), on default
    # grids of odd and even n, a wavelet grid through xi = 0 and an
    # off-centre window grid, for 1 to 4 pieces: for the catalog atom and
    # for its imported export
    catalog = request.getfixturevalue(atom_name)
    grids = [default_operator_grid(catalog.case, n)
             for n in (63, 64, 255, 256)]
    grids.append(LineGrid.centered(8.0, 64) if catalog.case == "wavelet"
                 else LineGrid(-2.3, 0.07, 100))
    for atom in (catalog, imported(catalog)):
        for grid in grids:
            for cuts in _CLOUD_CUTS[atom.case]:
                part = Partition(atom, cuts)
                cloud = partition_gammas(atom, part, grid)
                cols = np.stack([gamma(atom, s, grid, rule="adaptive")
                                 .values.real
                                 for s in part.indicator_symbols()], axis=1)
                ref = algebra.PartitionCloud(grid, cols, part.descriptor(),
                                             atom.name)
                assert np.array_equal(cloud.points.view(np.int64),
                                      cols.view(np.int64)), (grid, cuts)
                assert cloud.simplex_sum_deviation == \
                    ref.simplex_sum_deviation


def test_imported_rect_cloud_sums_to_its_interpolant_mass(rect, imported):
    # the interpolant of rect's samples (step 1/256) falls linearly over
    # the last step of [0, 1), so its squared mass is 1 - 1/768, and every
    # cloud point sums to it at every xi of the default grids
    atom = imported(rect)
    for n in (63, 64, 255, 256):
        grid = default_operator_grid("gabor", n)
        for cuts in _CLOUD_CUTS["gabor"]:
            cloud = partition_gammas(atom, Partition(atom, cuts), grid)
            sums = cloud.points.sum(axis=1)
            assert np.max(np.abs(sums - (1.0 - 1.0 / 768))) <= 1e-15, \
                (n, cuts)


@pytest.mark.parametrize("scale, match", [(2.0, "symbol bound"),
                                          (math.nan, "not finite")])
def test_cloud_keeps_the_checks_of_gamma(scale, match):
    # a table whose cumulative profile reads twice the fiber mass pushes
    # coordinates above their symbol bound of 1, and a NaN one makes them
    # non-finite: the cloud raises as each piece's gamma does
    atom = make_atom("gabor", "gaussian")
    edges, cum, err = atom._profile_table
    vars(atom)["_profile_table"] = edges, cum * scale, err
    part = Partition(atom, [0.0])
    grid = default_operator_grid("gabor", 64)
    for piece in part.indicator_symbols():
        with pytest.raises(ValueError, match=match):
            gamma(atom, piece, grid, rule="adaptive")
    with pytest.raises(ValueError, match=match):
        partition_gammas(atom, part, grid)


def test_semi_commutator_halfline_split_quarter(gaussian):
    # alpha1*alpha2 = 0, so the gap is gamma1*gamma2, maximal 1/4 at xi = 0
    halves = [Symbol1D.indicator(-math.inf, 0.0),
              Symbol1D.indicator(0.0, math.inf)]
    semi = semi_commutator(gaussian, *halves, GABOR_GRID)
    assert semi.shape == (GABOR_GRID.count,)
    assert abs(np.max(np.abs(semi)) - 0.25) <= 1e-6
    assert commutator_diagnostics(gaussian, halves, GABOR_GRID)[0, 1] <= 5e-3


def test_semi_commutator_vanishes_for_constant(gaussian):
    semi = semi_commutator(gaussian, Symbol1D.indicator(-1.0, 1.0),
                           Symbol1D.constant(2.0), GABOR_GRID)
    assert np.max(np.abs(semi)) <= 1e-10


def _pairs(case):
    """Pairs of piecewise-constant factors: overlapping indicators, a
    half-line and an indicator, a complex constant and a complex 3-piece
    symbol, and two piecewise symbols with no common piece."""
    if case == "gabor":
        a, b, cuts = (-1.0, 1.0), (0.0, 2.0), [(-2.0, -1.0), (-1.0, 1.0),
                                              (1.0, 3.0)]
        half = Symbol1D.indicator(-math.inf, 0.5)
    else:
        a, b, cuts = (1.0, math.inf), (0.5, 4.0), [(0.5, 1.0), (1.0, 2.0),
                                                  (2.0, 8.0)]
        half = Symbol1D.indicator(1.5, math.inf)
    three = Symbol1D.piecewise([[iv] for iv in cuts], [1.0, 2j, -0.5 + 0.25j])
    return [(Symbol1D.indicator(*a), Symbol1D.indicator(*b)),
            (half, Symbol1D.indicator(*b)),
            (Symbol1D.constant(0.5 - 2j), three),
            (Symbol1D.piecewise([[cuts[0]]], [3.0]),
             Symbol1D.piecewise([[cuts[2]]], [1j]))]


@pytest.mark.parametrize("atom_name", ["gaussian", "rect", "shannon", "haar"])
def test_semi_commutator_reads_the_table(atom_name, request, monkeypatch):
    # the product of two piecewise-constant symbols records its pieces, so
    # semi_commutator runs no adaptive pass: the product's gamma reads the
    # atom's cumulative-profile table, within 8 eps of the adaptive pass
    # over the product as a plain callable
    atom = request.getfixturevalue(atom_name)
    grid = default_operator_grid(atom.case, 64)
    passes = []
    adaptive = kernels.gauss_kronrod
    monkeypatch.setattr(kernels, "gauss_kronrod",
                        lambda *a: passes.append(1) or adaptive(*a))
    for alpha1, alpha2 in _pairs(atom.case):
        prod = Symbol1D.product(alpha1, alpha2)
        passes.clear()
        semi = semi_commutator(atom, alpha1, alpha2, grid)
        assert not passes, prod.descriptor
        g1, g2, table = (gamma(atom, a, grid, rule="adaptive").values
                         for a in (alpha1, alpha2, prod))
        assert np.array_equal(semi, g1 * g2 - table), prod.descriptor
        plain = Symbol1D(prod.fn, prod.descriptor, prod.breakpoints,
                         prod.support, prod.is_real)
        ref = gamma(atom, plain, grid, rule="adaptive").values
        assert passes, prod.descriptor
        assert np.max(np.abs(table - ref)) <= 8 * np.finfo(float).eps, \
            prod.descriptor


def test_semi_commutator_generic_nonzero(gaussian):
    # halflines separated by a gap: the product symbol vanishes while both
    # windows leak into the gap, leaving |gamma1*gamma2| ~ 3.5e-2 at the
    # midpoint
    semi = semi_commutator(gaussian, Symbol1D.indicator(-math.inf, 0.0),
                           Symbol1D.indicator(0.5, math.inf), GABOR_GRID)
    assert np.max(np.abs(semi)) > 0.01
