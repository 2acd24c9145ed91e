"""Windowed fiber records.

An atom that declares an exact support (shannon, rect) stores and sweeps
its fiber record in one column window per block of ``_BLOCK_ROWS`` rows;
every output must keep the bits of the same call on the dense record, the
record the atom gets with no exact support declared.
"""

import copy
import dataclasses

import numpy as np
import pytest

from tfloc import fields
from tfloc.atoms import Fibers, _row_blocks, make_atom
from tfloc.fields import _stream, bargmann, bargmann_adjoint, round_trip
from tfloc.grids import LineGrid, SampledFunction, induced_grid
from tfloc.io import export_atom, import_atom
from tfloc.symbols import Symbol1D, SymbolSpec

SIZES = (2, 63, 64, 1001, 4096)
KINDS = ("centred", "off-centre", "positive", "negative", "through-0")
WINDOWED = [("wavelet", "shannon"), ("gabor", "rect")]


def _grid(kind, n, lattice):
    """An omega grid of ``n`` samples: on the lattice a step of 1/16 and a
    start on its multiples (a strided view for rect), off it a step of
    0.07."""
    step = 1 / 16 if lattice else 0.07
    first = {"centred": -(n // 2), "off-centre": 7 - (n // 2),
             "positive": 1, "negative": -n, "through-0": -(n // 3 + 1)}[kind]
    return LineGrid(first * step, step, n)


def _dense(atom):
    """A new atom with ``atom``'s profiles and no exact support: its
    records are the dense ones."""
    other = copy.copy(atom)
    other.exact_support = None
    other._last_fibers = None
    return other


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _check_record(atom, fib, L):
    """The windowed record ``fib`` is ``ell_matrix``'s ``L`` bit for bit."""
    assert fib.ell.dtype == L.dtype and fib.ell.shape == L.shape
    assert np.array_equal(fib.ell.view(np.int64), L.view(np.int64)), atom


def _check_tight(atom, fib, L):
    """Each window is the hull of its block's columns holding a word that
    is not +0, and holds the block's values there, read-only."""
    for rows, cols, V in zip(_row_blocks(len(L)), fib.windows, fib.values):
        assert V.shape == (rows.stop - rows.start, cols.stop - cols.start)
        assert not V.flags.writeable
        used = np.flatnonzero(L[rows].view(np.int64).any(axis=0))
        if used.size:
            assert (cols.start, cols.stop) == (used[0], used[-1] + 1), atom
        else:
            assert cols.start == cols.stop


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "off"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case,name", WINDOWED)
def test_windowed_record_keeps_the_bits_of_the_dense_one(case, name, kind,
                                                         lattice):
    atom = make_atom(case, name)
    dense_atom = _dense(atom)
    rng = np.random.default_rng(5)
    K = atom.g1.count
    signed = rng.standard_normal(K)
    signed[::7] = -0.0
    complex_ = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    for n in SIZES:
        grid = _grid(kind, n, lattice)
        fib = Fibers.of(atom, grid.samples)
        dense = Fibers.of(dense_atom, grid.samples)
        L = atom.ell_matrix(grid.samples)
        _check_record(atom, fib, L)
        _check_tight(atom, fib, L)
        assert all(w == slice(0, n) for w in dense.windows)
        if lattice and case == "gabor":
            assert fib.stored is not None and fib.stored.base is not None
        else:
            assert fib.stored is None
        assert sum(V.size for V in fib.values) < K * n
        assert (fib.live, fib.span) == (dense.live, dense.span)
        assert fib.dtype == dense.dtype == np.float64
        for rows in (slice(0, K), fib.span, slice(100, 300)):
            assert _bits(fib.dense(rows)) == _bits(L[rows])
        assert _bits(fib.norms) == _bits(dense.norms)
        for factors in ((signed,), (complex_, fib.weights),
                        (signed, complex_)):
            assert _bits(fib.power_sums(*factors)) == \
                _bits(dense.power_sums(*factors)), (n, len(factors))
        h = SampledFunction(grid, rng.standard_normal(n)
                            + 1j * rng.standard_normal(n))
        assert fib.coverage(h) == dense.coverage(h)
        if n <= 64 or (n == 1001 and kind == "centred"):
            for w in (fib.weights, complex_):
                (G, rows), (D, dense_rows) = fib.gram(w), dense.gram(w)
                assert rows == dense_rows and _bits(G) == _bits(D)


@pytest.mark.parametrize("case,name", WINDOWED)
def test_windows_hold_the_entries_rounded_into_the_support(case, name):
    # omegas within a few floats of where each block's extreme nodes meet
    # the ends of the support (on both signs for the wavelet, where z omega
    # can round onto an end from outside it): the window must still hold
    # every entry that is not +0.  rect's nodes are moved off the unit,
    # where z + 1 rounds
    atom = make_atom(case, name)
    if case == "gabor":
        atom.g1 = LineGrid(-16.0 + 1 / 3, 1 / 16, 512)
    z, (lo, hi) = atom.g1.nodes, atom.exact_support
    ends = []
    for rows in _row_blocks(z.size):
        z_min, z_max = z[rows].min(), z[rows].max()
        if case == "wavelet":
            ends += [lo / z_max, hi / z_min, lo / z_min, hi / z_max]
        else:
            ends += [z_min + lo, z_max + hi, z_max + lo, z_min + hi]
    ends = np.array(ends)
    if case == "wavelet":
        ends = np.concatenate([ends, -ends])
    omegas = np.unique(np.concatenate(
        [ends + k * np.spacing(ends) for k in range(-4, 5)]))
    fib = Fibers.of(atom, omegas)
    L = atom.ell_matrix(omegas)
    _check_record(atom, fib, L)
    _check_tight(atom, fib, L)


def test_a_window_shrunk_by_one_column_fails_the_check():
    # each window is tight: dropping its first or last column drops a word
    # that is not +0, which the bit check of the record sees
    for case, name in WINDOWED:
        atom = make_atom(case, name)
        grid = _grid("through-0", 1001, lattice=False)
        fib = Fibers.of(atom, grid.samples)
        L = atom.ell_matrix(grid.samples)
        _check_record(atom, fib, L)
        shrunk = 0
        for b, (cols, V) in enumerate(zip(fib.windows, fib.values)):
            if cols.start == cols.stop:
                continue
            for keep, part in ((slice(cols.start + 1, cols.stop), V[:, 1:]),
                               (slice(cols.start, cols.stop - 1), V[:, :-1])):
                windows, values = list(fib.windows), list(fib.values)
                windows[b], values[b] = keep, part
                bad = dataclasses.replace(fib, windows=tuple(windows),
                                          values=tuple(values))
                with pytest.raises(AssertionError):
                    _check_record(atom, bad, L)
                shrunk += 1
        assert shrunk >= 8, name


@pytest.mark.parametrize("parts", [1, 2], ids=["whole", "split"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case,name", WINDOWED)
def test_streams_keep_the_bits_of_the_dense_record(case, name, kind, parts,
                                                   monkeypatch):
    # analysis fields (bargmann_adjoint), projections from a field
    # (bargmann), the fused round trip and the slow filter's masked chain,
    # whole and split into row halves or whole blocks on two threads
    monkeypatch.setattr(fields, "_PARTS", parts)
    monkeypatch.setattr(fields, "_SPLIT_COLUMNS", 1)
    band = (0.5, 4.0) if case == "wavelet" else (-2.0, 3.0)
    spec = SymbolSpec.first_variable(Symbol1D.indicator(*band))
    rng = np.random.default_rng(11)
    for n in SIZES:
        for lattice in (True, False):
            if n == 4096 and (kind != "centred" or not lattice):
                continue
            grid = _grid(kind, n, lattice)
            g2 = induced_grid(grid)
            h = SampledFunction(grid, rng.standard_normal(n)
                                + 1j * rng.standard_normal(n))
            atom = make_atom(case, name)
            dense_atom = _dense(atom)
            got, want = [], []
            for a, out in ((atom, got), (dense_atom, want)):
                back, norm = round_trip(a, h)
                out += [back.values, norm,
                        _stream(a, g2, h=h, spec=spec, out_grid=grid)]
                if n <= 1001:
                    field = bargmann_adjoint(a, h)
                    out += [field.values,
                            bargmann(a, field, out_grid=grid).values]
            for i, (x, y) in enumerate(zip(got, want)):
                assert _bits(x) == _bits(y), (n, lattice, i)


def test_truncated_and_imported_atoms_keep_dense_records(tmp_path):
    # gaussian's and haar's supports truncate their profiles where they are
    # small, and an imported atom declares none: every block's window is
    # the whole row, over ell_matrix's array or the lattice view.  Omegas
    # out of order keep shannon's and rect's dense records too
    imported = []
    for case, name in (("gabor", "gaussian"), ("wavelet", "shannon")):
        path = str(tmp_path / f"{name}.csv")
        export_atom(path, make_atom(case, name))
        imported.append(import_atom(path))
    atoms = [make_atom("gabor", "gaussian"), make_atom("wavelet", "haar"),
             *imported]
    grid = _grid("through-0", 63, lattice=False)
    unsorted = grid.samples[::-1].copy()
    for atom, omegas in [(a, grid.samples) for a in atoms] + [
            (make_atom(c, n), unsorted) for c, n in WINDOWED]:
        assert atom.exact_support is None or omegas is unsorted
        fib = Fibers.of(atom, omegas)
        assert all(w == slice(0, omegas.size) for w in fib.windows), atom
        assert fib.stored is not None and fib.stored.flags.owndata
        assert all(np.shares_memory(V, fib.stored) for V in fib.values)
        assert _bits(fib.ell) == _bits(atom.ell_matrix(omegas))
