import ast
from pathlib import Path

import numpy as np
import pytest

import tfloc
from tfloc.atoms import Fibers, make_wavelet, make_window
from tfloc.io import export_atom, import_atom
from tfloc.symbols import Symbol1D


@pytest.fixture(scope="session")
def shannon():
    return make_wavelet("shannon")


@pytest.fixture(scope="session")
def haar():
    return make_wavelet("haar")


@pytest.fixture(scope="session")
def gaussian():
    return make_window("gaussian")


@pytest.fixture(scope="session")
def rect():
    return make_window("rect")


@pytest.fixture(scope="session")
def imported(tmp_path_factory):
    """``imported(atom)``: the atom exported to CSV and imported again
    (``io.import_atom``), whose profiles interpolate its samples."""
    folder = tmp_path_factory.mktemp("imported")

    def load(atom):
        path = str(folder / f"{atom.name}.csv")
        export_atom(path, atom)
        return import_atom(path)

    return load


@pytest.fixture()
def square_wave():
    """0/1 square wave with 10^4 jumps on [-16, 16), none listed as a
    breakpoint: adaptive quadrature cannot resolve it within its panel cap."""
    lo, hi, jumps = -16.0, 16.0, 10_000
    width = (hi - lo) / jumps

    def fn(x):
        inside = (x >= lo) & (x < hi)
        return np.where(inside, np.floor((x - lo) / width) % 2, 0.0)

    return Symbol1D(fn, f"square:{jumps}", support=(lo, hi), sup_bound=1.0)


@pytest.fixture()
def fiber_builds(monkeypatch):
    """Records the omega count of every fiber record built in the test,
    a lattice view or an ``Atom.ell_matrix`` array alike (``Fibers.of``)."""
    calls = []
    original = Fibers.of.__func__

    def counted(cls, atom, omegas):
        calls.append(len(omegas))
        return original(cls, atom, omegas)

    monkeypatch.setattr(Fibers, "of", classmethod(counted))
    return calls


def _scopes_where(match):
    """"file:scope" of every node of the package's modules for which
    ``match`` holds, scope being the dotted class and function path."""
    src = Path(tfloc.__file__).parent
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if match(child):
                found.append(f"{path.name}:{scope}")
            visit(child, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "")
    return found


@pytest.fixture(scope="session")
def scopes_where():
    """The structural pins' AST search: ``scopes_where(match)`` lists
    "file:scope" of every node of the package's modules that ``match``
    holds for."""
    return _scopes_where
