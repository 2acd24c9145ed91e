import numpy as np
import pytest

from tfloc.atoms import Fibers, make_wavelet, make_window
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
