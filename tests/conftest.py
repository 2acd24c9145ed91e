import numpy as np
import pytest

from tfloc.atoms import Atom, make_wavelet, make_window
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
def ell_calls(monkeypatch):
    """Records the omega count of every Atom.ell_matrix call in the test."""
    calls = []
    original = Atom.ell_matrix

    def counted(self, omegas):
        calls.append(len(omegas))
        return original(self, omegas)

    monkeypatch.setattr(Atom, "ell_matrix", counted)
    return calls
