"""The library's input checks: each call raises its exception with its
message.  The command-line side of the same contract (exit 2, the message
on stderr, no traceback, no output file) is pinned in ``test_cli.py``."""

import re

import numpy as np
import pytest

from tfloc.algebra import (Partition, PartitionCloud, evaluate_on_cloud,
                           partition_gammas)
from tfloc.atoms import Atom
from tfloc.fields import (PhasePlaneField, bargmann, bargmann_adjoint,
                          round_trip)
from tfloc.fourier import fourier
from tfloc.grids import LineGrid, SampledFunction, ScaleGrid
from tfloc.kernels import GammaFunction, gamma
from tfloc.operators import (OperatorMatrix, filter_signal, hausdorff_distance,
                             operator_norm)
from tfloc.symbols import Symbol1D, SymbolSpec

G2 = LineGrid(0.0, 1.0, 2)
G4 = LineGrid(0.0, 1.0, 4)
SIGNAL = SampledFunction(G4, np.ones(4))
# grids the DFT cannot pair with G4 (induced step 1/4): a wrong step and a
# wrong count
OFF_STEP = LineGrid(0.0, 0.5, 4)
OFF_COUNT = LineGrid(0.0, 0.25, 5)
COUNT_MESSAGE = "output grid must have the same sample count"
STEP_MESSAGE = "output grid step must be 1/(count*step) of the input grid"


def _operator(values, **kw):
    return OperatorMatrix(G2 if np.shape(values) == (2, 2) else G4, values,
                          "test", "atom", "symbol", **kw)


def _field(case, g1, values, g2=G2):
    return PhasePlaneField(case, g1, g2, values)


def _spoiled_signal():
    """A signal whose values are made non-finite after it was made (its
    constructor rejects non-finite values): they are a read-only view, so
    the edit raises and no non-finite value reaches ``fourier``; the
    caller's array stays writeable."""
    values = np.ones(4, dtype=complex)
    f = SampledFunction(G4, values)
    assert values.flags.writeable
    f.values[1] = np.nan
    return f


def _huge_window_gamma(rule):
    """gamma of const:1 for a window of 1e200 on [0, 1), whose |phi|^2
    overflows (no catalog window does)."""
    def huge(x):
        return 1e200 * ((x >= 0) & (x < 1)).astype(float)

    atom = Atom("gabor", "huge", SIGNAL, G4, huge, SIGNAL.interp, (0.0, 1.0))
    with np.errstate(over="ignore"):
        return gamma(atom, Symbol1D.constant(1.0), G4, rule=rule)


def _bargmann(atom, out_grid):
    """``bargmann`` of a zero field on the atom's grid x G4."""
    field = _field(atom.case, atom.g1, np.zeros((atom.g1.count, 4)), G4)
    return bargmann(atom, field, out_grid=out_grid)


# (call of the session atoms shannon and gaussian, exception, message)
CHECKS = {
    "gamma-values-shape": (
        lambda s, g: GammaFunction(G4, np.zeros(3), "atom", "symbol", "grid"),
        ValueError, "gamma values must match the frequency grid"),
    "operator-shape": (
        lambda s, g: _operator(np.zeros((3, 3))),
        ValueError, "operator must be 4x4, got (3, 3)"),
    "operator-non-finite": (
        lambda s, g: _operator([[np.inf, 0.0], [0.0, 0.0]]),
        ValueError, "operator contains non-finite entries"),
    "operator-real-symbol-not-hermitian": (
        lambda s, g: _operator([[0.0, 1.0], [0.0, 0.0]], symbol_is_real=True),
        ValueError, "real symbol produced a non-Hermitian matrix (dev 1.00e+00)"),
    "hausdorff-empty": (
        lambda s, g: hausdorff_distance([1.0, 2.0], []),
        ValueError, "the Hausdorff distance of an empty multiset is "
                    "undefined"),
    "gamma-rule": (
        lambda s, g: gamma(g, Symbol1D.constant(1.0), G4, rule="nosuch"),
        ValueError, "unknown rule 'nosuch'"),
    "gamma-grid-not-finite": (
        lambda s, g: _huge_window_gamma("grid"),
        ValueError, "gamma for const:1 is not finite on the grid"),
    "gamma-adaptive-integrand-not-finite": (
        lambda s, g: _huge_window_gamma("adaptive"),
        ValueError, "Atom(gabor:huge) profile on [0, 1]: integrand is not "
                    "finite"),
    "filter-method": (
        lambda s, g: filter_signal(
            g, SymbolSpec.first_variable(Symbol1D.constant(1.0)), SIGNAL,
            method="nosuch"),
        ValueError, "unknown method 'nosuch'"),
    "fourier-out-grid-count": (
        lambda s, g: fourier(SIGNAL, "forward", out_grid=OFF_COUNT),
        ValueError, COUNT_MESSAGE),
    "fourier-out-grid-step": (
        lambda s, g: fourier(SIGNAL, "forward", out_grid=OFF_STEP),
        ValueError, STEP_MESSAGE),
    "bargmann-out-grid-count": (
        lambda s, g: _bargmann(g, OFF_COUNT), ValueError, COUNT_MESSAGE),
    "bargmann-out-grid-step": (
        lambda s, g: _bargmann(g, OFF_STEP), ValueError, STEP_MESSAGE),
    "bargmann-adjoint-out-grid-count": (
        lambda s, g: bargmann_adjoint(g, SIGNAL, out_grid=OFF_COUNT),
        ValueError, COUNT_MESSAGE),
    "bargmann-adjoint-out-grid-step": (
        lambda s, g: bargmann_adjoint(g, SIGNAL, out_grid=OFF_STEP),
        ValueError, STEP_MESSAGE),
    "round-trip-field-grid-count": (
        lambda s, g: round_trip(g, SIGNAL, field_grid=OFF_COUNT),
        ValueError, COUNT_MESSAGE),
    "round-trip-field-grid-step": (
        lambda s, g: round_trip(g, SIGNAL, field_grid=OFF_STEP),
        ValueError, STEP_MESSAGE),
    "fourier-non-finite": (
        lambda s, g: fourier(_spoiled_signal()),
        ValueError, "assignment destination is read-only"),
    "fourier-sign": (
        lambda s, g: fourier(SIGNAL, "sideways"),
        ValueError, "sign must be 'forward' or 'inverse', got 'sideways'"),
    "field-non-finite": (
        lambda s, g: _field("gabor", G2, [[np.nan, 0.0], [0.0, 0.0]]),
        ValueError, "field contains non-finite values"),
    "field-case": (
        lambda s, g: _field("other", G2, np.zeros((2, 2))),
        ValueError, "unknown case 'other'"),
    "field-wavelet-first-axis": (
        lambda s, g: _field("wavelet", G2, np.zeros((2, 2))),
        ValueError, "wavelet fields need a ScaleGrid first axis"),
    "field-shape": (
        lambda s, g: _field("gabor", G2, np.zeros((2, 3))),
        ValueError, "field shape (2, 3) does not match grids (2, 2)"),
    "scale-grid-count": (
        lambda s, g: ScaleGrid(1.0, 2.0, 1),
        ValueError, "scale grid needs at least 2 nodes, got 1"),
    "scale-grid-count-not-whole": (
        lambda s, g: ScaleGrid(1.0, 2.0, 2.5),
        ValueError, "grid count 2.5 is not a whole number"),
    "scale-grid-log-ratio": (
        lambda s, g: ScaleGrid(1.0, np.inf, 4),
        ValueError, "scale grid [1.0, inf] overflows"),
    "scale-grid-measure-weights": (
        lambda s, g: ScaleGrid(5e-324, 1e-300, 2),
        ValueError, "scale grid [5e-324, 1e-300] overflows"),
    "line-grid-count-not-whole": (
        lambda s, g: LineGrid(0.0, 1.0, 2.9),
        ValueError, "grid count 2.9 is not a whole number"),
    "centered-grid-count": (
        lambda s, g: LineGrid.centered(1.0, 0),
        ValueError, "grid needs at least 2 samples, got 0"),
    "operator-norm-empty": (
        lambda s, g: operator_norm(np.zeros((0, 0))),
        ValueError, "operator_norm needs a non-empty 1-D or 2-D array, "
                    "got shape (0, 0)"),
    "operator-norm-empty-1d": (
        lambda s, g: operator_norm(np.zeros(0)),
        ValueError, "operator_norm needs a non-empty 1-D or 2-D array, "
                    "got shape (0,)"),
    "operator-norm-3d": (
        lambda s, g: operator_norm(np.eye(2)[None].repeat(2, axis=0)),
        ValueError, "operator_norm needs a non-empty 1-D or 2-D array, "
                    "got shape (2, 2, 2)"),
    "operator-norm-0d": (
        lambda s, g: operator_norm(np.array(1.0)),
        ValueError, "operator_norm needs a non-empty 1-D or 2-D array, "
                    "got shape ()"),
    "sampled-function-shape": (
        lambda s, g: SampledFunction(G4, [1.0, 2.0]),
        ValueError, "expected 4 values, got shape (2,)"),
    "indicator-empty": (
        lambda s, g: Symbol1D.indicator(1.0, 1.0),
        ValueError, "indicator needs a < b, got [1.0, 1.0]"),
    "piecewise-coefficients": (
        lambda s, g: Symbol1D.piecewise([[(0.0, 1.0)]], [1.0, 2.0]),
        ValueError, "one coefficient per piece required"),
    "symbol-kind": (
        lambda s, g: SymbolSpec("other"),
        ValueError, "unknown symbol kind 'other'"),
    "atom-case": (
        lambda s, g: Atom("other", "test", SIGNAL, G4, SIGNAL.interp,
                          SIGNAL.interp, (0.0, 1.0)),
        ValueError, "unknown case 'other'"),
    "admissibility-of-a-window": (
        lambda s, g: g.admissibility_integral(1.0),
        ValueError, "admissibility integral applies to wavelets"),
    "admissibility-at-zero": (
        lambda s, g: s.admissibility_integral(0.0),
        ValueError, "admissibility is evaluated at nonzero frequencies"),
    "cloud-shape": (
        lambda s, g: PartitionCloud(G4, np.zeros((3, 2)), "p", "atom"),
        ValueError, "points must be (xi_count, m)"),
    "cloud-negative-coordinate": (
        lambda s, g: PartitionCloud(G4, np.full((4, 2), -1.0), "p", "atom"),
        ValueError, "negative simplex coordinate -1.00e+00"),
    "partition-case": (
        lambda s, g: partition_gammas(s, Partition(g, [0.0]), G4),
        ValueError, "partition and atom case tags differ"),
    "cloud-coefficients": (
        lambda s, g: evaluate_on_cloud(
            [1.0, 2.0, 3.0], PartitionCloud(G4, np.full((4, 2), 0.5), "p",
                                            "atom")),
        ValueError, "need 2 coefficients, got (3,)"),
}


@pytest.mark.parametrize("label", CHECKS)
def test_input_check_raises_its_message(shannon, gaussian, label):
    call, exc, message = CHECKS[label]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call(shannon, gaussian)
