"""Dual-route operator builds: multiplication, integral, compound symbol.

The direct route conjugates pointwise multiplication on the phase plane by
the transform chain; the specialized routes assemble the operator from the
scalar symbol, the overlap kernel with the transformed second factor, or the
compound symbol.  Their agreement, measured in operator norm, eigenvalue
Hausdorff distance and action on random vectors, is the numerical content of
the three equivalence statements.
"""

import math

from tfloc import Symbol1D, SymbolSpec, make_wavelet, make_window, \
    verify_equivalence
from tfloc.cli import VERIFY_TOL
from tfloc.operators import default_operator_grid

print(__doc__)

# the symbol's kind picks the specialized route: first-variable ->
# multiplication, second-variable -> integral, separable -> compound symbol
cases = [
    ("cto1", make_window("gaussian"),
     SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)), 256),
    ("cto2", make_window("gaussian"),
     SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0)), 128),
    ("cto2", make_wavelet("shannon"),
     SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0)), 128),
    ("cto3", make_window("gaussian"),
     SymbolSpec.separable(Symbol1D.indicator(0.0, math.inf),
                          Symbol1D.cosine_window(2.0)), 128),
    ("cto3", make_wavelet("shannon"),
     SymbolSpec.separable(Symbol1D.indicator(0.5, 8.0),
                          Symbol1D.gaussian_bump(1.0)), 128),
]

for tag, atom, spec, n in cases:
    rep = verify_equivalence(atom, spec, default_operator_grid(atom.case, n),
                             VERIFY_TOL[tag], seed=1)
    print(f"{tag} {atom.case:7s}/{atom.name:8s} N={rep['N']:3d}: "
          f"norm {rep['norm_discrepancy']:.2e}, "
          f"hausdorff {rep['hausdorff']:.2e}, "
          f"action {rep['action_error_max']:.2e} -> "
          f"{'PASS' if rep['pass'] else 'FAIL'} (tol {rep['tolerance']:g})")

print("\nThe wavelet window sits on the positive healthy band "
      "[1/16, 1/16 + 4): at zero frequency the fibers vanish, and symmetric")
print("windows couple mirrored bands through the discrete transform's "
      "wrap-around, which the continuum operator does not do.")
