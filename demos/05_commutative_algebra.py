"""The commutative algebra of first-variable symbols.

All such operators diagonalize simultaneously: commutators vanish, yet the
algebra is not multiplicative (the semi-commutator symbol is nonzero).  For
piecewise-constant symbols the algebra is the continuous functions on the
closure of the indicator gamma-vector curve, here the segment from (0,1) to
(1,0) for the split-at-zero partition.
"""

import numpy as np

from tfloc import (Partition, Symbol1D, SymbolSpec, build_direct,
                   commutator_diagnostics, evaluate_on_cloud, make_window,
                   operator_norm, partition_gammas, semi_commutator)
from tfloc.io import export_cloud
from tfloc.operators import default_operator_grid

print(__doc__)

gw = make_window("gaussian")
grid = default_operator_grid("gabor", 256)

halves = [Symbol1D.indicator(-np.inf, 0.0), Symbol1D.indicator(0.0, np.inf)]
comm = commutator_diagnostics(gw, halves, grid)[0, 1]
semi = semi_commutator(gw, *halves, grid)
print(f"half-line split: commutator (rel) {comm:.2e}, "
      f"semi-commutator sup {np.max(np.abs(semi)):.6f} (= 1/4 at xi = 0)")

part = Partition(gw, [0.0])
cloud = partition_gammas(gw, part, grid)
print(f"\ngamma-vector cloud: m = {cloud.m}, "
      f"simplex sums within {np.max(np.abs(cloud.points.sum(axis=1) - 1)):.1e} of 1")

rng = np.random.default_rng(7)
for trial in range(3):
    coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    _, sup = evaluate_on_cloud(coeffs, cloud)
    M = build_direct(gw, SymbolSpec.first_variable(
        Symbol1D.piecewise(part.pieces, coeffs)), grid)
    print(f"  coefficients {np.round(coeffs, 3)}: sup over cloud "
          f"{sup:.6f}, operator norm {operator_norm(M):.6f}")

export_cloud("cloud.csv", cloud)
print("\nwrote cloud.csv (columns xi, z1, z2) + sidecar")
