"""Catalog atoms and their admissibility certificates.

Builds the two wavelets and two windows, prints their normalizations, the
admissibility residuals at xi = 1 (the energy integral depends on the sign
of xi alone, and for a real wavelet not even on that), and the fiber-norm
quality on the default quadrature grids.
"""

import numpy as np

from tfloc import make_wavelet, make_window

print(__doc__)

for name in ("shannon", "haar"):
    atom = make_wavelet(name)
    residual = atom.admissibility_residual()
    lo, hi = atom.healthy_range
    omegas = np.concatenate([-np.linspace(lo, hi, 25), np.linspace(lo, hi, 25)])
    fiber_dev = np.max(np.abs(atom.fibers(omegas).norms - 1.0))
    print(f"wavelet {name:8s}  normalization {atom.normalization:.12f}")
    print(f"  admissibility residual (xi = 1): {residual:.2e}")
    print(f"  fiber-norm deviation on |omega| in [{lo:g}, {hi:g}]: "
          f"{fiber_dev:.2e} (documented tolerance {atom.fiber_tol:g})")

for name in ("gaussian", "rect"):
    atom = make_window(name)
    omegas = np.linspace(-8.0, 8.0, 65, endpoint=False)
    fiber_dev = np.max(np.abs(atom.fibers(omegas).norms - 1.0))
    print(f"window  {name:8s}  L2 norm {atom.time_samples.norm():.12f}")
    print(f"  fiber-norm deviation on [-8, 8): {fiber_dev:.2e}")

print()
print("The scale quadrature places 32 log-midpoint nodes per octave, so the")
print("one-octave band-limited wavelet integrates to 1 exactly; the window")
print("lattices hit the gaussian/indicator sums at machine precision too.")
