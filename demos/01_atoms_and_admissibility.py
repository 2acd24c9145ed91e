"""Catalog atoms and their admissibility certificates.

Builds the two wavelets and two windows, prints their supports, the
admissibility residuals (the energy integral does not depend on xi for a
real wavelet: it is the total of the atom's profile table), and the
fiber-norm quality on the default quadrature grids.
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
    s_lo, s_hi = atom.support
    print(f"wavelet {name:8s}  |xi| in [{s_lo:g}, {s_hi:g}]")
    print(f"  admissibility residual: {residual:.2e}")
    print(f"  fiber-norm deviation on |omega| in [{lo:g}, {hi:g}]: "
          f"{fiber_dev:.2e} (documented tolerance {atom.fiber_tol:g})")

for name in ("gaussian", "rect"):
    atom = make_window(name)
    omegas = np.linspace(-8.0, 8.0, 65, endpoint=False)
    fiber_dev = np.max(np.abs(atom.fibers(omegas).norms - 1.0))
    s_lo, s_hi = atom.support
    print(f"window  {name:8s}  x in [{s_lo:g}, {s_hi:g}]  "
          f"L2 norm {atom.time_samples.norm():.12f}")
    print(f"  fiber-norm deviation on [-8, 8): {fiber_dev:.2e}")

print()
print("The scale quadrature places 32 log-midpoint nodes per octave, so the")
print("one-octave band-limited wavelet integrates to 1 exactly; the window")
print("lattices hit the gaussian/indicator sums at machine precision too.")
