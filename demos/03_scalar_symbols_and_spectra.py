"""Scalar symbols: closed forms, operator norms, spectra, boundedness.

For a first-variable symbol the localization operator acts as multiplication
by a scalar frequency function.  This script evaluates it against the two
closed forms (error function for the gaussian window, logarithmic overlap
for the band-limited wavelet), reads off norm and spectrum, and demonstrates
an unbounded symbol whose norm estimate grows without bound as the sampled
window widens.
"""

import math

import numpy as np

from tfloc import (LineGrid, Symbol1D, boundedness_verdict, gamma,
                   make_wavelet, make_window, spectrum_from_gamma)
from tfloc.operators import default_operator_grid

print(__doc__)

gw = make_window("gaussian")
grid = default_operator_grid("gabor", 256)
sym = Symbol1D.indicator(-1.0, 1.0)
gf = gamma(gw, sym, grid, rule="adaptive")
s2pi = math.sqrt(2 * math.pi)
ref = np.array([0.5 * (math.erf(s2pi * (x + 1)) - math.erf(s2pi * (x - 1)))
                for x in grid.samples])
print(f"gabor/gaussian, symbol {sym.descriptor}:")
print(f"  max |gamma - erf closed form| = {np.max(np.abs(gf.values - ref)):.2e}")
rep = spectrum_from_gamma(gf)
print(f"  operator norm estimate {rep.norm_estimate:.6f} "
      f"(erf(sqrt(2 pi)) = {math.erf(s2pi):.6f})")
print(f"  spectrum interval [{rep.interval[0]:.3e}, {rep.interval[1]:.6f}]")

sh = make_wavelet("shannon")
wgrid = default_operator_grid("wavelet", 256)
band = Symbol1D.indicator(1.0, 2.0)
gfw = gamma(sh, band, wgrid, rule="adaptive")
print(f"\nwavelet/shannon, symbol {band.descriptor}:")
print("  gamma is the log-overlap tent: "
      f"gamma(1) = {gamma(sh, band, LineGrid(1.0, 1.0, 2), rule='adaptive').values[0].real:.6f}, "
      f"gamma(1.5) = {gamma(sh, band, LineGrid(1.5, 1.0, 2), rule='adaptive').values[0].real:.6f} "
      f"(ln(4/3)/ln 2 = {math.log(4 / 3) / math.log(2):.6f})")

unb = Symbol1D.power(-1.0)
reports = []
for hi in (4.0, 8.0, 16.0):
    g = LineGrid(2.0 ** -4, (hi - 2.0 ** -4) / 128, 128)
    reports.append(spectrum_from_gamma(gamma(sh, unb, g, rule="adaptive")))
print(f"\nwavelet/shannon, symbol {unb.descriptor} (unbounded):")
print("  norm estimates over widening windows: "
      + " -> ".join(f"{r.norm_estimate:.3f}" for r in reports))
print(f"  verdict: {boundedness_verdict(reports)}")
