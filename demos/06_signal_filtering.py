"""Localization operators as filters: masking in the transformed plane.

The slow route analyzes the signal, masks the field by the symbol and maps
back; the fast route (first-variable symbols only) multiplies by the scalar
symbol once.  A chirp passed through a one-octave scale band illustrates the
energy localization.
"""

import numpy as np

from tfloc import (LineGrid, SampledFunction, Symbol1D, SymbolSpec,
                   filter_signal, fourier, make_wavelet, make_window,
                   random_bandlimited)

print(__doc__)

grid = LineGrid.centered(8.0, 1024)
f = random_bandlimited(grid, seed=99)

gw = make_window("gaussian")
fast, slow, dev, _ = filter_signal(
    gw, SymbolSpec.first_variable(Symbol1D.constant(1.0)), f, "compare")
print(f"unit symbol: fast/slow deviation {dev:.2e}, "
      f"output norm {slow.norm():.9f} (input 1)")

half = SymbolSpec.first_variable(Symbol1D.indicator(-np.inf, 0.0))
out, coverage = filter_signal(gw, half, f, "slow")
print(f"left half-plane localization: energy {out.norm() ** 2:.6f} "
      f"<= input {f.norm() ** 2:.6f} (fiber coverage {coverage:.6f})")

xs = grid.samples
chirp = SampledFunction(grid, np.exp(2j * np.pi * (0.5 * xs + 0.08 * xs ** 2))
                        * np.exp(-(xs / 5.0) ** 2))
sh = make_wavelet("shannon")
band = SymbolSpec.first_variable(Symbol1D.indicator(1.0, 2.0))
fast, slow, dev, _ = filter_signal(sh, band, chirp, "compare")
spec_in = np.abs(fourier(chirp).values)
spec_out = np.abs(fourier(slow).values)
print(f"\nchirp through scale band [1, 2] (shannon): fast/slow dev {dev:.2e}")
print(f"  energy: in {chirp.norm() ** 2:.4f} -> out {slow.norm() ** 2:.4f}")
print(f"  spectral peak: in at |xi| = "
      f"{abs(fourier(chirp).grid.samples[int(np.argmax(spec_in))]):.3f}, "
      f"out at |xi| = "
      f"{abs(fourier(slow).grid.samples[int(np.argmax(spec_out))]):.3f} "
      "(inside the passband tent)")
