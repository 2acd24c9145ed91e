"""The transform chain: analysis and the diagonalizing transform.

Shows the isometry of the analysis transform, the factorization exhibited by
the diagonalizing transform (wavelet case returns the spectrum, Gabor case
the signal itself), and exports a scalogram-style field as CSV for external
plotting.
"""

import numpy as np

from tfloc import (LineGrid, analyze, bargmann, fourier, make_wavelet,
                   make_window, random_bandlimited)
from tfloc.io import export_field

print(__doc__)

grid = LineGrid.centered(8.0, 1024)
f = random_bandlimited(grid, seed=2024)
print(f"test signal: unit-norm, spectrum in +/-[0.25, 4], N={grid.count}")

for atom in (make_wavelet("shannon"), make_window("gaussian")):
    W = analyze(atom, f)
    g = bargmann(atom, W)
    ref = fourier(f).values if atom.case == "wavelet" else f.values
    fact = np.linalg.norm(g.values - ref) / np.linalg.norm(ref)
    print(f"{atom.case:7s}/{atom.name}:")
    print(f"  |W f| = {W.weighted_norm():.12f}   (signal norm {f.norm():.12f})")
    print(f"  diagonalizing transform vs "
          f"{'spectrum' if atom.case == 'wavelet' else 'signal'}: "
          f"rel err {fact:.2e}")

W = analyze(make_wavelet("shannon"), f)
W = W.copy_with(W.values[:, ::4], g2=LineGrid(W.g2.start, 4 * W.g2.step, 256))
export_field("scalogram.csv", W, metadata={"signal_seed": 2024})
print("\nwrote scalogram.csv (columns z, omega, re, im) + sidecar")
