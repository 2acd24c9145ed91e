"""Phase-plane fields and the transform chain.

The analysis transform maps a signal to a field over the product grid
(g1 x g2): scales x translations in the wavelet case, translations x
modulations in the Gabor case.  A fiberwise Fourier transform along the
second axis carries analysis fields onto the diagonal plane (z, omega) where
they factor as f(omega) * ell(z, omega); projecting out the unit-norm fiber
profile then lands in L2 of the second coordinate alone.  The composition is
the diagonalizing (Bargmann-type) transform used by the operator builders.

Axis-2 Fourier directions are case-dependent: the wavelet case uses the
forward transform, the Gabor case the inverse.  This sign pairing is what
makes the factorization produce f_hat for wavelets but f itself for windows,
and it is asserted by tests.
"""

from __future__ import annotations

import numpy as np

from .atoms import Atom
from .fourier import _fourier_rows, fourier
from .grids import (LineGrid, SampledFunction, ScaleGrid, induced_grid,
                    subgrid_indices)

__all__ = [
    "PhasePlaneField",
    "analyze",
    "apply_axis2_fourier",
    "embed",
    "project",
    "bargmann",
    "bargmann_adjoint",
    "random_bandlimited",
]


class PhasePlaneField:
    """Complex field on a product grid with the case-dependent plane measure.

    ``g2_kind`` records which side of the axis-2 transform the field lives on:
    "zeta2" for analysis fields (translation/modulation axis), "omega" for
    diagonal-plane fields.
    """

    def __init__(self, case: str, g1, g2: LineGrid, values, g2_kind: str):
        if case not in ("wavelet", "gabor"):
            raise ValueError(f"unknown case {case!r}")
        if case == "wavelet" and not isinstance(g1, ScaleGrid):
            raise ValueError("wavelet fields need a ScaleGrid first axis")
        if case == "gabor" and not isinstance(g1, LineGrid):
            raise ValueError("gabor fields need a LineGrid first axis")
        if g2_kind not in ("zeta2", "omega"):
            raise ValueError(f"unknown g2_kind {g2_kind!r}")
        values = np.asarray(values, dtype=complex)
        if values.shape != (g1.count, g2.count):
            raise ValueError(
                f"field shape {values.shape} does not match grids "
                f"({g1.count}, {g2.count})")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.case = case
        self.g1 = g1
        self.g2 = g2
        self.values = values
        self.g2_kind = g2_kind

    def weighted_norm(self) -> float:
        """L2 norm under the product measure (first-axis measure x Riemann)."""
        row_energy = np.sum(np.abs(self.values) ** 2, axis=1) * self.g2.step
        return float(np.sqrt(np.sum(self.g1.measure_weights * row_energy)))

    def copy_with(self, values, g2=None, g2_kind=None) -> "PhasePlaneField":
        return PhasePlaneField(self.case, self.g1,
                               self.g2 if g2 is None else g2, values,
                               self.g2_kind if g2_kind is None else g2_kind)

    def __repr__(self):
        return (f"PhasePlaneField({self.case}, {self.g1!r} x {self.g2!r}, "
                f"kind={self.g2_kind})")


def analyze(atom: Atom, f: SampledFunction, g1=None,
            g2: LineGrid | None = None) -> PhasePlaneField:
    """Analysis transform: inner products of f with the transported atoms.

    Wavelet case: correlation with scaled copies, evaluated per scale by FFT
    along the translation axis.  Gabor case: windowed Fourier transform,
    evaluated per translation by FFT along the modulation axis.

    ``g2`` may be any aligned subgrid of the natural full axis (the signal
    grid for wavelets, its induced grid for windows); values are computed on
    the full axis and restricted.
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("signal contains non-finite values")
    g1 = atom.g1 if g1 is None else g1
    if atom.case == "wavelet":
        full_axis = f.grid
    else:
        full_axis = induced_grid(f.grid)
    if g2 is None:
        g2 = full_axis
        offset, stride = 0, 1
    else:
        offset, stride = subgrid_indices(g2, full_axis)

    if atom.case == "wavelet":
        fhat = fourier(f, "forward")
        L = atom.ell_matrix(fhat.grid.samples, g1)
        rows = _fourier_rows(fhat.values[None, :] * L, fhat.grid, "inverse",
                             f.grid)
    else:
        windows = np.conj(atom.eval_time(
            f.grid.samples[None, :] - g1.samples[:, None]))
        rows = _fourier_rows(f.values[None, :] * windows, f.grid, "forward",
                             full_axis)
    sel = rows[:, offset::stride][:, :g2.count]
    return PhasePlaneField(atom.case, g1, g2, sel, "zeta2")


def apply_axis2_fourier(field: PhasePlaneField, direction: str,
                        out_grid: LineGrid | None = None) -> PhasePlaneField:
    """Unitary Fourier transform along the second axis.

    direction "forward" carries analysis fields to the diagonal plane and
    uses the forward transform for wavelet fields, the inverse transform for
    Gabor fields; "backward" inverts it.  ``out_grid`` defaults to the
    centered induced grid of the current second axis.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward/backward, got {direction!r}")
    out = induced_grid(field.g2) if out_grid is None else out_grid
    wavelet = field.case == "wavelet"
    if direction == "forward":
        sign = "forward" if wavelet else "inverse"
        kind = "omega"
    else:
        sign = "inverse" if wavelet else "forward"
        kind = "zeta2"
    vals = _fourier_rows(field.values, field.g2, sign, out)
    return field.copy_with(vals, g2=out, g2_kind=kind)


def embed(atom: Atom, f: SampledFunction, g1=None) -> PhasePlaneField:
    """Isometric embedding f(omega) -> f(omega) * ell(z, omega)."""
    g1 = atom.g1 if g1 is None else g1
    L = atom.ell_matrix(f.grid.samples, g1)
    return PhasePlaneField(atom.case, g1, f.grid, L * f.values[None, :],
                           "omega")


def project(atom: Atom, field: PhasePlaneField) -> SampledFunction:
    """Adjoint of ``embed``: fiberwise quadrature against conj(ell)."""
    if field.g2_kind != "omega":
        raise ValueError("project expects a diagonal-plane field; apply the "
                         "axis-2 transform first")
    L = atom.ell_matrix(field.g2.samples, field.g1)
    vals = np.einsum("k,ki,ki->i", field.g1.measure_weights, np.conj(L),
                     field.values)
    return SampledFunction(field.g2, vals)


def bargmann(atom: Atom, field: PhasePlaneField,
             out_grid: LineGrid | None = None) -> SampledFunction:
    """Diagonalizing transform: axis-2 Fourier then fiber projection.

    On analysis fields this is an isometry onto L2 of the second coordinate;
    composed with ``analyze`` it returns the signal's Fourier transform in
    the wavelet case and the signal itself in the Gabor case.
    """
    return project(atom, apply_axis2_fourier(field, "forward", out_grid))


def bargmann_adjoint(atom: Atom, f: SampledFunction,
                     out_grid: LineGrid | None = None,
                     g1=None) -> PhasePlaneField:
    """Adjoint of ``bargmann``: embed then inverse axis-2 transform."""
    return apply_axis2_fourier(embed(atom, f, g1), "backward", out_grid)


def random_bandlimited(grid: LineGrid, seed: int,
                       band: tuple[float, float] = (0.25, 4.0),
                       rng: np.random.Generator | None = None) -> SampledFunction:
    """Unit-norm random signal whose spectrum sits in +/- [band].

    The band default matches the documented healthy range of the catalog
    atoms, where fiber norms are within tolerance of 1; transform isometry
    statements are quoted for this class.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    fgrid = induced_grid(grid)
    xs = np.abs(fgrid.samples)
    mask = (xs >= band[0]) & (xs <= band[1])
    spec = np.zeros(grid.count, dtype=complex)
    k = int(mask.sum())
    spec[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    f = fourier(SampledFunction(fgrid, spec), "inverse", out_grid=grid)
    n = f.norm()
    return SampledFunction(grid, f.values / n)
