"""Phase-plane fields and the transform chain.

The analysis transform maps a signal to a field over the product grid
(g1 x g2): scales x translations in the wavelet case, translations x
modulations in the Gabor case.  A fiberwise Fourier transform along the
second axis carries analysis fields onto the diagonal plane (z, omega) where
they factor as h(omega) * ell(z, omega); projecting out the unit-norm fiber
profile then lands in L2 of the second coordinate alone.  The composition is
the diagonalizing (Bargmann-type) transform used by the operator builders.

By the Calderon and Gabor reproducing formulas, analysis is the adjoint of
the diagonalizing transform applied to the signal's omega side h (f_hat for
wavelets, f for windows): ``analyze`` is ``bargmann_adjoint`` of h.  The
axis-2 sign pairing that makes this hold (``axis2_sign``: forward transform
for wavelets, inverse for windows) is asserted by tests.

Both directions meet in the fiber matrix ell(z, omega) of the atom on an
omega grid.  ``embed`` and ``project``, and so every transform built on
them, read it as the atom's ``atoms.Fibers`` record on that grid,
``Atom.fibers``: calls on one grid share one fiber matrix.
"""

from __future__ import annotations

import numpy as np

from .atoms import Atom
from .fourier import _fourier_rows, fourier
from .grids import LineGrid, SampledFunction, ScaleGrid, induced_grid

__all__ = [
    "PhasePlaneField",
    "analyze",
    "apply_axis2_fourier",
    "axis2_sign",
    "embed",
    "project",
    "bargmann",
    "bargmann_adjoint",
    "omega_side",
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


def omega_side(case: str, f: SampledFunction,
               back_to: LineGrid | None = None) -> SampledFunction:
    """The signal's omega side: f_hat for wavelets, f itself for windows.

    With ``back_to`` an omega-side function is carried back to the signal
    on ``back_to``; for windows both directions are the identity.
    """
    if case == "gabor":
        return f
    if back_to is None:
        return fourier(f, "forward")
    return fourier(f, "inverse", out_grid=back_to)


def axis2_sign(case: str, direction: str) -> str:
    """Fourier sign of the axis-2 transform: "forward" (analysis fields to
    the diagonal plane) is the forward transform for wavelet fields and the
    inverse for Gabor fields; "backward" takes the opposite sign."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward/backward, got {direction!r}")
    return ("forward" if (case == "wavelet") == (direction == "forward")
            else "inverse")


def analyze(atom: Atom, f: SampledFunction) -> PhasePlaneField:
    """Analysis transform: inner products of f with the transported atoms.

    By the reproducing formula it is the adjoint of the diagonalizing
    transform applied to the omega side of f.  The second axis is f's own
    grid for wavelets (translations) and its induced grid for windows
    (modulations).
    """
    g2 = f.grid if atom.case == "wavelet" else induced_grid(f.grid)
    return bargmann_adjoint(atom, omega_side(atom.case, f), out_grid=g2)


def apply_axis2_fourier(field: PhasePlaneField, direction: str,
                        out_grid: LineGrid | None = None) -> PhasePlaneField:
    """Unitary Fourier transform along the second axis.

    direction "forward" carries analysis fields to the diagonal plane,
    "backward" inverts it; ``axis2_sign`` picks the sign.  ``out_grid``
    defaults to the centered induced grid of the current second axis.
    ``field`` is left unchanged.
    """
    return _axis2_fourier(field, direction, out_grid, in_place=False)


def _axis2_fourier(field: PhasePlaneField, direction: str,
                   out_grid: LineGrid | None, in_place: bool
                   ) -> PhasePlaneField:
    """``apply_axis2_fourier``; with ``in_place`` the transform overwrites
    ``field.values``, which the caller owns and no longer reads."""
    sign = axis2_sign(field.case, direction)
    out = induced_grid(field.g2) if out_grid is None else out_grid
    kind = "omega" if direction == "forward" else "zeta2"
    vals = _fourier_rows(field.values, field.g2, sign, out,
                         out=field.values if in_place else None)
    return field.copy_with(vals, g2=out, g2_kind=kind)


def embed(atom: Atom, f: SampledFunction) -> PhasePlaneField:
    """Isometric embedding f(omega) -> f(omega) * ell(z, omega)."""
    C = atom.fibers(f.grid.samples).conj_ell
    vals = np.conj(C, out=np.empty(C.shape, dtype=complex))
    vals *= f.values
    return PhasePlaneField(atom.case, atom.g1, f.grid, vals, "omega")


def project(atom: Atom, field: PhasePlaneField) -> SampledFunction:
    """Adjoint of ``embed``: fiberwise quadrature against conj(ell).

    The quadrature runs on the atom's first-coordinate grid; a field whose
    first axis differs from it (kind, count or nodes) is rejected.
    """
    if field.g2_kind != "omega":
        raise ValueError("project expects a diagonal-plane field; apply the "
                         "axis-2 transform first")
    g1 = atom.g1
    # array_equal is False on a count mismatch too
    if type(field.g1) is not type(g1) or not np.array_equal(field.g1.nodes,
                                                            g1.nodes):
        raise ValueError(f"field first axis {field.g1!r} is not the atom's "
                         f"grid {g1!r}")
    C = atom.fibers(field.g2.samples).conj_ell
    vals = np.einsum("k,ki,ki->i", g1.measure_weights, C, field.values)
    return SampledFunction(field.g2, vals)


def bargmann(atom: Atom, field: PhasePlaneField,
             out_grid: LineGrid | None = None) -> SampledFunction:
    """Diagonalizing transform: axis-2 Fourier then fiber projection.

    On analysis fields this is an isometry onto L2 of the second coordinate;
    composed with ``analyze`` it returns the signal's omega side, f_hat in
    the wavelet case and f itself in the Gabor case.  ``field`` is left
    unchanged.
    """
    return project(atom, apply_axis2_fourier(field, "forward", out_grid))


def bargmann_adjoint(atom: Atom, f: SampledFunction,
                     out_grid: LineGrid | None = None) -> PhasePlaneField:
    """Adjoint of ``bargmann``: embed then inverse axis-2 transform.

    The transform runs in place on ``embed``'s new array, so the field is
    the one array of its size the call allocates.
    """
    return _axis2_fourier(embed(atom, f), "backward", out_grid, in_place=True)


def random_bandlimited(grid: LineGrid, seed: int) -> SampledFunction:
    """Unit-norm random signal whose spectrum sits in +/- [0.25, 4].

    The band matches the documented healthy range of the catalog atoms,
    where fiber norms are within tolerance of 1; transform isometry
    statements are quoted for this class.
    """
    rng = np.random.default_rng(seed)
    fgrid = induced_grid(grid)
    xs = np.abs(fgrid.samples)
    mask = (xs >= 0.25) & (xs <= 4.0)
    spec = np.zeros(grid.count, dtype=complex)
    k = int(mask.sum())
    spec[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    f = fourier(SampledFunction(fgrid, spec), "inverse", out_grid=grid)
    n = f.norm()
    return SampledFunction(grid, f.values / n)
