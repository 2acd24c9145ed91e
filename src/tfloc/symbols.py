"""Operator symbols on the phase plane.

A full symbol is a function a(r, s) of the two phase-plane coordinates.  The
library distinguishes the structured classes that admit specialized operator
forms: symbols of the first variable only, of the second variable only,
separable products, piecewise-constant first-variable symbols over a
partition (``SymbolSpec.first_variable(Symbol1D.piecewise(pieces,
coefficients))``), and a generic sampled escape hatch.

One-variable factors are ``Symbol1D`` objects: a vectorized callable plus
the metadata the quadrature rules need (breakpoints, support, realness, a
sup bound when known).  The CLI's tiny symbol DSL (const:c, indicator:a,b,
power:p, sampled:file) parses into Symbol1D.  Every route reads a symbol on the
grid through one seam, ``SymbolSpec.cell_field`` and ``Symbol1D.cell_values``.

Supported range.  A symbol's ``sup_bound`` (a bound on its modulus), and
the real and imaginary parts of its samples and of a signal's, are at most
2^B, B = ``RANGE_EXPONENT`` = 256 (about 1.16e77).  B comes from the
longest product chain, the slow filter's projection: fiber record x symbol
x signal x N x Riemann weights.  Its two inputs stay below 2^(2B + 1),
which leaves 2^511 below the largest float for the rest, FFT sums
included, so no route overflows and none rescales.  Arrays made from
values in range (an omega side, a field, an operator's matrix) stay below
2^(2B), which ``bargmann_adjoint``, ``bargmann`` and ``operator_norm``
check on an array passed to them.  ``_in_range`` is the one check, where
values come in (``Symbol1D`` construction and ``sample``, ``SymbolSpec``
sampling, a signal entering ``filter_signal`` or ``analyze``, the product
of a separable spec's factor bounds as it is built, so its routes agree):
a value out of range or not finite raises ``ValueError`` naming the bound,
and the CLI exits 2.  A norm squares its data, which underflows when small
and overflows for a filtered signal, so the norms (low-rank factors,
Lanczos, action check, ``--compare`` deviation, fiber coverage) scale it
first by 2^-e, e the ``frexp`` exponent of its largest part (``_exponent``,
``_ldexp``): exact, subnormal data included.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import LineGrid, SampledFunction

__all__ = ["Symbol1D", "SymbolSpec", "SymbolParseError", "parse_symbol"]

_INF = float("inf")

# B of the supported range: symbol and signal values are at most 2^B
RANGE_EXPONENT = 256


def _largest_part(a) -> float:
    """The largest modulus of a real or imaginary part in ``a`` (an array or
    a scalar): 0 when all are 0, NaN or inf when one is not finite."""
    v = np.ascontiguousarray(a)
    v = v.view(v.real.dtype)
    return max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))


def _in_range(a, subject: str, where: str = "",
              exponent: int = RANGE_EXPONENT):
    """``a``, or the ``ValueError`` of ``subject`` (``where`` appended) when
    a real or imaginary part of ``a`` is not finite or is above
    2^``exponent``."""
    m = _largest_part(a)
    if m <= 2.0 ** exponent:
        return a
    if not math.isfinite(m):
        raise ValueError(f"{subject} is not finite{where}")
    raise ValueError(f"{subject} exceeds the supported range{where}: a value "
                     f"above 2^{exponent} ({2.0 ** exponent:.6g})")


def _exponent(a) -> float:
    """The ``frexp`` exponent e of the largest real or imaginary part in
    ``a`` (an array or a scalar), so every part is below 2^e: 0 when all
    are 0, inf when one is not finite."""
    m = _largest_part(a)
    return math.frexp(m)[1] if math.isfinite(m) else _INF


def _ldexp(A: np.ndarray, e) -> None:
    """A *= 2^e in place, real and imaginary parts alike; A is left as it
    is for e = 0 and for a non-finite e."""
    if e and math.isfinite(e):
        parts = A.view(A.real.dtype)
        np.ldexp(parts, e, out=parts)


def format_number(x) -> str:
    """A descriptor's number: ``:g`` when it reads back as the same float, else
    ``repr``, so the descriptor names the symbol computed; ``re+imj`` if complex."""
    x = complex(x)
    if x.imag != 0.0:
        im = format_number(x.imag)
        return f"{format_number(x.real)}{'' if im[0] == '-' else '+'}{im}j"
    s = f"{x.real:g}"
    return s if float(s) == x.real else repr(x.real)


class SymbolParseError(ValueError):
    """Malformed symbol descriptor; carries the offending position."""

    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"symbol {text!r}: {message} (at position {position})")
        self.position = position


class Symbol1D:
    """Scalar function of one real variable with quadrature metadata."""

    # (a, b, c) per piece, c on [a, b], of constant, indicator and piecewise
    _pieces = None

    def __init__(self, fn, descriptor: str, breakpoints=(), support=(-_INF, _INF),
                 is_real: bool = True, sup_bound: float | None = None):
        self.fn = fn
        self.descriptor = descriptor
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.support = (float(support[0]), float(support[1]))
        self.is_real = bool(is_real)
        if sup_bound is not None:
            _in_range(sup_bound, f"symbol {descriptor}")
        self.sup_bound = sup_bound

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def sample(self, x) -> np.ndarray:
        """The symbol's values at ``x``, or the ``ValueError`` of a symbol
        that is not finite or out of range there."""
        return _in_range(np.asarray(self(x)), f"symbol {self.descriptor}",
                         " on the grid")

    def cell_values(self, grid) -> np.ndarray:
        """The seam: the symbol on ``grid``'s cells, its nodes' ``sample``."""
        return self.sample(grid.nodes)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Symbol1D":
        c = complex(c)
        real = abs(c.imag) == 0.0
        val = c.real if real else c

        def fn(x):
            return np.full_like(x, val, dtype=float if real else complex)

        sym = cls(fn, f"const:{format_number(val)}", is_real=real,
                  sup_bound=abs(c))
        sym._pieces = ((-_INF, _INF, val),)
        return sym

    @classmethod
    def indicator(cls, a: float, b: float) -> "Symbol1D":
        """Indicator of the closed interval [a, b]; endpoints may be +/-inf."""
        if not a < b:
            raise ValueError(f"indicator needs a < b, got [{a}, {b}]")

        def fn(x):
            return ((x >= a) & (x <= b)).astype(float)

        breaks = [v for v in (a, b) if math.isfinite(v)]
        sym = cls(fn, f"indicator:{format_number(a)},{format_number(b)}",
                  breakpoints=breaks, support=(a, b), sup_bound=1.0)
        sym._pieces = ((a, b, 1.0),)
        return sym

    @classmethod
    def power(cls, p: float) -> "Symbol1D":
        """x^p symbol for the positive scale axis; unbounded unless p == 0.
        Off that axis it may be nan or inf, silently: ``sample`` names the
        symbol that is not finite."""

        def fn(x):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return np.power(x, p)

        return cls(fn, f"power:{format_number(p)}",
                   sup_bound=1.0 if p == 0 else None)

    @classmethod
    def smooth_step(cls, scale: float = 4.0, log2_axis: bool = False) -> "Symbol1D":
        """Bounded smooth 0->1 ramp; in log2(x) when the axis is a scale axis."""

        if log2_axis:
            def fn(x):
                return 0.5 * (1.0 + np.tanh(np.log2(x) / scale))
            desc = f"logstep:{format_number(scale)}"
        else:
            def fn(x):
                return 0.5 * (1.0 + np.tanh(x / scale))
            desc = f"step:{format_number(scale)}"
        return cls(fn, desc, sup_bound=1.0)

    @classmethod
    def gaussian_bump(cls, width: float = 1.0, center: float = 0.0) -> "Symbol1D":
        def fn(x):
            return np.exp(-np.pi * ((x - center) / width) ** 2)

        return cls(fn, f"bump:{format_number(width)}@{format_number(center)}",
                   sup_bound=1.0)

    @classmethod
    def cosine_window(cls, half_width: float = 2.0) -> "Symbol1D":
        """cos^2 taper supported on [-half_width, half_width] (C^1 cutoff)."""

        def fn(x):
            inside = np.abs(x) <= half_width
            return np.where(inside, np.cos(np.pi * x / (2 * half_width)) ** 2, 0.0)

        return cls(fn, f"coswin:{format_number(half_width)}",
                    breakpoints=(-half_width, half_width),
                    support=(-half_width, half_width), sup_bound=1.0)

    @classmethod
    def sampled(cls, grid: LineGrid, values, descriptor: str = "sampled") -> "Symbol1D":
        """Linear interpolation of samples on ``grid``, zero outside it."""
        f = SampledFunction(grid, values)
        return cls(f.interp, descriptor, support=(grid.samples[0], grid.samples[-1]),
                   is_real=not f.values.imag.any(),
                   sup_bound=float(np.max(np.abs(f.values))))

    @classmethod
    def piecewise(cls, pieces, coefficients) -> "Symbol1D":
        """Sum of coefficients times indicators of finite interval unions.

        ``pieces`` is a list of interval lists [(a, b), ...]; intervals are
        right-open so that adjacent pieces never double-count an edge.
        """
        coefficients = [complex(c) for c in coefficients]
        if len(pieces) != len(coefficients):
            raise ValueError("one coefficient per piece required")
        real = all(abs(c.imag) == 0.0 for c in coefficients)

        def fn(x):
            out = np.zeros_like(x, dtype=float if real else complex)
            for ivs, c in zip(pieces, coefficients):
                for a, b in ivs:
                    out = out + (c.real if real else c) * ((x >= a) & (x < b))
            return out

        breaks = sorted({v for ivs in pieces for ab in ivs for v in ab
                         if math.isfinite(v)})
        desc = "piecewise:" + ",".join(map(format_number, coefficients))
        sym = cls(fn, desc, breakpoints=breaks, is_real=real,
                  sup_bound=max(abs(c) for c in coefficients) if coefficients else 0.0)
        sym._pieces = tuple((a, b, c.real if real else c)
                            for ivs, c in zip(pieces, coefficients)
                            for a, b in ivs if a < b)
        return sym

    @classmethod
    def product(cls, a: "Symbol1D", b: "Symbol1D") -> "Symbol1D":
        """The pointwise product a * b, with both factors' breakpoints and
        the intersection of their supports.  When both record their pieces
        (``constant``, ``indicator``, ``piecewise``, or such a product), so
        does the product: the nonempty pairwise intersections of the
        pieces, each with the product of their values, so the adaptive
        gamma reads it from the atom's table."""
        sym = cls(lambda x: a(x) * b(x), f"({a.descriptor})*({b.descriptor})",
                  breakpoints=sorted(set(a.breakpoints) | set(b.breakpoints)),
                  support=(max(a.support[0], b.support[0]),
                           min(a.support[1], b.support[1])),
                  is_real=a.is_real and b.is_real)
        if a._pieces is not None and b._pieces is not None:
            sym._pieces = tuple((max(lo, lo2), min(hi, hi2), c * c2)
                                for lo, hi, c in a._pieces
                                for lo2, hi2, c2 in b._pieces
                                if max(lo, lo2) < min(hi, hi2))
        return sym


def parse_symbol(text: str) -> Symbol1D:
    """Parse the CLI symbol DSL: const:c | indicator:a,b | power:p | sampled:file."""
    if ":" not in text:
        raise SymbolParseError(text, 0, "expected '<kind>:<args>'")
    kind, _, args = text.partition(":")
    pos = len(kind) + 1
    if kind == "const":
        try:
            c = complex(args)
        except ValueError:
            raise SymbolParseError(text, pos, f"bad constant {args!r}") from None
        return Symbol1D.constant(c)
    if kind == "indicator":
        parts = args.split(",")
        if len(parts) != 2:
            raise SymbolParseError(text, pos, "indicator needs two endpoints a,b")
        try:
            a, b = (float(p) for p in parts)
        except ValueError:
            raise SymbolParseError(text, pos, f"bad endpoint in {args!r}") from None
        if not a < b:
            raise SymbolParseError(text, pos, f"need a < b, got {a}, {b}")
        return Symbol1D.indicator(a, b)
    if kind == "power":
        try:
            return Symbol1D.power(float(args))
        except ValueError:
            raise SymbolParseError(text, pos, f"bad exponent {args!r}") from None
    if kind == "sampled":
        from .io import read_signal_csv  # cycle-free: io imports only grids
        try:
            f = read_signal_csv(args)
        except OSError as exc:
            raise SymbolParseError(text, pos, f"cannot read {args!r}: {exc}") from None
        return Symbol1D.sampled(f.grid, f.values, descriptor=f"sampled:{args}")
    raise SymbolParseError(text, 0, f"unknown kind {kind!r}")


class SymbolSpec:
    """Structured phase-plane symbol a(r, s)."""

    def __init__(self, kind: str, alpha: Symbol1D | None = None,
                 beta: Symbol1D | None = None, general_fn=None,
                 descriptor: str | None = None):
        if kind not in ("first", "second", "separable", "general"):
            raise ValueError(f"unknown symbol kind {kind!r}")
        self.kind = kind
        self.alpha = alpha
        self.beta = beta
        self.general_fn = general_fn
        self._descriptor = descriptor
        if kind == "separable" and None not in (alpha.sup_bound, beta.sup_bound):
            _in_range(alpha.sup_bound * beta.sup_bound, f"symbol {self.descriptor}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def first_variable(cls, alpha: Symbol1D) -> "SymbolSpec":
        return cls("first", alpha=alpha)

    @classmethod
    def second_variable(cls, beta: Symbol1D) -> "SymbolSpec":
        return cls("second", beta=beta)

    @classmethod
    def separable(cls, alpha: Symbol1D, beta: Symbol1D) -> "SymbolSpec":
        return cls("separable", alpha=alpha, beta=beta)

    @classmethod
    def general(cls, fn, descriptor: str = "general") -> "SymbolSpec":
        return cls("general", general_fn=fn, descriptor=descriptor)

    # -- queries ----------------------------------------------------------------

    @property
    def descriptor(self) -> str:
        if self._descriptor is not None:
            return self._descriptor
        if self.kind == "first":
            return f"a(r)={self.alpha.descriptor}"
        if self.kind == "second":
            return f"a(s)={self.beta.descriptor}"
        return f"a(r,s)=[{self.alpha.descriptor}]x[{self.beta.descriptor}]"

    @property
    def is_real(self) -> bool:
        parts = [p for p in (self.alpha, self.beta) if p is not None]
        if self.kind == "general":
            return False  # unknown; callers must not assume
        return all(p.is_real for p in parts)

    def evaluate_field(self, r_nodes, s_nodes) -> np.ndarray:
        """A writable copy of ``_compact_field`` broadcast to the product
        grid, shape (len(r), len(s)); the routes read ``cell_field``."""
        shape = (np.size(r_nodes), np.size(s_nodes))
        vals = self._compact_field(r_nodes, s_nodes)
        if vals.shape == shape:
            return vals
        return np.broadcast_to(vals, shape).copy()

    def cell_field(self, g1, g2, rows=slice(None)) -> np.ndarray:
        """The seam: ``_compact_field`` on the cells of g1[rows] x g2.

        Every route that reads the grid reads the symbol here or in its
        one-variable counterpart ``Symbol1D.cell_values``: the grid and fft
        gamma rules, ``weighted_overlap_kernel``, ``build_direct``, the
        compound route's beta on its 4x s lattice and the slow filter's
        per-block mask.  Only the adaptive gamma, the continuum reference,
        samples the symbol elsewhere, at its quadrature points.  The cells'
        values are the nodes' today; exact cell quantities (cell fractions
        of a jump, cell means of a plane domain, an exact beta_hat) are to
        replace them here, in one place.
        """
        return self._compact_field(g1.nodes[rows], g2.samples)

    def _compact_field(self, r_nodes, s_nodes) -> np.ndarray:
        """a(r, s) on the product grid in the smallest array that broadcasts
        to it: the column a(r)[:, None] of a first-variable symbol, the row
        a(s)[None, :] of a second-variable one, the full table otherwise,
        checked by ``_in_range``."""
        r = np.asarray(r_nodes, dtype=float)
        s = np.asarray(s_nodes, dtype=float)
        if self.kind == "first":
            vals = np.asarray(self.alpha(r))[:, None]
        elif self.kind == "second":
            vals = np.asarray(self.beta(s))[None, :]
        elif self.kind == "separable":
            vals = np.outer(self.alpha(r), self.beta(s))
        else:
            vals = np.asarray(self.general_fn(r[:, None], s[None, :]))
        return _in_range(vals, f"symbol {self.descriptor}", " on the grid")
