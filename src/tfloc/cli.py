"""Command-line interface.

Subcommands: gamma, spectrum, kernel, verify, filter, algebra.  Each writes
through one ``io`` writer, atomically: a CSV file with a JSON sidecar, or
verify's JSON report.  Identical configurations produce byte-identical files.
The BLAS thread count is part of the configuration: on two OpenBLAS threads
the dense eigensolves of some ``verify`` suites write other bits than on
one (``OPENBLAS_NUM_THREADS=1``).
Exit codes: 0 success (and, for verify, all checks passed), 1 verification
failure, 2 usage or runtime error, running out of memory included (an
unexpected exception is reported as an internal error, with its traceback,
and also exits 2).
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

import numpy as np

from . import io as tio
from .algebra import (Partition, commutator_diagnostics, evaluate_on_cloud,
                      partition_gammas)
from .atoms import make_atom
from .fields import (_analysis_axis, omega_side, random_bandlimited,
                     round_trips)
from .grids import LineGrid, SampledFunction
from .kernels import (GAMMA_RULES, boundedness_verdict, gamma,
                      overlap_kernel, spectrum_from_gamma,
                      weighted_overlap_kernel)
from .operators import (build_direct, default_operator_grid, filter_signal,
                        hausdorff_distance, operator_norm, spectrum,
                        verify_equivalence)
from .symbols import Symbol1D, SymbolParseError, SymbolSpec, parse_symbol

DEFAULT_ATOM = {"gabor": "gaussian", "wavelet": "shannon"}
# largest --n the dense commands accept without --allow-large; the library
# builders and solvers take any size
MAX_DENSE_N = 512
# largest --n of ``verify transforms`` without --allow-large: it holds no
# analysis field, but a wavelet's fiber record on the signals' grid is
# 512 x n, 128 MiB (real) or 256 MiB (haar's complex one) at the cap, and
# each CPU holds a 64 x n complex block
MAX_FIELD_N = 32768
# cuts of ``algebra`` without --cuts and of ``verify algebra``: the wavelet
# first coordinate is a scale range, which excludes 0
DEFAULT_CUTS = {"gabor": [0.0], "wavelet": [1.0]}
# the symbol of each dual-route suite; its kind picks the specialized route
EQUIVALENCE_SYMBOLS = {
    ("cto1", "gabor"): SymbolSpec.first_variable(Symbol1D.indicator(-1.0, 1.0)),
    ("cto1", "wavelet"): SymbolSpec.first_variable(Symbol1D.indicator(1.0, 2.0)),
    ("cto2", "gabor"): SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0)),
    ("cto2", "wavelet"): SymbolSpec.second_variable(Symbol1D.gaussian_bump(1.0)),
    ("cto3", "gabor"): SymbolSpec.separable(
        Symbol1D.indicator(0.0, float("inf")), Symbol1D.cosine_window(2.0)),
    ("cto3", "wavelet"): SymbolSpec.separable(
        Symbol1D.indicator(0.5, 8.0), Symbol1D.gaussian_bump(1.0)),
}
# every verify suite's tolerances: a suite's pass test and the tolerances
# its report states read the same entry
VERIFY_TOL = {
    "cto1": 1e-3, "cto2": 5e-3, "cto3": 5e-3,
    "transforms": {"isometry": 2e-3, "factorization": 2e-3, "roundtrip": 1e-6},
    "algebra": {"commutator": 5e-3, "simplex": 1e-6, "tau_isometry": 2e-3},
}


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {n}")
    return n


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"need a non-negative integer, got {seed}")
    return seed


def _add_common(p: argparse.ArgumentParser, need_symbol: bool = False,
                xi_window: bool = True, dense: bool = False):
    """Options shared by the commands; ``need_symbol=True`` adds --symbol
    and the gamma rule --rule (gamma, spectrum); ``xi_window=False`` leaves
    out --xi-min and --xi-max (verify uses the default window);
    ``dense=True`` adds --allow-large to the commands that can build n x n
    matrices."""
    p.add_argument("--case", choices=("wavelet", "gabor"), default="gabor")
    p.add_argument("--atom", default=None,
                   help="catalog atom name (default per case)")
    if need_symbol:
        p.add_argument("--symbol", required=True,
                       help="const:c | indicator:a,b | power:p | sampled:file")
        p.add_argument("--rule", choices=GAMMA_RULES, default="adaptive",
                       help="gamma quadrature: grid or adaptive; fft is a "
                            "second name for grid, kept for the benchmark")
    p.add_argument("--n", type=_grid_size, default=256)
    if xi_window:
        p.add_argument("--xi-min", type=float, default=None)
        p.add_argument("--xi-max", type=float, default=None)
    p.add_argument("--out", required=True, help="output path")
    if dense:
        p.add_argument("--allow-large", action="store_true",
                       help=f"lift the size caps: N<={MAX_DENSE_N} for dense "
                            f"solves, N<={MAX_FIELD_N} for verify transforms")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tfloc",
        description="Localization-operator computations: scalar symbols, "
                    "kernels, spectra, dual-route verification, filtering")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="scalar diagonal symbol of a "
                                     "first-variable operator")
    _add_common(p, need_symbol=True)

    p = sub.add_parser("spectrum", help="sampled spectrum, norm and "
                                        "boundedness readout")
    _add_common(p, need_symbol=True, dense=True)
    p.add_argument("--with-eigs", action="store_true",
                   help="overlay eigenvalues of the direct operator and "
                        "report the Hausdorff distance")

    p = sub.add_parser("kernel", help="two-point overlap kernel "
                                      "(symbol-weighted with --symbol)")
    _add_common(p, dense=True)
    p.add_argument("--symbol", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("cto1", "cto2", "cto3", "transforms",
                                     "algebra"))
    _add_common(p, xi_window=False, dense=True)
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed of the suite's random test vectors")

    p = sub.add_parser("filter", help="apply a localization operator to a "
                                      "signal")
    p.add_argument("--case", choices=("wavelet", "gabor"), default="gabor")
    p.add_argument("--atom", default=None)
    p.add_argument("--symbol", required=True)
    p.add_argument("--input", required=True, help="signal CSV (x,re,im)")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("fast", "slow"), default="fast")
    p.add_argument("--compare", action="store_true",
                   help="run both paths, write the slow result alongside and "
                        "record their relative deviation")

    p = sub.add_parser("algebra", help="partition gamma-vector cloud")
    _add_common(p)
    p.add_argument("--cuts", default=None,
                   help="comma-separated interior cut points of the "
                        "first-coordinate domain (default 0 for gabor, "
                        "1 for wavelet)")
    return ap


def _xi_grid(args) -> LineGrid:
    if args.xi_min is None and args.xi_max is None:
        return default_operator_grid(args.case, args.n)
    default = default_operator_grid(args.case, args.n)
    lo = default.start if args.xi_min is None else args.xi_min
    hi = default.stop if args.xi_max is None else args.xi_max
    if not lo < hi:
        raise ValueError(f"need xi-min < xi-max, got [{lo}, {hi}]")
    return LineGrid(lo, (hi - lo) / args.n, args.n)


def _atom_name(args) -> str:
    return args.atom or DEFAULT_ATOM[args.case]


def _atom(args):
    return make_atom(args.case, _atom_name(args))


def _config_meta(args, **extra) -> dict:
    md = {"case": args.case, "atom": _atom_name(args), "n": args.n}
    md.update(extra)
    return md


def _check_n(args, cap: int = MAX_DENSE_N):
    if args.n > cap and not args.allow_large:
        raise ValueError(f"n={args.n} exceeds the cap {cap}; "
                         "pass --allow-large to override")


def cmd_gamma(args) -> int:
    symbol = parse_symbol(args.symbol)
    atom = _atom(args)
    gf = gamma(atom, symbol, _xi_grid(args), rule=args.rule)
    meta = _config_meta(args, tolerances={
        "adaptive_quadrature": 1e-10, "grid_rule_indicator_edges": "O(step)"})
    if gf.abserr is not None:
        meta["quadrature_abserr_max"] = gf.abserr
    tio.export_gamma(args.out, gf, metadata=meta)
    return 0


def cmd_spectrum(args) -> int:
    symbol = parse_symbol(args.symbol)
    atom = _atom(args)
    if args.with_eigs:
        _check_n(args)
    grid = _xi_grid(args)
    gf = gamma(atom, symbol, grid, rule=args.rule)
    rep = spectrum_from_gamma(gf)
    if args.with_eigs:
        # built before the wide-grid gamma: under the grid rule it then
        # shares the first gamma's fiber record
        M = build_direct(atom, SymbolSpec.first_variable(symbol), grid)
    wide = gamma(atom, symbol,
                 LineGrid(grid.start, 2 * grid.step, grid.count), rule=args.rule)
    verdict = boundedness_verdict([rep, spectrum_from_gamma(wide)])
    kinds = ["gamma"] * rep.values.size
    values = rep.values
    meta = _config_meta(args, symbol=symbol.descriptor,
                        norm_estimate=rep.norm_estimate,
                        interval=list(rep.interval) if rep.interval else None,
                        verdict=verdict, caveat=rep.caveat)
    if gf.abserr is not None:
        meta["quadrature_abserr_max"] = max(gf.abserr, wide.abserr)
    if args.with_eigs:
        erep = spectrum(M)
        kinds += ["eig"] * erep.values.size
        values = np.concatenate([values, erep.values])
        meta["hausdorff_eigs_vs_gamma"] = hausdorff_distance(erep.values,
                                                             rep.values)
        meta["operator_norm"] = erep.norm_estimate
        meta["lowrank_rank"] = M.lowrank_rank
        meta["lowrank_tail"] = M.lowrank_tail
        meta["gram_rows"] = M.gram_rows
    tio.write_table(args.out, ["kind", "re", "im"],
                    [kinds, values.real, values.imag], meta)
    return 0


def cmd_kernel(args) -> int:
    atom = _atom(args)
    _check_n(args)
    grid = _xi_grid(args)
    if args.symbol:
        symbol = parse_symbol(args.symbol)
        km = weighted_overlap_kernel(atom, symbol, grid)
        # a complex symbol's kernel is not Hermitian
        tolerances = {"hermitian": 1e-10} if symbol.is_real else {}
    else:
        km = overlap_kernel(atom, grid)
        # only the unweighted diagonal, the fiber norm, has a unit target
        tolerances = {"hermitian": 1e-10, "diag_unit_healthy": atom.fiber_tol}
    meta = _config_meta(args, tolerances=tolerances)
    tio.export_kernel(args.out, km, metadata=meta)
    return 0


def _verify_equivalence_suite(args) -> dict:
    return verify_equivalence(
        _atom(args), EQUIVALENCE_SYMBOLS[args.suite, args.case],
        default_operator_grid(args.case, args.n), VERIFY_TOL[args.suite],
        seed=args.seed)


def _verify_transforms_suite(args) -> dict:
    atom = _atom(args)
    n = max(args.n, 64)
    grid = LineGrid.centered(8.0, n)
    opg = default_operator_grid(args.case, min(args.n, 256))
    worst_iso, worst_fact, worst_round = 0.0, 0.0, 0.0
    # each signal's analysis field is formed, measured and carried back a
    # block of rows at a time, and one call takes every signal on a grid
    # (round_trips): no field is held
    signals = [random_bandlimited(grid, seed=args.seed + k) for k in range(20)]
    hs = [omega_side(atom.case, f) for f in signals]
    axis = _analysis_axis(atom.case, grid)
    for f, h, (out, field_norm) in zip(signals, hs,
                                       round_trips(atom, hs, field_grid=axis)):
        worst_iso = max(worst_iso, abs(field_norm - f.norm()))
        worst_fact = max(worst_fact, float(
            np.linalg.norm(out.values - h.values) / np.linalg.norm(h.values)))
    rng = np.random.default_rng(args.seed)
    vs = [rng.standard_normal(opg.count) + 1j * rng.standard_normal(opg.count)
          for _ in range(5)]
    for v, (rr, _) in zip(vs, round_trips(
            atom, [SampledFunction(opg, v) for v in vs])):
        worst_round = max(worst_round, float(np.max(np.abs(rr.values - v))))
    tol = VERIFY_TOL["transforms"]
    passed = (worst_iso <= tol["isometry"] and worst_fact <= tol["factorization"]
              and worst_round <= tol["roundtrip"])
    return {"case": args.case, "atom": atom.name, "N": n,
            "roundtrip_N": opg.count,
            "isometry_error_max": worst_iso,
            "factorization_error_max": worst_fact,
            "roundtrip_error_max": worst_round,
            "tolerances": tol,
            "pass": passed}


def _verify_algebra_suite(args) -> dict:
    atom = _atom(args)
    grid = default_operator_grid(args.case, args.n)
    if args.case == "gabor":
        pool = [Symbol1D.indicator(-1.0, 1.0),
                Symbol1D.indicator(float("-inf"), 0.0),
                Symbol1D.smooth_step(4.0),
                Symbol1D.gaussian_bump(8.0)]
    else:
        pool = [Symbol1D.indicator(1.0, 2.0),
                Symbol1D.indicator(0.5, 8.0),
                Symbol1D.smooth_step(8.0, log2_axis=True),
                Symbol1D.constant(0.5)]
    worst_comm = max(commutator_diagnostics(atom, pool, grid).values())
    part = Partition(atom, DEFAULT_CUTS[args.case])
    cloud = partition_gammas(atom, part, grid)
    # the direct route is linear in the symbol: one build per piece
    mats = [build_direct(atom, SymbolSpec.first_variable(ind), grid)
            for ind in part.indicator_symbols()]
    # diagonal pieces combine on their diagonals: the norm is read off
    diagonal = all(M.is_diagonal for M in mats)
    basis = [M.diagonal if diagonal else M.values for M in mats]
    rng = np.random.default_rng(args.seed)
    worst_iso = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(part.m) + 1j * rng.standard_normal(part.m)
        _, sup = evaluate_on_cloud(coeffs, cloud)
        combo = sum(c * M for c, M in zip(coeffs, basis))
        nm = operator_norm(combo)
        worst_iso = max(worst_iso, abs(sup - nm) / nm)
    tol = VERIFY_TOL["algebra"]
    passed = (worst_comm <= tol["commutator"]
              and cloud.simplex_sum_deviation <= tol["simplex"]
              and worst_iso <= tol["tau_isometry"])
    return {"case": args.case, "atom": atom.name, "N": grid.count,
            "commutator_rel_max": worst_comm,
            "simplex_sum_deviation": cloud.simplex_sum_deviation,
            "tau_isometry_rel_max": worst_iso,
            "tolerances": tol,
            "pass": passed}


def cmd_verify(args) -> int:
    if args.suite == "transforms":
        _check_n(args, MAX_FIELD_N)  # checked before any record is built
        report = _verify_transforms_suite(args)
    else:
        _check_n(args)  # every other suite builds n x n matrices
        report = (_verify_algebra_suite(args) if args.suite == "algebra"
                  else _verify_equivalence_suite(args))
    report["suite"] = args.suite
    report["seed"] = args.seed
    tio.write_json(args.out, report)
    return 0 if report["pass"] else 1


def cmd_filter(args) -> int:
    symbol = parse_symbol(args.symbol)
    atom = _atom(args)
    f = tio.read_signal_csv(args.input)
    spec = SymbolSpec.first_variable(symbol)
    meta = {"case": args.case, "atom": atom.name,
            "symbol": symbol.descriptor, "input": args.input,
            "method": args.method, "compared": args.compare}
    if args.compare:
        fast, slow, dev, coverage = filter_signal(atom, spec, f,
                                                  method="compare")
        out = fast if args.method == "fast" else slow
        tio.write_signal_csv(args.out, out, metadata={
            **meta, "fiber_coverage": coverage, "relative_deviation": dev})
        tio.write_signal_csv(f"{args.out}.slow.csv", slow)
    else:
        out, coverage = filter_signal(atom, spec, f, method=args.method)
        tio.write_signal_csv(args.out, out, metadata={
            **meta, "fiber_coverage": coverage})
    return 0


def cmd_algebra(args) -> int:
    atom = _atom(args)
    try:
        cuts = (DEFAULT_CUTS[args.case] if args.cuts is None else
                [float(c) for c in args.cuts.split(",") if c.strip()])
    except ValueError:
        raise ValueError(f"malformed --cuts {args.cuts!r}") from None
    part = Partition(atom, cuts)
    cloud = partition_gammas(atom, part, _xi_grid(args))
    dev = cloud.simplex_sum_deviation
    if dev > VERIFY_TOL["algebra"]["simplex"]:
        raise ValueError(f"simplex sums deviate from 1 by {dev:.2e}; "
                         "sample inside the healthy range")
    meta = _config_meta(args, simplex_sum_deviation=dev)
    tio.export_cloud(args.out, cloud, metadata=meta)
    return 0


_COMMANDS = {
    "gamma": cmd_gamma,
    "spectrum": cmd_spectrum,
    "kernel": cmd_kernel,
    "verify": cmd_verify,
    "filter": cmd_filter,
    "algebra": cmd_algebra,
}


# parsing leaves the parser as it was, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SymbolParseError, ValueError, OSError, ArithmeticError,
            MemoryError) as exc:
        print(f"tfloc {args.command}: error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not bad input; exit 1 is reserved for "verification failed"
        traceback.print_exc(file=sys.stderr)
        print(f"tfloc {args.command}: internal error: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
