"""Command-line interface.

Subcommands: gamma, spectrum, kernel, verify, filter, algebra.  Outputs are
CSV files with JSON sidecars (or single JSON files with --format json),
written atomically; identical configurations produce byte-identical files.
Exit codes: 0 success (and, for verify, all checks passed), 1 verification
failure, 2 usage or runtime error (an unexpected exception is reported as an
internal error, with its traceback, and also exits 2).
"""

from __future__ import annotations

import argparse
import sys
import traceback

import numpy as np

from . import io as tio
from .algebra import (Partition, default_partition_domain, evaluate_on_cloud,
                      partition_gammas, pool_commutator_diagnostics)
from .atoms import Fibers, make_atom
from .fields import (analyze, bargmann, bargmann_adjoint, omega_grid,
                     omega_side, random_bandlimited)
from .grids import LineGrid, SampledFunction
from .kernels import (boundedness_verdict, gamma, overlap_kernel,
                      spectrum_from_gamma, weighted_overlap_kernel)
from .operators import (EquivalenceSpec, build_direct, default_operator_grid,
                        filter_signal, operator_norm, spectrum,
                        verify_equivalence)
from .symbols import Symbol1D, SymbolParseError, SymbolSpec, parse_symbol

DEFAULT_ATOM = {"gabor": "gaussian", "wavelet": "shannon"}
# largest --n the dense commands accept without --allow-large; the library
# builders and solvers take any size
MAX_DENSE_N = 512


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser, need_symbol: bool = False,
                xi_window: bool = True, dense: bool = False):
    """Options shared by the commands; ``xi_window=False`` leaves out
    --xi-min, --xi-max and --format (verify uses the default window and
    always writes JSON); ``dense=True`` adds --allow-large to the commands
    that can build n x n matrices."""
    p.add_argument("--case", choices=("wavelet", "gabor"), default="gabor")
    p.add_argument("--atom", default=None,
                   help="catalog atom name (default per case)")
    if need_symbol:
        p.add_argument("--symbol", required=True,
                       help="const:c | indicator:a,b | power:p | sampled:file")
    p.add_argument("--n", type=_grid_size, default=256)
    if xi_window:
        p.add_argument("--xi-min", type=float, default=None)
        p.add_argument("--xi-max", type=float, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path")
    if dense:
        p.add_argument("--allow-large", action="store_true",
                       help=f"lift the N<={MAX_DENSE_N} dense-solve cap")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tfloc",
        description="Localization-operator computations: scalar symbols, "
                    "kernels, spectra, dual-route verification, filtering")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="scalar diagonal symbol of a "
                                     "first-variable operator")
    _add_common(p, need_symbol=True)
    p.add_argument("--rule", choices=("grid", "adaptive", "fft"),
                   default="adaptive")

    p = sub.add_parser("spectrum", help="sampled spectrum, norm and "
                                        "boundedness readout")
    _add_common(p, need_symbol=True, dense=True)
    p.add_argument("--rule", choices=("grid", "adaptive", "fft"),
                   default="adaptive")
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
    p.add_argument("--cuts", default="0",
                   help="comma-separated interior cut points of the "
                        "first-coordinate domain")
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
    md = {"case": args.case, "atom": _atom_name(args),
          "n": args.n, "seed": args.seed}
    md.update(extra)
    return md


def _check_n(args):
    if args.n > MAX_DENSE_N and not args.allow_large:
        raise ValueError(f"n={args.n} exceeds the cap {MAX_DENSE_N}; "
                         "pass --allow-large to override")


def cmd_gamma(args) -> int:
    symbol = parse_symbol(args.symbol)
    atom = _atom(args)
    gf = gamma(atom, symbol, _xi_grid(args), rule=args.rule)
    meta = _config_meta(args, symbol=symbol.descriptor, rule=args.rule,
                        unbounded=gf.unbounded, tolerances={
                            "adaptive_quadrature": 1e-10,
                            "grid_rule_indicator_edges": "O(step)"})
    if gf.abserr is not None:
        meta["quadrature_abserr_max"] = gf.abserr
    if args.format == "json":
        tio.write_json(args.out, {
            **meta, "xi": gf.grid.samples.tolist(),
            "re": gf.values.real.tolist(), "im": gf.values.imag.tolist()})
    else:
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
        M = build_direct(atom, SymbolSpec.first_variable(symbol), grid)
        erep = spectrum(M, reference=rep.values)
        kinds += ["eig"] * erep.values.size
        values = np.concatenate([values, erep.values])
        meta["hausdorff_eigs_vs_gamma"] = erep.hausdorff
        meta["operator_norm"] = erep.norm_estimate
        meta["lowrank_rank"] = M.lowrank_rank
        meta["lowrank_tail"] = M.lowrank_tail
    if args.format == "json":
        tio.write_json(args.out, {
            **meta,
            "values": [{"kind": k, "re": re, "im": im} for k, re, im in zip(
                kinds, values.real.tolist(), values.imag.tolist())]})
    else:
        tio.write_table(args.out, ["kind", "re", "im"],
                        [kinds, values.real, values.imag], meta)
    return 0


def cmd_kernel(args) -> int:
    atom = _atom(args)
    _check_n(args)
    grid = _xi_grid(args)
    if args.symbol:
        km = weighted_overlap_kernel(atom, parse_symbol(args.symbol), grid)
    else:
        km = overlap_kernel(atom, grid)
    meta = _config_meta(args, symbol=km.symbol_descriptor, kind=km.builder,
                        tolerances={"diag_unit_healthy": 1e-6,
                                    "hermitian": 1e-10})
    if args.format == "json":
        tio.write_json(args.out, {
            **meta, "xi": grid.samples.tolist(),
            "re": km.values.real.tolist(), "im": km.values.imag.tolist()})
    else:
        tio.export_kernel(args.out, km, metadata=meta)
    return 0


def _verify_equivalence_suite(args) -> dict:
    atom = _atom(args)
    grid = default_operator_grid(args.case, args.n)
    if args.suite == "cto1":
        alpha = (Symbol1D.indicator(-1.0, 1.0) if args.case == "gabor"
                 else Symbol1D.indicator(1.0, 2.0))
        espec = EquivalenceSpec("cto1", atom, alpha=alpha, xi_grid=grid,
                                seed=args.seed)
    elif args.suite == "cto2":
        espec = EquivalenceSpec("cto2", atom, beta=Symbol1D.gaussian_bump(1.0),
                                xi_grid=grid, seed=args.seed)
    else:
        if args.case == "gabor":
            alpha = Symbol1D.indicator(0.0, float("inf"))
            beta = Symbol1D.cosine_window(2.0)
        else:
            alpha = Symbol1D.indicator(0.5, 8.0)
            beta = Symbol1D.gaussian_bump(1.0)
        espec = EquivalenceSpec("cto3", atom, alpha=alpha, beta=beta,
                                xi_grid=grid, seed=args.seed)
    return verify_equivalence(espec).to_dict()


def _verify_transforms_suite(args) -> dict:
    atom = _atom(args)
    n = max(args.n, 64)
    grid = LineGrid.centered(8.0, n)
    opg = default_operator_grid(args.case, min(args.n, 256))
    # one fiber record for the analysis of the signals, whose omega grid is
    # also the grid bargmann projects back onto, and one for the round trip
    omega = omega_grid(atom.case, grid)
    signal_fibers = Fibers.of(atom, omega.samples)
    round_fibers = Fibers.of(atom, opg.samples)
    worst_iso, worst_fact, worst_round = 0.0, 0.0, 0.0
    for k in range(20):
        f = random_bandlimited(grid, seed=args.seed + k)
        W = analyze(atom, f, fibers=signal_fibers)
        worst_iso = max(worst_iso, abs(W.weighted_norm() - f.norm()))
        out = bargmann(atom, W, out_grid=omega, fibers=signal_fibers)
        ref = omega_side(atom.case, f).values
        worst_fact = max(worst_fact, float(
            np.linalg.norm(out.values - ref) / np.linalg.norm(ref)))
    rng = np.random.default_rng(args.seed)
    for _ in range(5):
        v = rng.standard_normal(opg.count) + 1j * rng.standard_normal(opg.count)
        h = SampledFunction(opg, v)
        rr = bargmann(atom, bargmann_adjoint(atom, h, fibers=round_fibers),
                      out_grid=opg, fibers=round_fibers)
        worst_round = max(worst_round, float(np.max(np.abs(rr.values - v))))
    passed = worst_iso <= 2e-3 and worst_fact <= 2e-3 and worst_round <= 1e-6
    return {"case": args.case, "atom": atom.name, "N": n,
            "roundtrip_N": opg.count,
            "isometry_error_max": worst_iso,
            "factorization_error_max": worst_fact,
            "roundtrip_error_max": worst_round,
            "tolerances": {"isometry": 2e-3, "factorization": 2e-3,
                           "roundtrip": 1e-6},
            "pass": passed}


def _verify_algebra_suite(args) -> dict:
    atom = _atom(args)
    grid = default_operator_grid(args.case, args.n)
    if args.case == "gabor":
        pool = [Symbol1D.indicator(-1.0, 1.0),
                Symbol1D.indicator(float("-inf"), 0.0),
                Symbol1D.smooth_step(4.0),
                Symbol1D.gaussian_bump(8.0)]
        cuts = [0.0]
    else:
        pool = [Symbol1D.indicator(1.0, 2.0),
                Symbol1D.indicator(0.5, 8.0),
                Symbol1D.smooth_step(8.0, log2_axis=True),
                Symbol1D.constant(0.5)]
        cuts = [1.0]
    worst_comm = max(d["commutator_norm_rel"] for d in
                     pool_commutator_diagnostics(atom, pool, grid).values())
    part = Partition.from_cuts(args.case, cuts, default_partition_domain(atom))
    cloud = partition_gammas(atom, part, grid)
    sums_dev = float(np.max(np.abs(cloud.points.sum(axis=1) - 1.0)))
    # the direct route is linear in the symbol: one build per piece
    basis = [build_direct(atom, SymbolSpec.first_variable(ind), grid).values
             for ind in part.indicator_symbols()]
    rng = np.random.default_rng(args.seed)
    worst_iso = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(part.m) + 1j * rng.standard_normal(part.m)
        _, sup = evaluate_on_cloud(coeffs, cloud)
        nm = operator_norm(sum(c * M for c, M in zip(coeffs, basis)))
        worst_iso = max(worst_iso, abs(sup - nm) / nm)
    passed = worst_comm <= 5e-3 and sums_dev <= 1e-6 and worst_iso <= 2e-3
    return {"case": args.case, "atom": atom.name, "N": grid.count,
            "commutator_rel_max": worst_comm,
            "simplex_sum_deviation": sums_dev,
            "tau_isometry_rel_max": worst_iso,
            "tolerances": {"commutator": 5e-3, "simplex": 1e-6,
                           "tau_isometry": 2e-3},
            "pass": passed}


def cmd_verify(args) -> int:
    if args.suite == "transforms":
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
    h = omega_side(atom.case, f)
    fibers = Fibers.of(atom, h.grid.samples)
    meta = {"case": args.case, "atom": atom.name,
            "symbol": symbol.descriptor, "input": args.input,
            "fiber_coverage": fibers.coverage(h)}
    if args.compare:
        fast, slow, dev = filter_signal(atom, spec, f, method="compare",
                                        fibers=fibers)
        out = fast if args.method == "fast" else slow
        tio.write_signal_csv(args.out, out, metadata={
            **meta, "method": args.method, "compared": True,
            "relative_deviation": dev})
        tio.write_signal_csv(f"{args.out}.slow.csv", slow)
    else:
        out = filter_signal(atom, spec, f, method=args.method, fibers=fibers)
        tio.write_signal_csv(args.out, out, metadata={
            **meta, "method": args.method, "compared": False})
    return 0


def cmd_algebra(args) -> int:
    atom = _atom(args)
    try:
        cuts = [float(c) for c in args.cuts.split(",") if c.strip()]
    except ValueError:
        raise ValueError(f"malformed --cuts {args.cuts!r}") from None
    part = Partition.from_cuts(args.case, cuts, default_partition_domain(atom))
    cloud = partition_gammas(atom, part, _xi_grid(args))
    meta = _config_meta(args, partition=part.descriptor(), m=part.m,
                        simplex_sum_deviation=float(
                            np.max(np.abs(cloud.points.sum(axis=1) - 1.0))))
    if args.format == "json":
        tio.write_json(args.out, {
            **meta, "xi": cloud.xi_grid.samples.tolist(),
            "points": cloud.points.tolist()})
    else:
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SymbolParseError, ValueError, OSError, ArithmeticError) as exc:
        print(f"tfloc {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not bad input; exit 1 is reserved for "verification failed"
        traceback.print_exc(file=sys.stderr)
        print(f"tfloc {args.command}: internal error: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
