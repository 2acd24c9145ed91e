"""Workload mixes and the output check of every job kind.

A job is one in-process ``tfloc.cli.main(argv)`` call or, where the CLI
cannot express the symbol, one library call.  Its check runs after it,
outside the timed region, and returns an ``Outcome``: (label, error,
tolerance) triples that feed ``error_to_tol_max``, problems that fail the
job, and a digest of its outputs.  Jobs with equal keys repeat an identical
configuration and must produce byte-identical outputs.

The checks use closed forms and numpy/scipy only, never the tfloc code
under test:

* gabor indicator gamma: 1/2 [erf(sqrt(2 pi)(xi - a)) - erf(sqrt(2 pi)(xi - b))]
  for the gaussian window phi(x) = 2^(1/4) exp(-pi x^2);
* shannon indicator gamma: log-length of [a, b] meet [1/|xi|, 2/|xi|] over ln 2;
* radial gaussian symbol exp(-pi (q^2 + p^2) / s^2) with the gaussian window:
  eigenvalues (1 + s^-2)^-(k+1) (Daubechies 1988);
* disk of radius R: eigenvalues P(k+1, pi R^2), the regularized lower
  incomplete gamma function.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erf, gammainc

import tfloc
import tfloc.cli
import tfloc.grids
import tfloc.io
import tfloc.operators
import tfloc.symbols

WORKLOADS = {
    "verify-dense": "each job assembles distinct dense operators once: "
                    "build_direct, overlap kernels and dense eig/SVD dominate "
                    "and nothing repeats",
    "algebra-reuse": "the only workload whose jobs rebuild the same operators "
                     "and make per-point adaptive quadrature callbacks",
    "signal-io": "no dense operator assembly; batched axis-2 FFTs, scalar "
                 "quadrature and CSV/JSON reads and writes",
}

# Seconds one cycle of each mix takes on the reference machine (see
# README.md).  A run makes max(1, floor(seconds / this)) cycles, so every
# run of a workload does the same work whatever the machine's load.
CYCLE_SECONDS = {"verify-dense": 22.0, "algebra-reuse": 24.0, "signal-io": 10.0}

# tolerances pinned by the acceptance suite and the CLI's stated contracts
VERIFY_TOL = {
    "cto1": 1e-3, "cto2": 5e-3, "cto3": 5e-3,
    "transforms": {"isometry": 2e-3, "factorization": 2e-3, "roundtrip": 1e-6},
    "algebra": {"commutator": 5e-3, "simplex": 1e-6, "tau_isometry": 2e-3},
}
# report field measured against each stated tolerance
VERIFY_FIELDS = {
    "cto": {"norm_discrepancy", "hausdorff", "action_error_max"},
    "transforms": {"isometry": "isometry_error_max",
                   "factorization": "factorization_error_max",
                   "roundtrip": "roundtrip_error_max"},
    "algebra": {"commutator": "commutator_rel_max",
                "simplex": "simplex_sum_deviation",
                "tau_isometry": "tau_isometry_rel_max"},
}
ADAPTIVE_TOL = 1e-8        # adaptive quadrature against a closed form
# the grid rule counts each indicator-edge node fully: at most
# step * sup|phi|^2 / 2 per edge on the default translation grid (step 1/16)
GRID_RULE_TOL = 2 * (1.0 / 16) * math.sqrt(2.0) / 2
CLOUD_TOL = 1e-6           # simplex sums and cloud coordinates
SPECTRUM_HAUSDORFF_TOL = 1e-2  # eigenvalues against the sampled gamma
RADIAL_TOL = 1e-10         # measured 1e-16 at n = 256
DISK_TOL = 1e-2            # measured 3.5e-3: O(step) staircase at the disk edge
FILTER_TOL = 1e-9          # both paths use one first-coordinate rule: ~1e-13
KERNEL_DIAG_TOL = 1e-6
KERNEL_HERMITIAN_TOL = 1e-10
HEALTHY = {"gaussian": (-8.0, 8.0), "shannon": (2.0 ** -4, 4.0)}
LATTICE = 1.0 / 16         # gabor translation-grid step


@dataclass
class Outcome:
    ratios: list = field(default_factory=list)     # (label, error, tolerance)
    problems: list = field(default_factory=list)
    digest: str = ""

    def bound(self, label, error, tol):
        error = float(error)
        self.ratios.append((label, error, tol))
        if not error <= tol:
            self.problems.append(f"{label}: {error:.3e} exceeds {tol:.1e}")


@dataclass
class Job:
    key: str                            # equal keys: identical configuration
    run: Callable[[], object]           # timed
    check: Callable[[object], Outcome]  # untimed


# -- closed forms -------------------------------------------------------------

def gabor_indicator_gamma(a, b, xs):
    s = math.sqrt(2.0 * math.pi)
    return 0.5 * (erf(s * (xs - a)) - erf(s * (xs - b)))


def shannon_indicator_gamma(a, b, xs):
    ax = np.abs(xs)
    lo = np.maximum(a, 1.0 / ax)
    hi = np.minimum(b, 2.0 / ax)
    return np.where(hi > lo, np.log(np.maximum(hi, lo) / lo), 0.0) / math.log(2.0)


def radial_gaussian_eigs(sigma, k):
    return (1.0 + sigma ** -2) ** -(np.arange(k) + 1.0)


def disk_eigs(radius, k):
    return gammainc(np.arange(k) + 1.0, math.pi * radius ** 2)


def default_grid(case, n):
    """Samples of tfloc's documented operator window, rebuilt here."""
    if case == "gabor":
        step = 16.0 / n
        return -(n // 2) * step + np.arange(n) * step
    return 2.0 ** -4 + np.arange(n) * (4.0 / n)


# -- shared checks -------------------------------------------------------------

def digest_files(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_verify_report(report, suite, out=None):
    """The report's pass flag, its stated tolerances and every ratio."""
    out = out or Outcome()
    if report.get("pass") is not True:
        out.problems.append(f"verify {suite}: pass is {report.get('pass')!r}")
    pinned = VERIFY_TOL[suite]
    if suite.startswith("cto"):
        stated = report.get("tolerance")
        fields = [(f, pinned) for f in sorted(VERIFY_FIELDS["cto"])]
    else:
        stated = report.get("tolerances")
        fields = [(VERIFY_FIELDS[suite][k], tol) for k, tol in pinned.items()]
    if stated != pinned:
        out.problems.append(f"verify {suite}: stated tolerance {stated} "
                            f"is not the pinned {pinned}")
    for f, tol in fields:
        out.bound(f"{suite}.{f}", report[f], tol)
    return out


def check_eigenvalues(eigs, reference, tol, label, out=None):
    """Leading eigenvalues, sorted, against a closed form."""
    out = out or Outcome()
    eigs = np.asarray(eigs)
    out.bound(f"{label}.imag", np.max(np.abs(eigs.imag)) if eigs.size else 0.0,
              tol)
    lead = np.sort(eigs.real)[::-1][:len(reference)]
    if lead.size < len(reference):
        out.problems.append(f"{label}: only {lead.size} eigenvalues")
        return out
    out.bound(label, np.max(np.abs(lead - reference)), tol)
    return out


def check_signal_roundtrip(written, read_back, out=None):
    """A signal written and read back must come back exactly."""
    out = out or Outcome()
    (xs0, v0), (xs1, v1) = written, read_back
    if v1.shape != v0.shape or not np.array_equal(v1, v0):
        out.problems.append("csv round trip changed the signal values")
    else:
        out.bound("csv_roundtrip.grid", np.max(np.abs(xs1 - xs0)), 1e-12)
    return out


# -- job builders --------------------------------------------------------------

class MixBuilder:
    """Collects the jobs of one mix; outputs go under ``workdir``."""

    def __init__(self, workdir, seed, atoms):
        self.workdir = workdir
        self.seed = seed
        self.atoms = atoms
        self.rng = np.random.default_rng(seed)
        self.jobs: list[Job] = []

    def dir(self, key):
        d = os.path.join(self.workdir, key)
        os.makedirs(d, exist_ok=True)
        return d

    def add(self, job):
        self.jobs.append(job)

    def repeat(self, key):
        """Run an earlier job's configuration again (determinism check)."""
        self.jobs.append(next(j for j in self.jobs if j.key == key))

    def cli(self, key, argv, files, check):
        """CLI job; ``files`` are the outputs digested after the check."""
        d = self.dir(key)
        paths = [os.path.join(d, f) for f in files]
        argv = [a.replace("{out}", d) for a in argv]

        def run():
            return tfloc.cli.main(argv)

        def checked(rc):
            out = Outcome()
            if rc != 0:
                out.problems.append(f"exit code {rc}")
                return out
            check(paths, out)
            out.digest = digest_files(paths)
            return out

        self.add(Job(key, run, checked))

    # -- seeded inputs ----------------------------------------------------------

    def lattice_indicator(self, rule="grid"):
        """Gabor indicator with endpoints on the translation lattice.

        Adaptive quadrature's cost depends on where the breakpoints fall
        (up to 2x), so adaptive-rule symbols do not vary with the seed.
        """
        if rule == "adaptive":
            return -1.0, 1.0
        a = -int(self.rng.integers(8, 33)) * LATTICE
        b = int(self.rng.integers(8, 33)) * LATTICE
        return a, b

    def scale_indicator(self):
        j = int(self.rng.integers(-4, 1))
        return 2.0 ** (j / 2), 2.0 ** (j / 2 + 2)

    def signal_csv(self, n):
        """Seeded test signal, six Gaussian-windowed tones, as CSV (x,re,im)."""
        step = 32.0 / n
        xs = -(n // 2) * step + np.arange(n) * step
        nu = self.rng.uniform(0.5, 3.0, 6) * self.rng.choice([-1.0, 1.0], 6)
        c = self.rng.standard_normal(6) + 1j * self.rng.standard_normal(6)
        x0 = self.rng.uniform(-4.0, 4.0, 6)
        v = sum(ck * np.exp(2j * np.pi * f * xs - np.pi * ((xs - x) / 2.0) ** 2)
                for ck, f, x in zip(c, nu, x0))
        path = os.path.join(self.dir("inputs"), f"signal-{n}.csv")
        with open(path, "w") as fh:
            fh.write("x,re,im\n")
            fh.writelines(f"{x:.17g},{z.real:.17g},{z.imag:.17g}\n"
                          for x, z in zip(xs, v))
        return path

    # -- job kinds ---------------------------------------------------------------

    def verify(self, suite, case, n):
        def check(paths, out):
            check_verify_report(read_json(paths[0]), suite, out)

        self.cli(f"verify-{suite}-{case}-{n}",
                 ["verify", suite, "--case", case, "--n", str(n),
                  "--seed", str(self.seed), "--out", "{out}/report.json"],
                 ["report.json"], check)

    def gamma(self, rule, n):
        a, b = self.lattice_indicator(rule)
        tol = ADAPTIVE_TOL if rule == "adaptive" else GRID_RULE_TOL

        def check(paths, out):
            _, rows = read_csv(paths[0])
            vals = np.array(rows, dtype=float)
            out.bound(f"gamma.{rule}.grid", np.max(np.abs(
                vals[:, 0] - default_grid("gabor", n))), 1e-12)
            out.bound(f"gamma.{rule}", np.max(np.abs(
                vals[:, 1] + 1j * vals[:, 2]
                - gabor_indicator_gamma(a, b, vals[:, 0]))), tol)

        self.cli(f"gamma-{rule}-{n}",
                 ["gamma", "--symbol", f"indicator:{a:g},{b:g}", "--rule", rule,
                  "--n", str(n), "--out", "{out}/gamma.csv"],
                 ["gamma.csv", "gamma.csv.meta.json"], check)

    def spectrum(self, n, rule, with_eigs):
        a, b = self.lattice_indicator(rule)
        tol = ADAPTIVE_TOL if rule == "adaptive" else GRID_RULE_TOL

        def check(paths, out):
            _, rows = read_csv(paths[0])
            kinds = np.array([r[0] for r in rows])
            vals = np.array([[float(r[1]), float(r[2])] for r in rows])
            g = vals[kinds == "gamma"]
            out.bound(f"spectrum.gamma.{rule}", np.max(np.abs(
                g[:, 0] + 1j * g[:, 1] - gabor_indicator_gamma(
                    a, b, default_grid("gabor", n)))), tol)
            if with_eigs:
                meta = read_json(paths[1])
                if int(np.sum(kinds == "eig")) != n:
                    out.problems.append("spectrum: wrong eigenvalue count")
                out.bound("spectrum.hausdorff_eigs_vs_gamma",
                          meta["hausdorff_eigs_vs_gamma"],
                          SPECTRUM_HAUSDORFF_TOL)

        key = f"spectrum-{rule}{'-eigs' if with_eigs else ''}-{n}"
        self.cli(key, ["spectrum", "--symbol", f"indicator:{a:g},{b:g}",
                       "--rule", rule, "--n", str(n),
                       "--out", "{out}/spectrum.csv"]
                 + (["--with-eigs"] if with_eigs else []),
                 ["spectrum.csv", "spectrum.csv.meta.json"], check)
        return key

    def general_symbol(self, kind, param, n):
        """build_direct + spectrum on a non-separable gabor symbol."""
        atom = self.atoms["gaussian"]
        if kind == "radial":
            s2 = param ** 2

            def fn(q, p):
                return np.exp(-np.pi * (q * q + p * p) / s2)

            ref, tol = radial_gaussian_eigs(param, 16), RADIAL_TOL
        else:
            r2 = param ** 2

            def fn(q, p):
                return (q * q + p * p <= r2).astype(float)

            ref, tol = disk_eigs(param, 20), DISK_TOL
        key = f"{kind}-{param:g}-{n}"

        def run():
            ops = tfloc.operators
            spec = tfloc.symbols.SymbolSpec.general(fn, key)
            M = ops.build_direct(atom, spec, ops.default_operator_grid("gabor", n))
            return ops.spectrum(M).values

        def check(eigs):
            out = check_eigenvalues(eigs, ref, tol, kind)
            out.digest = digest_arrays(eigs)
            return out

        self.add(Job(key, run, check))

    def filters(self, case, n, signal):
        """fast, slow and --compare on one signal and one symbol."""
        if case == "gabor":
            a, b = self.lattice_indicator()
        else:
            a, b = self.scale_indicator()
        for method in ("fast", "slow", "compare"):
            self._filter(case, n, method, signal, f"indicator:{a:g},{b:g}")

    def _filter(self, case, n, method, signal, symbol):
        flag = ["--compare"] if method == "compare" else ["--method", method]

        def check(paths, out):
            _, rows = read_csv(paths[0])
            vals = np.array(rows, dtype=float)
            if vals.shape != (n, 3) or not np.all(np.isfinite(vals)):
                out.problems.append("filter: malformed output")
            if method != "compare":
                return
            meta = read_json(paths[1])
            out.bound(f"filter.{case}.fast_vs_slow", meta["relative_deviation"],
                      FILTER_TOL)
            # the single-method outputs must equal the compared pair exactly
            for single, mine in ((f"filter-{case}-{n}-fast", paths[0]),
                                 (f"filter-{case}-{n}-slow", paths[2])):
                other = os.path.join(self.workdir, single, "out.csv")
                if _bytes(other) != _bytes(mine):
                    out.problems.append(f"{single} differs from --compare")

        files = ["out.csv", "out.csv.meta.json"]
        if method == "compare":
            files.append("out.csv.slow.csv")
        self.cli(f"filter-{case}-{n}-{method}",
                 ["filter", "--case", case, "--symbol", symbol,
                  "--input", signal, "--out", "{out}/out.csv"] + flag,
                 files, check)

    def kernel(self, case, n):
        atom = "gaussian" if case == "gabor" else "shannon"

        def check(paths, out):
            rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
            if rows.shape != (n * n, 4):
                out.problems.append(f"kernel: shape {rows.shape}")
                return
            xs = default_grid(case, n)
            out.bound("kernel.grid", max(
                np.max(np.abs(rows[:, 0] - np.repeat(xs, n))),
                np.max(np.abs(rows[:, 1] - np.tile(xs, n)))), 1e-12)
            K = (rows[:, 2] + 1j * rows[:, 3]).reshape(n, n)
            lo, hi = HEALTHY[atom]
            healthy = (xs >= lo) & (xs <= hi)
            out.bound("kernel.diag", np.max(np.abs(
                np.diag(K)[healthy] - 1.0)), KERNEL_DIAG_TOL)
            out.bound("kernel.hermitian", np.max(np.abs(K - K.conj().T)),
                      KERNEL_HERMITIAN_TOL)

        self.cli(f"kernel-{case}-{n}",
                 ["kernel", "--case", case, "--n", str(n),
                  "--out", "{out}/kernel.csv"],
                 ["kernel.csv", "kernel.csv.meta.json"], check)

    def cloud(self, case, n, cuts):
        """Partition cloud export; fixed cuts, for the reason given in
        ``lattice_indicator`` (the cloud uses adaptive quadrature)."""
        if case == "gabor":
            closed = gabor_indicator_gamma
            edges = [-16.0] + cuts + [16.0]
        else:
            closed = shannon_indicator_gamma
            edges = [2.0 ** -8] + cuts + [2.0 ** 8]
        key = f"cloud-{case}-{n}-" + "_".join(f"{c:g}" for c in cuts)

        def check(paths, out):
            _, rows = read_csv(paths[0])
            pts = np.array(rows, dtype=float)
            xs, z = pts[:, 0], pts[:, 1:]
            if z.shape[1] != len(cuts) + 1 or float(z.min()) < -CLOUD_TOL:
                out.problems.append("cloud: wrong width or negative coordinate")
            out.bound("cloud.simplex", np.max(np.abs(z.sum(axis=1) - 1.0)),
                      CLOUD_TOL)
            ref = np.stack([closed(lo, hi, xs) for lo, hi
                            in zip(edges[:-1], edges[1:])], axis=1)
            out.bound(f"cloud.{case}.closed_form", np.max(np.abs(z - ref)),
                      CLOUD_TOL)

        self.cli(key, ["algebra", "--case", case, "--n", str(n),
                       "--cuts=" + ",".join(f"{c:g}" for c in cuts),
                       "--out", "{out}/cloud.csv"],
                 ["cloud.csv", "cloud.csv.meta.json"], check)
        return key

    def csv_roundtrip(self, n):
        step = 32.0 / n
        grid = tfloc.grids.LineGrid(-(n // 2) * step, step, n)
        v = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        sf = tfloc.grids.SampledFunction(grid, v)
        path = os.path.join(self.dir(f"csv-roundtrip-{n}"), "signal.csv")

        def run():
            tfloc.io.write_signal_csv(path, sf)
            return tfloc.io.read_signal_csv(path)

        def check(back):
            out = check_signal_roundtrip((grid.samples, v),
                                         (back.grid.samples, back.values))
            out.digest = digest_files([path])
            return out

        self.add(Job(f"csv-roundtrip-{n}", run, check))


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- the mixes -------------------------------------------------------------------

def build_mix(workload, seed, workdir, atoms, tiny=False):
    """Jobs of one cycle of ``workload``; ``tiny`` shrinks every size."""
    size = ({512: 128, 256: 128, 128: 64, 1024: 256, 4096: 1024}.get
            if tiny else (lambda n: n))
    mb = MixBuilder(workdir, seed, atoms)
    if workload == "verify-dense":
        for case in ("gabor", "wavelet"):
            for suite in ("cto1", "cto2", "cto3"):
                mb.verify(suite, case, size(256))
            mb.verify("cto1", case, size(512))
        # the grid rule keeps adaptive quadrature out of this workload
        eigs = mb.spectrum(size(256), "grid", with_eigs=True)
        for sigma in (1.0, 2.0):
            mb.general_symbol("radial", sigma, size(256))
        mb.general_symbol("disk", 2.0, size(256))
        mb.repeat(eigs)
    elif workload == "algebra-reuse":
        for case in ("gabor", "wavelet"):
            mb.verify("algebra", case, size(128))
        first = mb.cloud("gabor", size(128), [0.0])
        mb.cloud("gabor", size(128), [-2.0, 0.0, 2.0])
        mb.cloud("wavelet", size(128), [0.5, 2.0])
        mb.repeat(first)
    elif workload == "signal-io":
        for n in (size(1024), size(4096)):
            signal = mb.signal_csv(n)
            for case in ("gabor", "wavelet"):
                mb.filters(case, n, signal)
        for case in ("gabor", "wavelet"):
            mb.verify("transforms", case, size(1024))
        for rule in ("grid", "adaptive", "fft"):
            mb.gamma(rule, size(256))
        mb.spectrum(size(256), "adaptive", with_eigs=False)
        for n in (size(256), size(512)):
            mb.kernel("gabor", n)
        mb.cloud("gabor", size(128), [-1.0, 1.0])
        mb.csv_roundtrip(size(4096))
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return mb.jobs
