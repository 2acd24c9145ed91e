"""tfloc benchmark: one closed-loop client runs a workload's fixed job mix.

Run from the repository root (tfloc is imported from ``src``):

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 25 --trace 0

The client runs the mix's jobs one after another in this process and checks
each job's output.  It runs whole cycles of the mix, as many as fit in
``--seconds`` at the workload's nominal cycle time and at least one, so
every run of a workload does the same work.
There is no queue and no second client, so no layer waits on another and
time waited is not a metric.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the mix untraced, then traced, and prints the per-layer metrics, the
tracing overhead and the top layers by self time, and writes the spans to
``perfbench/out/``.  Report lines come first; the last line of standard
output is one JSON object.  Scratch outputs go under ``perfbench/.work/``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# Fixed before numpy loads: one BLAS thread keeps runs steady on a shared
# machine and keeps dense results bit-identical between repeated jobs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3          # this process plus two fresh set-up processes
TAIL_BEYOND = 10           # samples a reported tail percentile must leave beyond it
# error/tolerance ratios below this are double rounding, not accuracy: a
# 1e-16 error against a 1e-6 tolerance moves by whole ulps when only the
# summation order changes, so such ratios are reported as this floor
RATIO_FLOOR = 1e-6
# The shared machine runs whole minutes faster or slower by up to ~35 %
# (import-only set-up time moves in step with job throughput), so the gated
# times are rescaled to a reference speed measured beside every job: a fixed
# Python-and-numpy computation that no tfloc change can touch.  REF_SECONDS
# is its duration on the reference machine; raw times stay in the report.
REF_SECONDS = 0.04
CATALOG = (("gabor", "gaussian"), ("gabor", "rect"),
           ("wavelet", "shannon"), ("wavelet", "haar"))
_T_IMPORT = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started (kernel start time when available)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


class SpeedProbe:
    """Times a fixed computation; its duration over REF_SECONDS is the
    machine's slowness right now (1.0 at reference speed)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.rows = rng.standard_normal((64, 2048)) + 0j
        self.square = rng.standard_normal((192, 192))

    def _work(self):
        s = 0.0
        for i in range(150_000):        # interpreter-bound half
            s += (i * 0.5) % 7.0
        for _ in range(14):             # FFT/BLAS-bound half
            self.np.fft.fft(self.rows, axis=1)
            self.square @ self.square
        return s

    def slowness(self, repeats=1):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / REF_SECONDS


def setup(workload, seed, tiny, workdir):
    """Import tfloc, build the catalog atoms, warm FFT and LAPACK, make inputs.

    Returns the mix and the time from process start until it is ready.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    import tfloc.atoms
    import workloads

    atoms = {name: tfloc.atoms.make_atom(case, name) for case, name in CATALOG}
    a = np.random.default_rng(0).standard_normal((128, 128))
    np.fft.fft(a, axis=1)
    np.linalg.eigvalsh(a + a.T)      # the first LAPACK call is the slow one
    np.linalg.svd(a, compute_uv=False)
    jobs = workloads.build_mix(workload, seed, workdir, atoms, tiny=tiny)
    return jobs, process_age()


def ready(workload, seed, tiny, workdir):
    """Set up; returns the mix, a speed probe and the set-up time as
    (wall seconds, seconds at reference speed)."""
    jobs, wall = setup(workload, seed, tiny, workdir)
    probe = SpeedProbe()
    return jobs, probe, (wall, wall / probe.slowness(repeats=3))


# -- the closed loop -------------------------------------------------------------

@dataclass
class Record:
    key: str
    latency: float          # wall seconds
    slowness: float         # machine slowness around the job
    ratios: list
    problems: list


class Client:
    """One client; remembers each configuration's output digest."""

    def __init__(self, probe=None):
        self.digests: dict[str, str] = {}
        self.jobs_run = 0
        self.probe = probe
        self.last_slowness = probe.slowness() if probe is not None else 1.0

    def run_job(self, job, tracer=None):
        from workloads import Outcome

        self.jobs_run += 1
        scope = (tracer.job(self.jobs_run) if tracer is not None
                 else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with scope:
                result = job.run()
            error = None
        except (Exception, SystemExit) as exc:  # a failed job must not stop the run
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latency = time.perf_counter() - t0
        before = self.last_slowness
        if self.probe is not None:
            self.last_slowness = self.probe.slowness()
        if error is not None:
            outcome = Outcome(problems=[f"raised {error}"])
        else:
            try:
                outcome = job.check(result)
            except Exception:
                outcome = Outcome(problems=[
                    "check raised " + traceback.format_exc(limit=2)])
        if outcome.digest:
            first = self.digests.setdefault(job.key, outcome.digest)
            if first != outcome.digest:
                outcome.problems.append(
                    "outputs differ from an earlier identical configuration")
        return Record(job.key, latency, (before + self.last_slowness) / 2,
                      outcome.ratios, outcome.problems)

    def run_cycles(self, jobs, cycles, tracer=None):
        records = []
        for _ in range(cycles):
            records += [self.run_job(job, tracer) for job in jobs]
        return records


# -- metrics ---------------------------------------------------------------------

def jobs_per_s(records, at_reference=False):
    """Jobs completed per second of the time spent inside jobs, in wall
    seconds or in seconds at reference speed."""
    done = [r for r in records if not r.problems]
    return len(done) / sum(r.latency / (r.slowness if at_reference else 1.0)
                           for r in records)


def tail(latencies):
    """Highest listed percentile with TAIL_BEYOND samples beyond it, or None."""
    import numpy as np

    n = len(latencies)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, float(np.percentile(latencies, p, method="inverted_cdf"))
    return None


def worst_ratio(records):
    worst = ("rounding level only", RATIO_FLOOR, 1.0)
    for r in records:
        for label, err, tol in r.ratios:
            if err / tol > worst[1] / worst[2]:
                worst = (label, err, tol)
    return worst[1] / worst[2], worst[0]


def probe_setup(args):
    """(wall, reference) set-up seconds of a fresh process that only sets up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    wall, ref = out.stdout.split()[-2:]
    return float(wall), float(ref)


def environment():
    import numpy as np
    import scipy

    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
           "nproc": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for idx in sorted(os.listdir(cache)):
            with open(f"{cache}/{idx}/level") as fh:
                level = fh.read().strip()
            with open(f"{cache}/{idx}/size") as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = size
    return env


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit(spec, values):
    """Exactly the metrics listed in ``spec``, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def report_run(records, cycles, label):
    failed = [r for r in records if r.problems]
    print(f"{label}: {len(records)} jobs in {cycles} cycle(s), "
          f"{len(failed)} failed")
    for r in failed:
        print(f"  FAILED {r.key}: {'; '.join(r.problems)}")


def cycle_count(args, seconds):
    from workloads import CYCLE_SECONDS

    return max(1, int(seconds // CYCLE_SECONDS[args.workload]))


def timed_run(args, jobs, probe, setup, bench):
    client = Client(probe)
    records = client.run_cycles(jobs, cycle_count(args, args.seconds))
    report_run(records, len(records) // len(jobs), "timed run")
    setups = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    lat = [r.latency for r in records]
    ratio, where = worst_ratio(records)
    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "jobs_per_s": jobs_per_s(records, at_reference=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_to_tol_max": ratio,
    }
    failed = sum(1 for r in records if r.problems)
    slow = statistics.median(r.slowness for r in records)
    print(f"  machine slowness against the reference: median {slow:.3f} "
          f"over {len(records)} jobs")
    print(f"  setup_s = {values['setup_s']:.4f} s at reference speed (median "
          "of " + ", ".join(f"{ref:.4f}" for _, ref in setups) + "); wall "
          + ", ".join(f"{wall:.4f}" for wall, _ in setups))
    print(f"  jobs_per_s = {values['jobs_per_s']:.5f} 1/s at reference speed; "
          f"{jobs_per_s(records):.5f} 1/s wall")
    print(f"  job_p50_s = {statistics.median(lat):.5f} s wall "
          f"({len(lat)} samples)")
    t = tail(lat)
    if t is None:
        print(f"  job_tail_s: omitted, {len(lat)} samples leave fewer than "
              f"{TAIL_BEYOND} beyond the 75th percentile")
    else:
        print(f"  job_tail_s = {t[1]:.5f} s wall (p{t[0]:g} of {len(lat)} "
              f"samples, {int(len(lat) * (1 - t[0] / 100))} beyond)")
    print(f"  peak_rss_mb = {values['peak_rss_mb']:.2f} MiB")
    print(f"  failed_frac = {failed / len(records):.4f} 1 "
          f"({failed} of {len(records)})")
    print(f"  error_to_tol_max = {ratio:.6g} 1 ({where})")
    return records, emit(bench["end_to_end"], values)


def layer_values(tracer, spec, extra):
    values = {}
    for m in spec:
        name = m["name"]
        if name in extra:
            values[name] = extra[name]
            continue
        base, quantity = name.rsplit(".", 1)
        a = tracer.agg.get(base, {})
        calls = a.get("calls", 0)
        if quantity == "distinct_frac":
            values[name] = a.get("distinct", 0) / calls if calls else 0.0
        elif quantity == "points_per_call":
            values[name] = a.get("points", 0) / calls if calls else 0.0
        elif quantity == "self_s":
            values[name] = a.get(quantity, 0.0)
        else:
            values[name] = int(a.get(quantity, 0))
    return values


def traced_run(args, jobs, probe, bench):
    """Each job runs twice, untraced and traced, in alternating order, so the
    warm second run favours neither side of the overhead figure."""
    from tracer import Tracer

    client = Client(probe)
    tracer = Tracer()
    untraced, traced = [], []
    for _ in range(cycle_count(args, args.seconds / 2)):
        for i, job in enumerate(jobs):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced.append(client.run_job(job))
                    continue
                tracer.install()
                try:
                    traced.append(client.run_job(job, tracer))
                finally:
                    tracer.uninstall()
    report_run(untraced, len(untraced) // len(jobs), "untraced runs")
    report_run(traced, len(traced) // len(jobs), "traced runs")
    jps_plain = jobs_per_s(untraced, at_reference=True)
    jps_traced = jobs_per_s(traced, at_reference=True)
    extra = {"trace.jobs_per_s.untraced": jps_plain,
             "trace.jobs_per_s.traced": jps_traced,
             "trace.overhead_frac": jps_plain / jps_traced - 1.0}
    values = layer_values(tracer, bench["per_layer"], extra)
    print(f"  tracing overhead: {extra['trace.overhead_frac']:+.2%} "
          f"({jps_traced:.5f} traced against {jps_plain:.5f} untraced jobs/s)")
    total = sum(a.get("self_s", 0.0) for a in tracer.agg.values())
    print("  top layers by self time (bench.job is time in jobs outside "
          "every traced call):")
    for name, s in sorted(tracer.self_time_by(None).items(),
                          key=lambda kv: -kv[1])[:8]:
        print(f"    {name:36s} {s:9.4f} s  {s / total:6.1%}")
    print("  self time by module: " + ", ".join(
        f"{name} {s / total:.1%}" for name, s in sorted(
            tracer.self_time_by(1).items(), key=lambda kv: -kv[1])))
    if not tracer.agg.get("operators.build_direct", {}).get("calls"):
        print("  operators.build_direct.distinct_frac: no calls, reported as 0")
    path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "environment": environment(), "metrics": values})
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return untraced + traced, emit(bench["per_layer"], values)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every problem size (self-test)")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(HERE, ".work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        try:
            jobs, probe, setup_s = ready(args.workload, args.seed, args.tiny,
                                         workdir)
            bench = None if args.probe_setup else load_benchmark()
        except (ImportError, ValueError, OSError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return 2
        if args.probe_setup:
            print(*map(repr, setup_s))
            return 0
        env = environment()
        print(f"workload {args.workload}, seed {args.seed}: closed loop, "
              f"1 client, {len(jobs)} jobs per cycle; "
              + ", ".join(f"{k} {v}" for k, v in env.items()))
        if args.trace:
            records, metrics = traced_run(args, jobs, probe, bench)
        else:
            records, metrics = timed_run(args, jobs, probe, setup_s, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    failed = sum(1 for r in records if r.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
