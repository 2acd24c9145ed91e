"""Self-test of the benchmark at a tiny problem size.

Run from the repository root:

    python3 perfbench/selftest.py

It shows that

1. every metric of BENCHMARK.json is emitted with its unit on every
   workload, end-to-end with tracing off and per-layer with tracing on, and
   the traced counts confirm the predicted bypasses;
2. a deliberately perturbed result (a shifted eigenvalue vector, a failed or
   loosened verify report, a changed CSV value, a changed repeat output) is
   counted as failed;
3. uninstalling the tracer restores every original binding.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def bench_run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_every_metric_emitted():
    bench = run.load_benchmark()
    per_layer = {}
    for w in bench["workloads"]:
        for trace, spec in ((0, "end_to_end"), (1, "per_layer")):
            res = bench_run(w["name"], trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0, (w["name"], res)
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[spec]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], set(got) ^ set(want))
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            if spec == "end_to_end":
                assert all(v["value"] > 0 for v in res["metrics"].values())
            else:
                per_layer[w["name"]] = {k: v["value"]
                                        for k, v in res["metrics"].items()}
    # the bypasses the workloads are built to show, as exact counts
    assert per_layer["signal-io"]["operators.build_direct.calls"] == 0
    assert per_layer["verify-dense"]["operators.build_direct.distinct_frac"] == 1.0
    assert per_layer["algebra-reuse"]["operators.build_direct.distinct_frac"] < 1.0
    assert per_layer["verify-dense"]["kernels.gamma.adaptive.calls"] == 0
    for name, values in per_layer.items():
        assert values["cli.main.exit_nonzero"] == 0, name


def test_perturbed_results_fail():
    ref = W.radial_gaussian_eigs(1.0, 16)
    eigs = np.concatenate([ref, np.zeros(8)]).astype(complex)
    assert not W.check_eigenvalues(eigs, ref, W.RADIAL_TOL, "radial").problems
    shifted = eigs.copy()
    shifted[:16] += 1e-6
    assert W.check_eigenvalues(shifted, ref, W.RADIAL_TOL, "radial").problems
    disk = W.disk_eigs(2.0, 20)
    assert not W.check_eigenvalues(disk + 3e-3, disk, W.DISK_TOL, "disk").problems
    assert W.check_eigenvalues(disk + 2e-2, disk, W.DISK_TOL, "disk").problems

    report = {"pass": True, "tolerance": 1e-3, "norm_discrepancy": 1e-4,
              "hausdorff": 1e-4, "action_error_max": 1e-4}
    assert not W.check_verify_report(dict(report), "cto1").problems
    assert W.check_verify_report({**report, "pass": False}, "cto1").problems
    assert W.check_verify_report({**report, "tolerance": 1e-1}, "cto1").problems
    assert W.check_verify_report({**report, "hausdorff": 2e-3}, "cto1").problems

    xs = np.arange(8.0)
    v = np.exp(1j * xs)
    assert not W.check_signal_roundtrip((xs, v), (xs, v.copy())).problems
    changed = v.copy()
    changed[5] += 1e-15
    assert W.check_signal_roundtrip((xs, v), (xs, changed)).problems

    # through the client: a raising job, a failed check, a changed repeat
    outputs = iter(["a", "b"])

    def digest_check(_):
        return W.Outcome(digest=next(outputs))

    client = run.Client()
    recs = [client.run_job(W.Job("raises", lambda: 1 / 0, W.Outcome)),
            client.run_job(W.Job("bad", lambda: 1, lambda r: W.Outcome(
                problems=["wrong"]))),
            client.run_job(W.Job("same", lambda: 1, digest_check)),
            client.run_job(W.Job("same", lambda: 1, digest_check))]
    assert [bool(r.problems) for r in recs] == [True, True, False, True]


def test_tracer_restores_bindings():
    import tfloc.cli  # noqa: F401  (loads every tfloc module)

    def snapshot():
        snap = {}
        for mod in tracer._tfloc_modules():
            for attr, value in vars(mod).items():
                snap[(mod.__name__, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("tfloc"):
                    for k, v in vars(value).items():
                        snap[(mod.__name__, attr, k)] = v
        return snap

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        import tfloc.kernels
        wrapped = tfloc.kernels.gamma
        assert wrapped is not before[("tfloc.kernels", "gamma")]
        for mod in ("tfloc.operators", "tfloc.algebra", "tfloc.cli", "tfloc"):
            assert sys.modules[mod].gamma is wrapped, mod
    finally:
        t.uninstall()
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed


if __name__ == "__main__":
    for test in (test_perturbed_results_fail, test_tracer_restores_bindings,
                 test_every_metric_emitted):
        test()
        print(f"ok {test.__name__}")
