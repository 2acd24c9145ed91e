"""Every output of a fixed list of tfloc commands against recorded digests.

``golden/outputs.json`` lists tfloc commands, each with its exit code and the
sha256 of every file it writes, and the fingerprint of the environment they
were recorded in.  The list runs twice in one process, the second time with
the transform chain's other CPU split (``fields._PARTS``) and warm caches;
both passes must give the same exit codes and bytes.  Where the environment's
fingerprint is the recorded one, every digest must also equal its record.
Elsewhere numpy's SIMD loops and the BLAS kernels may round differently, so
that comparison alone is skipped, naming the fields that differ.

A change that moves outputs on purpose reruns the list with
``PYTHONPATH=src python tests/golden/regen.py`` and commits the manifest.
"""

import contextlib
import ctypes
import hashlib
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from tfloc import fields
from tfloc.cli import main

MANIFEST = Path(__file__).parent / "golden" / "outputs.json"
# the filter tolerance of --compare: slow against fast output
FILTER_DEVIATION = 1e-9


@contextlib.contextmanager
def one_blas_thread():
    """Every OpenBLAS the process has loaded (numpy's, and scipy's once
    imported) on one thread, as CI and the benchmark run: the dense
    eigensolves of verify cto2 and cto3 at n = 256 round differently on two.
    Each is found by the names its build exports; the counts are restored."""
    libs = []
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f})
        for lib in (ctypes.CDLL(path) for path in paths if "openblas" in path):
            for pre, post in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"),
                              ("", "")):
                get = getattr(lib, f"{pre}openblas_get_num_threads{post}", None)
                if get is not None:
                    libs.append((get, getattr(
                        lib, f"{pre}openblas_set_num_threads{post}")))
                    break
    saved = [get() for get, _ in libs]
    for _, set_threads in libs:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(libs, saved):
            set_threads(count)


def fingerprint() -> dict:
    """numpy, its BLAS and SIMD extensions, and the CPU model."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "simd": config.get("SIMD Extensions", {}).get("found"),
            "cpu": cpu}


def _write_signal(name, x, v):
    np.savetxt(name, np.column_stack([x, np.real(v), np.imag(v)]),
               delimiter=",", header="x,re,im", comments="", fmt="%.17g")


def write_inputs():
    """The entries' inputs, into the working directory: a complex 97-sample
    symbol, a gaussian on 64 samples and 2^256 times it, and sums of three
    modulated gaussians on 1024 and 4096 samples of [-8, 8) and [-16, 16)
    and on 1001 samples from -7.5 + 0.3, off the lattice of the gabor
    translations, which the fallback K x N fiber record then serves."""
    x = -3 + np.arange(97) / 16
    _write_signal("sym97.csv", x, np.cos(2 * x) + 1j * np.sin(x))
    x = (np.arange(64) - 32) / 4
    _write_signal("sig64.csv", x, np.exp(-np.pi * x ** 2 / 4))
    _write_signal("sig64-2p256.csv", x,
                  np.ldexp(np.exp(-np.pi * x ** 2 / 4), 256))
    for name, x, width, centres in (
            ("sig1024.csv", (np.arange(1024) - 512) / 64, 2, (-4, 0, 4)),
            ("sig4096.csv", (np.arange(4096) - 2048) / 128, 2, (-6, 0, 6)),
            ("sig1001.csv", 0.3 + (np.arange(1001) - 500) / 64, 1.5,
             (-4, 0.5, 5))):
        _write_signal(name, x, sum(
            np.exp(-np.pi * ((x - c) / width) ** 2 + 2j * np.pi * k * x)
            for c, k in zip(centres, (0.5, 1.5, 3.0))))


def run(commands):
    """Runs each command line through ``tfloc.cli.main`` in the working
    directory.  Returns, per command, its exit code and the sha256 of each
    file it wrote, which is then deleted, and the ``relative_deviation`` of
    every sidecar that records one."""
    records, deviations = [], {}
    for command in commands:
        before = set(os.listdir())
        code = main(shlex.split(command))
        files = {}
        for name in sorted(set(os.listdir()) - before):
            data = Path(name).read_bytes()
            files[name] = hashlib.sha256(data).hexdigest()
            if name.endswith(".meta.json"):
                report = json.loads(data)
                if "relative_deviation" in report:
                    deviations[name] = report["relative_deviation"]
            os.remove(name)
        records.append({"exit": code, "files": files})
    return records, deviations


def _load():
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    commands = [entry["command"] for entry in _load()["entries"]]
    with pytest.MonkeyPatch.context() as mp, one_blas_thread():
        mp.chdir(tmp_path_factory.mktemp("golden"))
        write_inputs()
        first = run(commands)
        mp.setattr(fields, "_PARTS", 3 - fields._PARTS)
        return first, run(commands)[0]


def test_both_passes_write_the_recorded_files_and_exit_codes(passes):
    (first, deviations), second = passes
    for entry, a, b in zip(_load()["entries"], first, second):
        cmd = "tfloc " + entry["command"]
        assert a["exit"] == b["exit"] == entry["exit"], cmd
        assert list(a["files"]) == list(b["files"]) == list(entry["files"]), cmd
        for name, digest in a["files"].items():
            assert b["files"][name] == digest, f"{cmd}: {name} differs " \
                f"between _PARTS = {fields._PARTS} and {3 - fields._PARTS}"
    assert deviations
    for name, dev in deviations.items():
        assert dev <= FILTER_DEVIATION, f"{name}: {dev:.3e}"


def test_outputs_match_the_recorded_digests(passes):
    manifest = _load()
    recorded, here = manifest["fingerprint"], fingerprint()
    differ = [f"{k}: recorded {recorded.get(k)}, here {v}"
              for k, v in here.items() if recorded.get(k) != v]
    if differ:
        pytest.skip("digests recorded on another environment; "
                    + "; ".join(differ))
    moved = [f"tfloc {entry['command']}: {name}"
             for entry, got in zip(manifest["entries"], passes[0][0])
             for name, digest in entry["files"].items()
             if got["files"].get(name) != digest]
    assert not moved, "outputs moved:\n" + "\n".join(moved)
