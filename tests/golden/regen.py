"""Rewrites outputs.json beside this file: runs its entries' commands once, in a
temporary directory, and records each exit code and output digest with this
environment's fingerprint.  It takes no options:

    PYTHONPATH=src python tests/golden/regen.py

Run it after a change that moves outputs on purpose, and list each entry
that moved in CHANGES.md.  To add an entry, add its command line (the tfloc
arguments) with any exit code and no files, then run this.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from test_golden import (MANIFEST, fingerprint, one_blas_thread,  # noqa: E402
                         run, write_inputs)

commands = [e["command"] for e in json.loads(MANIFEST.read_text())["entries"]]
with tempfile.TemporaryDirectory() as tmp, one_blas_thread():
    os.chdir(tmp)
    write_inputs()
    records, _ = run(commands)
entries = [{"command": c, **rec} for c, rec in zip(commands, records)]
MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(),
                                "entries": entries}, indent=1) + "\n")
