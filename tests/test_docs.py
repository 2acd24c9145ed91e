"""README.md and the demos run as written.

Every ``python`` block of README.md and every ``demos/*.py`` runs as a
script in a fresh process and a temporary working directory, with runtime
and user warnings as errors; every ``tfloc`` line of README's ``sh`` blocks
parses; and every backticked ``module.name`` or ``Class.attr`` of tfloc in
README's prose names something that exists.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tfloc
from tfloc.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# a fenced block: its language tag and its text
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)
# a dotted name, once call arguments and subscripts are stripped
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
BRACKETS = re.compile(r"\([^()]*\)|\[[^\[\]]*\]")


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return [m.group(2) for m in FENCE.finditer(_readme()) if m.group(1) == lang]


def _run_script(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter, as CI ran it: runtime and user
    warnings as errors, one BLAS thread, tfloc from this checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(tfloc.__file__)))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-W", "error::UserWarning", str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_readme_python_blocks_run(tmp_path):
    blocks = _blocks("python")
    assert blocks, "README.md has no python block"
    for i, code in enumerate(blocks):
        script = tmp_path / f"block{i}.py"
        script.write_text(code, encoding="utf-8")
        done = _run_script(script, tmp_path)
        assert done.returncode == 0, f"python block {i}:\n{done.stderr}"


def test_readme_command_lines_parse(capsys):
    # parsed, not run: argparse checks every subcommand, option and typed
    # value, and exits 2 on one it does not know
    lines = [words for block in _blocks("sh") for line in block.splitlines()
             if (words := shlex.split(line, comments=True))[:1] == ["tfloc"]]
    assert lines, "README.md has no tfloc command line"
    parser = build_parser()
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"{shlex.join(words)}: {capsys.readouterr().err}")


def _modules() -> dict:
    """tfloc's submodules by their short name (``__main__``, which runs the
    command line, left out)."""
    return {m.name: importlib.import_module(f"tfloc.{m.name}")
            for m in pkgutil.iter_modules(tfloc.__path__)
            if m.name != "__main__"}


def _classes(modules) -> dict:
    """Every class defined in tfloc, private ones included, by name."""
    return {name: obj for mod in modules.values()
            for name, obj in vars(mod).items()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__}


def _instance_attributes(cls) -> set:
    """The fields of a dataclass ``cls`` (its ``__init__`` is generated),
    else the attributes its own ``__init__`` assigns to ``self``."""
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    init = cls.__dict__.get("__init__")
    if init is None:
        return set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _resolves(path: str, modules, classes) -> bool | None:
    """Whether the dotted ``path`` names something in tfloc: None when its
    head is no tfloc module or class, so it is not tfloc's to check."""
    head, *rest = path.split(".")
    if head == "tfloc":
        obj = tfloc
    elif head in modules:
        obj = modules[head]
    elif head in classes:
        obj = classes[head]
    else:
        return None
    for i, part in enumerate(rest):
        if obj is tfloc and part in modules:
            obj = modules[part]  # the submodule, not a name it exports
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            # an instance attribute ends the path: it has no class value
            return (inspect.isclass(obj) and i == len(rest) - 1
                    and part in _instance_attributes(obj))
    return True


def test_readme_names_resolve():
    modules = _modules()
    classes = _classes(modules)
    prose = FENCE.sub("", _readme())
    checked, missing = 0, []
    for span in re.findall(r"`([^`]+)`", prose):
        span = " ".join(span.split())
        while BRACKETS.search(span):
            span = BRACKETS.sub("", span)
        if not DOTTED.fullmatch(span):
            continue
        found = _resolves(span, modules, classes)
        if found is not None:
            checked += 1
            if not found:
                missing.append(span)
    assert checked, "README.md names no tfloc module.name or Class.attr"
    assert not missing, f"README.md names what tfloc lacks: {missing}"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # in a directory of its own: demo 02 writes a 7 MB scalogram there
    done = _run_script(demo, tmp_path)
    assert done.returncode == 0, f"{demo.name}:\n{done.stderr}"
