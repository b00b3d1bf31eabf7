"""The package needs nothing beyond the standard library: sympy, hypothesis
and numpy may serve tests and development tools, never the code under src/."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ttw4d

ALLOWED = set(sys.stdlib_module_names) | {"ttw4d"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_src_imports_no_dev_only_packages():
    modules = sorted(Path(ttw4d.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    offenders = {}
    for path in modules:
        found = set(_imported_roots(ast.parse(path.read_text(), str(path)))) - ALLOWED
        if found:
            offenders[path.name] = sorted(found)
    assert offenders == {}


def test_cli_import_loads_no_numpy():
    """A cold `ttw4d` start pays for no numpy import, even indirectly."""
    src = str(Path(ttw4d.__file__).parent.parent)
    code = "import sys, ttw4d.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_perfbench_trace_targets_resolve():
    """Every function perfbench/tracing.py spans and every method it counts
    exists in src/ where the tracer looks it up; the tracer file is only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    missing = []
    for modname, attr in tracing["SPANNED"]:
        owner, _, name = attr.rpartition(".")
        mod = importlib.import_module(modname)
        holder = vars(getattr(mod, owner)) if owner else vars(mod)
        if not callable(holder.get(name)):
            missing.append(f"{modname}.{attr}")
    for modname, cls, meth, _ in tracing["COUNTED"]:
        if meth not in vars(getattr(importlib.import_module(modname), cls)):
            missing.append(f"{modname}.{cls}.{meth}")
    assert len(tracing["SPANNED"]) > 20 and tracing["COUNTED"]
    assert missing == []
