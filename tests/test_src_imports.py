"""The package imports neither sympy nor hypothesis: both may be used by tests
and development tools, never by the code under src/."""
import ast
from pathlib import Path

import ttw4d

FORBIDDEN = {"sympy", "hypothesis"}


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
        found = FORBIDDEN & set(_imported_roots(ast.parse(path.read_text(), str(path))))
        if found:
            offenders[path.name] = sorted(found)
    assert offenders == {}
