"""No test file imports another: shared helpers live in conftest.py and
simnet.py, so each test module can be collected and changed on its own."""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def imported_modules(tree: ast.Module):
    """The top-level name of every module an `import` or `from` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import name
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_no_test_file_imports_a_test_module():
    offenders = [
        f"{path.name} imports {name}"
        for path in sorted(TESTS.glob("test_*.py"))
        for name in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name.startswith("test_")
    ]
    assert offenders == []
