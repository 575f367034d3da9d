"""Rules on the package source itself."""

import ast
from pathlib import Path

import wittlab


def test_no_invariant_relies_on_assert():
    # python -O strips assert statements, so every check the package makes
    # must raise a typed error instead
    root = Path(wittlab.__file__).parent
    offenders = [
        f"{path.relative_to(root.parent)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, "assert statements in the package: " + ", ".join(offenders)
