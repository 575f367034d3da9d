"""Rules on the package source itself."""

import ast
import subprocess
import sys
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


def test_no_unused_imports():
    # a name a module imports and never reads is a dependency it does not
    # have; __init__.py imports names to re-export them, so it is exempt
    root = Path(wittlab.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [
            f"{path.relative_to(root.parent)}:{line} {name}"
            for name, line in imported.items()
            if name not in read
        ]
    assert not offenders, "imported but never used: " + ", ".join(offenders)


def test_import_loads_neither_dataclasses_nor_inspect():
    # the configuration records are namedtuples: importing dataclasses would
    # load inspect, ast, dis and tokenize, about 1 MB that nothing else the
    # package runs needs; the Artin-Hasse coefficients are integer
    # arithmetic, so fractions (which loads decimal and numbers) is not
    # loaded either (-S: no site module, which may import any of them)
    src = str(Path(wittlab.__file__).parent.parent)
    names = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import wittlab; "
        f"print(sorted({names} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["[]"]
