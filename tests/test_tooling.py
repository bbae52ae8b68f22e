"""Checks on the source tree itself."""

import ast
from pathlib import Path

import latsim

SRC = Path(latsim.__file__).resolve().parent


def test_source_holds_no_assert_statement():
    # python -O strips assert statements, so a range or invariant that
    # must hold raises an exception instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_source_never_imports_numpy_random():
    # importing numpy.random adds about 6.5 MB to a run's peak RSS. The
    # static twin of test_verify_suites_leave_numpy_random_unloaded: it
    # refuses every import of numpy.random and every attribute np.random,
    # which numpy imports on first access
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            elif isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            else:
                continue
            if any(name in ("numpy.random", "np.random")
                   or name.startswith("numpy.random.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
