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


def imported_names(source: str, filename: str = "<source>"):
    """(line, names) of each import, and of each attribute read, in source;
    an import lists every module it names, an attribute its dotted name."""
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        elif isinstance(node, ast.Attribute):
            names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
        else:
            continue
        yield node.lineno, names


def source_lines_naming(match) -> list[str]:
    """path:line of every import or attribute in src/latsim/ with a name
    for which match is true."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    return [f"{path.name}:{line}"
            for path in modules
            for line, names in imported_names(path.read_text(), str(path))
            if any(map(match, names))]


def test_source_never_imports_numpy_random():
    # importing numpy.random adds about 6.5 MB to a run's peak RSS. The
    # static twin of test_verify_suites_leave_numpy_random_unloaded: it
    # refuses every import of numpy.random and every attribute np.random,
    # which numpy imports on first access
    assert source_lines_naming(
        lambda name: name in ("numpy.random", "np.random")
        or name.startswith("numpy.random.")) == []


def is_test_only(name: str) -> bool:
    """True for a name in mpmath or hypothesis, which only the tests use."""
    return name.split(".")[0] in ("mpmath", "hypothesis")


def test_source_never_imports_mpmath_or_hypothesis():
    # the tests check j against mpmath and search with hypothesis; latsim
    # itself runs without either
    assert [names for source in ("import mpmath", "import numpy, mpmath.ctx",
                                 "from hypothesis import given, target",
                                 "import math", "from . import modular")
            for _, names in imported_names(source)
            if any(map(is_test_only, names))] == \
        [["mpmath"], ["numpy", "mpmath.ctx"],
         ["hypothesis.given", "hypothesis.target", "hypothesis"]]
    assert source_lines_naming(is_test_only) == []


def names_coprime_table(name: str) -> bool:
    """True for a name that reads census' coprime tables."""
    return name.rsplit(".", 1)[-1] in ("_coprime_pairs", "_coprime_mask")


def test_only_census_names_the_coprime_tables():
    # the class rows have one source, census._class_blocks: no other module
    # builds them from the coprime tables, and census itself calls the
    # tables by their bare names
    assert [names for source in ("from .census import _coprime_pairs",
                                 "census._coprime_mask(T, n, tables)",
                                 "census._class_blocks(set_id, T)")
            for _, names in imported_names(source)
            if any(map(names_coprime_table, names))] == \
        [["census._coprime_pairs", "census"], ["census._coprime_mask"]]
    assert source_lines_naming(names_coprime_table) == []
